"""Pannotia-like irregular graph workloads.

Eight kernels mirroring the Pannotia suite the paper evaluates:
``bc``, ``color_maxmin``, ``color_max``, ``fw``, ``fw_block``, ``mis``,
``pagerank``, ``pagerank_spmv``.  State-dependent algorithms (BFS
frontiers, colouring rounds, Luby's MIS) are *actually executed* with
numpy over a skewed graph; the trace records the lane addresses each
warp would issue.  These workloads are the paper's "high translation
bandwidth" group: neighbor gathers scatter across hundreds of pages
(poor TLB locality) while hub vertices keep the caches warm (good
virtual-cache filtering).

``fw``/``fw_block`` are dense Floyd–Warshall variants: the unblocked
kernel's column-strided accesses span one page per lane — the paper's
example of extreme memory divergence (9.3 accesses per instruction) —
while the blocked version stages 32×32 tiles through the scratchpad.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.memsys.address_space import AddressSpace
from repro.workloads.device import (
    SCRATCH,
    WRITE,
    DeviceArray,
    TraceBuilder,
    warp_lanes,
    warp_schedule,
    warp_slots,
)
from repro.workloads.graphs import (
    CSRGraph,
    edge_positions,
    segment_max,
    segment_min,
    zipf_graph,
)
from repro.workloads.compiled import CompiledTrace

__all__ = [
    "LANES",
    "N_CUS",
    "bc",
    "color_max",
    "color_maxmin",
    "fw",
    "fw_block",
    "mis",
    "pagerank",
    "pagerank_spmv",
]

N_CUS = 16
LANES = 32


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(value * scale))


class _GraphKernel:
    """Shared setup for CSR graph kernels: layout + frontier sweeps."""

    def __init__(self, n_vertices: int, mean_degree: int, seed: int,
                 n_cus: int = N_CUS, zipf_exponent: float = 1.2,
                 symmetric: bool = False) -> None:
        self.graph = zipf_graph(n_vertices, mean_degree, exponent=zipf_exponent,
                                seed=seed, symmetric=symmetric)
        self.space = AddressSpace(asid=0)
        self.tb = TraceBuilder(n_cus=n_cus)
        self.n_cus = n_cus
        g = self.graph
        self.row_arr = DeviceArray(self.space, g.n_vertices + 1, 8, "row_ptr")
        self.col_arr = DeviceArray(self.space, max(1, g.n_edges), 4, "col_idx")
        self.rng = np.random.default_rng(seed + 1)

    def prop(self, name: str, element_size: int = 4) -> DeviceArray:
        """Allocate one per-vertex property array."""
        return DeviceArray(self.space, self.graph.n_vertices, element_size, name)

    # -- the core sweep -----------------------------------------------------
    def frontier_pass(
        self,
        frontier: np.ndarray,
        gathers: Sequence[DeviceArray],
        scatter_writes: Optional[DeviceArray] = None,
        vertex_writes: Optional[DeviceArray] = None,
        frontier_array: Optional[DeviceArray] = None,
        sample: int = 1,
        edge_cap: int = 64,
        edge_offset: int = 0,
    ) -> None:
        """One GPU sweep over ``frontier`` vertices.

        Per warp of frontier entries the kernel issues: the frontier
        load (when the frontier is a compacted array), the row_ptr
        gather, then per 32-edge chunk the col_idx load, one gather per
        array in ``gathers`` (the divergent accesses), and optional
        scatter writes to neighbors; finally per-vertex result writes.
        ``edge_cap`` bounds edges traced per warp (hub truncation —
        trace sampling, not an algorithm change); ``edge_offset``
        rotates which edges are kept across iterations.  The sweep is
        recorded as one block, built with array operations over all of
        its sampled warps at once.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        g = self.graph
        cus, starts, counts = warp_schedule(len(frontier), self.n_cus, sample=sample)
        if not cus.size:
            return
        # Each warp lane's frontier position and vertex.
        position = warp_lanes(starts, counts)
        verts = frontier[position]
        live = np.arange(LANES) < counts[:, None]
        slots = []          # what every warp issues, in program order
        if frontier_array is not None:
            slots.append((frontier_array.addr_array(position), counts, 0))
        slots.append((self.row_arr.addr_array(verts), counts, 0))

        # A warp's edges are its vertices' edge ranges, in lane order.
        n_edges = np.where(live, g.row_ptr[verts + 1] - g.row_ptr[verts], 0).sum(axis=1)
        kept = np.minimum(n_edges, edge_cap)
        width = -(-int(kept.max()) // LANES) * LANES
        if width:
            edges = edge_positions(g, verts[live])
            j = np.arange(width)
            # Over edge_cap edges: even subsampling with a rotating
            # phase, which keeps the spread over the warp's edge ranges.
            picked = np.where(
                (n_edges > edge_cap)[:, None],
                ((j * n_edges[:, None]) // edge_cap + edge_offset)
                % np.maximum(n_edges, 1)[:, None],
                j)
            first_edge = np.cumsum(n_edges) - n_edges
            eps = edges[np.where(j < kept[:, None], first_edge[:, None] + picked, 0)]
            cols = g.col_idx[eps]
            for chunk in range(0, width, LANES):
                n_lanes = np.clip(kept - chunk, 0, LANES)
                chunk_cols = cols[:, chunk:chunk + LANES]
                slots.append((self.col_arr.addr_array(eps[:, chunk:chunk + LANES]),
                              n_lanes, 0))
                slots += [(arr.addr_array(chunk_cols), n_lanes, 0) for arr in gathers]
                if scatter_writes is not None:
                    slots.append((scatter_writes.addr_array(chunk_cols), n_lanes, WRITE))
        if vertex_writes is not None:
            slots.append((vertex_writes.addr_array(verts), counts, WRITE))
        self.tb.emit_block(*warp_slots(cus, slots))

    def build(self, name: str, issue_interval: float, **metadata) -> CompiledTrace:
        metadata.setdefault("suite", "pannotia")
        metadata.setdefault("high_bandwidth", True)
        metadata.setdefault("n_vertices", self.graph.n_vertices)
        metadata.setdefault("n_edges", self.graph.n_edges)
        return self.tb.build(name, self.space, issue_interval, **metadata)


# ---------------------------------------------------------------------------
# PageRank (vertex-centric) and its SpMV formulation
# ---------------------------------------------------------------------------

def pagerank(scale: float = 1.0, seed: int = 0) -> CompiledTrace:
    """Vertex-centric PageRank: gather neighbor ranks, scale, store."""
    k = _GraphKernel(_scaled(160_000, scale, 4096), mean_degree=8, seed=seed)
    pr_old = k.prop("pr_old")
    pr_new = k.prop("pr_new")
    all_vertices = np.arange(k.graph.n_vertices)
    for it in range(2):
        k.frontier_pass(
            all_vertices,
            gathers=[pr_old],
            vertex_writes=pr_new,
            sample=8,
            edge_cap=64,
            edge_offset=it * 17,
        )
        pr_old, pr_new = pr_new, pr_old
    return k.build("pagerank", issue_interval=50.0)


def pagerank_spmv(scale: float = 1.0, seed: int = 1) -> CompiledTrace:
    """SpMV-formulated PageRank: edge-parallel y += A·x sweeps."""
    k = _GraphKernel(_scaled(160_000, scale, 4096), mean_degree=8, seed=seed)
    g = k.graph
    x = k.prop("x")
    y = k.prop("y")
    val = DeviceArray(k.space, max(1, g.n_edges), 4, "values")
    cus, starts, counts = warp_schedule(g.n_edges, k.n_cus, sample=24)
    positions = warp_lanes(starts, counts)
    cols = g.col_idx[positions]
    rows = np.searchsorted(g.row_ptr, positions, side="right") - 1
    for _it in range(2):
        k.tb.emit_block(*warp_slots(cus, [
            (k.col_arr.addr_array(positions), counts, 0),  # streaming col_idx
            (val.addr_array(positions), counts, 0),        # streaming values
            (x.addr_array(cols), counts, 0),               # divergent gather
            (y.addr_array(rows), counts, WRITE),
        ]))
        x, y = y, x
    return k.build("pagerank_spmv", issue_interval=37.0)


# ---------------------------------------------------------------------------
# BFS-based kernels: bc (betweenness centrality)
# ---------------------------------------------------------------------------

def _bfs_levels(graph: CSRGraph, source: int) -> List[np.ndarray]:
    """Level-synchronous BFS (vectorized); returns each level's frontier."""
    dist = np.full(graph.n_vertices, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    level = 0
    while len(frontier):
        level += 1
        targets = graph.col_idx[edge_positions(graph, frontier)]
        new = np.unique(targets[dist[targets] < 0])
        if len(new) == 0:
            break
        dist[new] = level
        levels.append(new)
        frontier = new
    return levels


def bc(scale: float = 1.0, seed: int = 2) -> CompiledTrace:
    """Betweenness centrality: forward BFS + backward dependency pass."""
    k = _GraphKernel(_scaled(120_000, scale, 4096), mean_degree=6, seed=seed,
                     symmetric=True)
    dist = k.prop("dist")
    sigma = k.prop("sigma")
    delta = k.prop("delta")
    frontier_buf = k.prop("frontier")
    source = int(k.rng.integers(0, k.graph.n_vertices))
    levels = _bfs_levels(k.graph, source)
    for level in levels:
        k.frontier_pass(
            level,
            gathers=[dist],
            scatter_writes=sigma,
            frontier_array=frontier_buf,
            sample=6,
            edge_cap=64,
        )
    for level in reversed(levels):
        k.frontier_pass(
            level,
            gathers=[sigma, delta],
            frontier_array=frontier_buf,
            vertex_writes=delta,
            sample=6,
            edge_cap=64,
        )
    return k.build("bc", issue_interval=110.0)


# ---------------------------------------------------------------------------
# Graph colouring (max and max-min) and maximal independent set
# ---------------------------------------------------------------------------

def _color_rounds(graph: CSRGraph, rng: np.random.Generator,
                  maxmin: bool, max_rounds: int) -> List[np.ndarray]:
    """Run greedy parallel colouring (vectorized); per-round active sets."""
    priority = rng.permutation(graph.n_vertices).astype(np.float64)
    active = np.ones(graph.n_vertices, dtype=bool)
    rounds: List[np.ndarray] = []
    for _ in range(max_rounds):
        ids = np.flatnonzero(active)
        if len(ids) == 0:
            break
        rounds.append(ids)
        masked = np.where(active, priority, -np.inf)
        nmax = segment_max(graph, masked)
        chosen = active & (priority > nmax)
        if maxmin:
            masked_min = np.where(active, priority, np.inf)
            nmin = segment_min(graph, masked_min)
            chosen |= active & (priority < nmin)
        if not chosen.any():
            break
        active &= ~chosen
    return rounds


def _color_workload(name: str, maxmin: bool, scale: float, seed: int) -> CompiledTrace:
    k = _GraphKernel(_scaled(120_000, scale, 4096), mean_degree=8, seed=seed)
    priority = k.prop("priority")
    color = k.prop("color")
    worklist = k.prop("worklist")
    rounds = _color_rounds(k.graph, k.rng, maxmin=maxmin, max_rounds=5)
    gathers = [priority, color]
    for i, active in enumerate(rounds):
        k.frontier_pass(
            active,
            gathers=gathers,
            frontier_array=worklist,
            vertex_writes=color,
            sample=10,
            edge_cap=64,
            edge_offset=i * 13,
        )
    return k.build(name, issue_interval=70.0)


def color_max(scale: float = 1.0, seed: int = 3) -> CompiledTrace:
    """Greedy graph colouring, max-priority rule."""
    return _color_workload("color_max", maxmin=False, scale=scale, seed=seed)


def color_maxmin(scale: float = 1.0, seed: int = 4) -> CompiledTrace:
    """Greedy graph colouring choosing both max- and min-priority vertices."""
    return _color_workload("color_maxmin", maxmin=True, scale=scale, seed=seed)


def mis(scale: float = 1.0, seed: int = 5) -> CompiledTrace:
    """Luby's maximal independent set: the most divergent graph kernel."""
    k = _GraphKernel(_scaled(130_000, scale, 4096), mean_degree=8, seed=seed)
    priority = k.prop("priority")
    state = k.prop("state")
    worklist = k.prop("worklist")
    g = k.graph
    prio = k.rng.permutation(g.n_vertices).astype(np.float64)
    active = np.ones(g.n_vertices, dtype=bool)
    for round_no in range(8):
        ids = np.flatnonzero(active)
        if len(ids) == 0:
            break
        k.frontier_pass(
            ids,
            gathers=[priority, state],
            scatter_writes=state,
            frontier_array=worklist,
            vertex_writes=state,
            sample=10,
            edge_cap=64,
            edge_offset=round_no * 11,
        )
        # Luby's selection (vectorized): local maxima join the MIS,
        # their neighbors leave the active set.
        masked = np.where(active, prio, -np.inf)
        nmax = segment_max(g, masked)
        chosen = active & (prio > nmax)
        if not chosen.any():
            break
        active &= ~chosen
        eps = edge_positions(g, np.flatnonzero(chosen))
        active[g.col_idx[eps]] = False
    return k.build("mis", issue_interval=41.0)


# ---------------------------------------------------------------------------
# Floyd–Warshall: unblocked (fw) and blocked (fw_block)
# ---------------------------------------------------------------------------

_FW_N = 1024  # 4 KB rows: one page per row, so column strides span pages


def fw(scale: float = 1.0, seed: int = 6) -> CompiledTrace:
    """Unblocked Floyd–Warshall over a dense distance matrix.

    Warps alternate between row-parallel (lanes over j: coalesced) and
    column-parallel (lanes over i: one page per lane) phases; the column
    phases are the extreme scatter/gather divergence §3.1 highlights.
    The matrix edge is fixed at 1024 (4 KB rows) so a column access
    touches one page per lane; ``scale`` varies the number of traced
    pivot steps.
    """
    n = _FW_N
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    d = DeviceArray(space, n * n, 4, "dist")
    k_steps = _scaled(4, scale, 2)
    rng = np.random.default_rng(seed)
    k_values = sorted(rng.choice(n, size=min(k_steps, n), replace=False))
    cus, starts, counts = warp_schedule(n * n, N_CUS, sample=32)
    # Lanes cover consecutive elements of one row (even steps) or one
    # column (odd steps) of the matrix.
    outer, first = np.divmod(starts, n)
    n_lanes = np.minimum(counts, n - first)
    inner = warp_lanes(first, n_lanes)
    outer = outer[:, None]
    for step, kk in enumerate(k_values):
        kk = int(kk)
        if step % 2 == 0:
            # Row-parallel: for rows i, lanes cover consecutive j.
            row_j = d.addr_array(outer * n + inner)
            slots = [(row_j, n_lanes, 0),                            # d[i][j..]
                     (d.addr_array(outer * n + kk), 1, 0),           # d[i][k]
                     (d.addr_array(kk * n + inner), n_lanes, 0),     # d[k][j..]
                     (row_j, n_lanes, WRITE)]
        else:
            # Column-parallel: lanes cover consecutive i — one page each.
            col_i = d.addr_array(inner * n + outer)
            slots = [(col_i, n_lanes, 0),                            # d[i..][j]
                     (d.addr_array(inner * n + kk), n_lanes, 0),     # d[i..][k]
                     (d.addr_array(kk * n + outer), 1, 0),           # d[k][j]
                     (col_i, n_lanes, WRITE)]
        tb.emit_block(*warp_slots(cus, slots))
    return tb.build("fw", space, issue_interval=10.0,
                    suite="pannotia", high_bandwidth=True, matrix_n=n)


def fw_block(scale: float = 1.0, seed: int = 7) -> CompiledTrace:
    """Blocked Floyd–Warshall: 32×32 tiles staged through the scratchpad."""
    n = _FW_N
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    d = DeviceArray(space, n * n, 4, "dist")
    tiles = n // LANES
    rng = np.random.default_rng(seed)
    k_blocks = sorted(int(b) for b in rng.choice(
        tiles, size=min(_scaled(4, scale, 2), tiles), replace=False))
    tile_sample = 9
    lane = np.arange(LANES)

    def tile_ops(cus, ti, tj, burst: int) -> None:
        # Per tile: load its 32 rows (one 128-byte line each), compute
        # ``burst`` instructions in scratchpad, store the rows back.
        rows = (ti[:, None] * LANES + lane)[:, :, None] * n
        tile = d.addr_array(rows + (tj * LANES)[:, None, None] + lane)
        tile_rows = tile.transpose(1, 0, 2)
        tb.emit_block(*warp_slots(cus, [(row, LANES, 0) for row in tile_rows]
                                  + [(0, 1, SCRATCH)] * burst
                                  + [(row, LANES, WRITE) for row in tile_rows]))

    t = np.arange(tiles)
    ti, tj = (grid.ravel() for grid in np.meshgrid(t, t, indexing="ij"))
    for kb in k_blocks:
        # Phase 1: the pivot tile, computed in scratchpad.
        tile_ops(np.zeros(1, np.int64), np.array([kb]), np.array([kb]), 32)
        # Phase 2: pivot row and column panels.
        panel = t[t != kb]
        tile_ops(panel % N_CUS, np.full(panel.size, kb), panel, 16)
        # Phase 3: sampled interior tiles.
        interior = (ti != kb) & (tj != kb)
        counter = np.cumsum(interior)
        picked = interior & (counter % tile_sample == 0)
        tile_ops(counter[picked] % N_CUS, ti[picked], tj[picked], 16)
    return tb.build("fw_block", space, issue_interval=5.0,
                    suite="pannotia", high_bandwidth=True, matrix_n=n)
