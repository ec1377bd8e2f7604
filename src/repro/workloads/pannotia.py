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
from repro.workloads.device import DeviceArray, TraceBuilder, warp_chunks
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
        rotates which edges are kept across iterations.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        g = self.graph
        for cu, start, count in warp_chunks(len(frontier), self.n_cus, sample=sample):
            verts = frontier[start:start + count]
            if frontier_array is not None:
                self.tb.emit(cu, frontier_array.addrs(range(start, start + count)))
            self.tb.emit(cu, self.row_arr.addrs(verts))

            eps = edge_positions(g, verts)
            if len(eps) > edge_cap:
                # Even subsampling with a rotating phase: keeps the
                # spread over the warp's edge ranges.
                sel = (np.arange(edge_cap) * len(eps)) // edge_cap
                eps = eps[(sel + edge_offset) % len(eps)]
            for chunk_start in range(0, len(eps), LANES):
                chunk = eps[chunk_start:chunk_start + LANES]
                cols = g.col_idx[chunk]
                self.tb.emit(cu, self.col_arr.addrs(chunk))
                for arr in gathers:
                    self.tb.emit(cu, arr.addrs(cols))
                if scatter_writes is not None:
                    self.tb.emit(cu, scatter_writes.addrs(cols), is_write=True)
            if vertex_writes is not None:
                self.tb.emit(cu, vertex_writes.addrs(verts), is_write=True)

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
    rows_of_edge = np.repeat(np.arange(g.n_vertices), g.out_degrees())
    sample = 24
    for _it in range(2):
        for cu, start, count in warp_chunks(g.n_edges, k.n_cus, sample=sample):
            positions = range(start, start + count)
            cols = g.col_idx[start:start + count]
            k.tb.emit(cu, k.col_arr.addrs(positions))       # streaming col_idx
            k.tb.emit(cu, val.addrs(positions))             # streaming values
            k.tb.emit(cu, x.addrs(cols))                    # divergent gather
            k.tb.emit(cu, y.addrs(rows_of_edge[start:start + count]), is_write=True)
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
        eps = edge_positions(graph, frontier)
        targets = np.unique(graph.col_idx[eps])
        new = targets[dist[targets] < 0]
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
    row_bytes = n * 4
    k_steps = _scaled(4, scale, 2)
    rng = np.random.default_rng(seed)
    k_values = sorted(rng.choice(n, size=min(k_steps, n), replace=False))
    sample = 32
    for step, kk in enumerate(k_values):
        kk = int(kk)
        if step % 2 == 0:
            # Row-parallel: for rows i, lanes cover consecutive j.
            for cu, start, count in warp_chunks(n * n, N_CUS, sample=sample):
                i, j0 = divmod(start, n)
                count = min(count, n - j0)
                base = d.base_va + i * row_bytes + j0 * 4
                row_j = [base + c * 4 for c in range(count)]
                k_row = [d.base_va + kk * row_bytes + (j0 + c) % n * 4
                         for c in range(count)]
                tb.emit(cu, row_j)                                   # d[i][j..]
                tb.emit(cu, [d.base_va + i * row_bytes + kk * 4])    # d[i][k]
                tb.emit(cu, k_row)                                   # d[k][j..]
                tb.emit(cu, row_j, is_write=True)
        else:
            # Column-parallel: lanes cover consecutive i — one page each.
            for cu, start, count in warp_chunks(n * n, N_CUS, sample=sample):
                j, i0 = divmod(start, n)
                count = min(count, n - i0)
                col_i = [d.base_va + (i0 + c) * row_bytes + j * 4
                         for c in range(count)]
                col_k = [d.base_va + (i0 + c) * row_bytes + kk * 4
                         for c in range(count)]
                tb.emit(cu, col_i)                                   # d[i..][j]
                tb.emit(cu, col_k)                                   # d[i..][k]
                tb.emit(cu, [d.base_va + kk * row_bytes + j * 4])    # d[k][j]
                tb.emit(cu, col_i, is_write=True)
    return tb.build("fw", space, issue_interval=10.0,
                    suite="pannotia", high_bandwidth=True, matrix_n=n)


def fw_block(scale: float = 1.0, seed: int = 7) -> CompiledTrace:
    """Blocked Floyd–Warshall: 32×32 tiles staged through the scratchpad."""
    n = _FW_N
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    d = DeviceArray(space, n * n, 4, "dist")
    row_bytes = n * 4
    tiles = n // LANES
    rng = np.random.default_rng(seed)
    k_blocks = sorted(int(b) for b in rng.choice(
        tiles, size=min(_scaled(4, scale, 2), tiles), replace=False))
    tile_sample = 9

    def load_tile(cu: int, ti: int, tj: int, write: bool = False) -> None:
        # 32 rows of a 32×32 tile; each row is one 128-byte line.
        for r in range(LANES):
            base = d.base_va + (ti * LANES + r) * row_bytes + tj * LANES * 4
            tb.emit(cu, [base + c * 4 for c in range(LANES)], is_write=write)

    for kb in k_blocks:
        # Phase 1: the pivot tile, computed in scratchpad.
        load_tile(0, kb, kb)
        tb.emit_scratch_burst(0, 32)
        load_tile(0, kb, kb, write=True)
        # Phase 2: pivot row and column panels.
        for t in range(tiles):
            cu = t % N_CUS
            if t == kb:
                continue
            load_tile(cu, kb, t)
            tb.emit_scratch_burst(cu, 16)
            load_tile(cu, kb, t, write=True)
        # Phase 3: sampled interior tiles.
        counter = 0
        for ti in range(tiles):
            for tj in range(tiles):
                if ti == kb or tj == kb:
                    continue
                counter += 1
                if counter % tile_sample:
                    continue
                cu = counter % N_CUS
                load_tile(cu, ti, tj)
                tb.emit_scratch_burst(cu, 16)
                load_tile(cu, ti, tj, write=True)
    return tb.build("fw_block", space, issue_interval=5.0,
                    suite="pannotia", high_bandwidth=True, matrix_n=n)
