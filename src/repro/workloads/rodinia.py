"""Rodinia-like traditional GPU workloads.

Seven kernels mirroring the Rodinia subset the paper evaluates:
``kmeans``, ``backprop``, ``bfs``, ``hotspot``, ``lud``, ``nw``,
``pathfinder``.  Most are regular, dense scientific kernels — streaming
or stencil access with good page locality, the "low translation
bandwidth" group.  The exceptions match the paper: ``bfs`` is an
irregular graph traversal and ``lud``'s column operations stride one
page per lane, so both land in the high-bandwidth group; ``nw`` and
``pathfinder`` do most work in the scratchpad with bursty global phases
at tile boundaries, giving them high *infinite-TLB* miss ratios without
much performance impact (§3.1).
"""

from __future__ import annotations

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
from repro.workloads.pannotia import _GraphKernel, _bfs_levels, _scaled
from repro.workloads.compiled import CompiledTrace

__all__ = [
    "LANES",
    "N_CUS",
    "backprop",
    "bfs",
    "hotspot",
    "kmeans",
    "lud",
    "nw",
    "pathfinder",
]

N_CUS = 16
LANES = 32


def bfs(scale: float = 1.0, seed: int = 10) -> CompiledTrace:
    """Level-synchronous breadth-first search over a power-law graph."""
    k = _GraphKernel(_scaled(140_000, scale, 4096), mean_degree=6, seed=seed,
                     symmetric=True)
    dist = k.prop("dist")
    visited = k.prop("visited")
    frontier_buf = k.prop("frontier")
    source = int(k.rng.integers(0, k.graph.n_vertices))
    for level in _bfs_levels(k.graph, source):
        k.frontier_pass(
            level,
            gathers=[visited],
            scatter_writes=dist,
            frontier_array=frontier_buf,
            sample=6,
            edge_cap=64,
        )
    return k.build("bfs", issue_interval=97.0, suite="rodinia", high_bandwidth=True)


def kmeans(scale: float = 1.0, seed: int = 11) -> CompiledTrace:
    """K-means clustering: stream the point matrix, hot small centroids."""
    n_points = _scaled(96_000, scale, 4096)
    n_features = 16
    n_clusters = 16
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    points = DeviceArray(space, n_points * n_features, 4, "points")
    centroids = DeviceArray(space, n_clusters * n_features, 4, "centroids")
    assignment = DeviceArray(space, n_points, 4, "assignment")
    rng = np.random.default_rng(seed)
    cus, starts, counts = warp_schedule(n_points, N_CUS, sample=6)
    point = warp_lanes(starts, counts)
    features = np.empty((len(cus), 4), dtype=np.int64)
    clusters = np.zeros((len(cus), LANES), dtype=np.int64)
    for _ in range(2):  # two Lloyd iterations
        # Per warp, in the generator's draw order: 4 sampled feature
        # columns, then the 4 centroids it reads.
        for w in range(len(cus)):
            features[w] = rng.choice(n_features, size=4, replace=False)
            clusters[w, :4] = rng.integers(0, n_clusters, size=4)
        # Each lane walks its point's features (stride = n_features
        # elements per lane); centroids are tiny and stay hot.
        tb.emit_block(*warp_slots(cus, [
            (points.addr_array(point * n_features + f[:, None]), counts, 0)
            for f in features.T
        ] + [
            (centroids.addr_array(clusters * n_features), 4, 0),
            (assignment.addr_array(point), counts, WRITE),
        ]))
    return tb.build("kmeans", space, issue_interval=56.0,
                    suite="rodinia", high_bandwidth=False)


def backprop(scale: float = 1.0, seed: int = 12) -> CompiledTrace:
    """Back-propagation: stream a large weight matrix forward and backward."""
    n_in = _scaled(4096, scale, 512)
    n_hidden = 512
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    weights = DeviceArray(space, n_in * n_hidden, 4, "weights")
    weights_t = DeviceArray(space, n_in * n_hidden, 4, "weights_t")
    input_v = DeviceArray(space, n_in, 4, "input")
    hidden_v = DeviceArray(space, n_hidden, 4, "hidden")
    cus, starts, counts = warp_schedule(n_in * n_hidden, N_CUS, sample=12)
    element = warp_lanes(starts, counts)
    # Forward: hidden[j] = sum_i w[i][j]*in[i]; stream rows coalesced.
    tb.emit_block(*warp_slots(cus, [
        (weights.addr_array(element), counts, 0),
        (input_v.addr_array((starts // n_hidden) % n_in)[:, None], 1, 0),
        (hidden_v.addr_array(np.arange(LANES)),
         np.where(starts % (n_hidden * 8) == 0, np.minimum(counts, n_hidden), 0),
         WRITE),
    ]))
    # Backward: stream the (pre-transposed, Rodinia-style) weight matrix.
    backward = weights_t.addr_array(element)
    tb.emit_block(*warp_slots(cus, [(backward, counts, 0),
                                    (backward, counts, WRITE)]))
    return tb.build("backprop", space, issue_interval=67.0,
                    suite="rodinia", high_bandwidth=False)


def hotspot(scale: float = 1.0, seed: int = 13) -> CompiledTrace:
    """Thermal stencil over a 2-D grid with scratchpad tiling."""
    side = _scaled(1024, min(1.0, scale), 256)
    n = side * side
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    temp = DeviceArray(space, n, 4, "temp")
    power = DeviceArray(space, n, 4, "power")
    out = DeviceArray(space, n, 4, "temp_out")
    cus, starts, counts = warp_schedule(n, N_CUS, sample=12)
    seg = warp_lanes(starts, counts)
    # Halo rows: the row above for warps past the first row, then the
    # row below, cut off where a warp runs into the last row.  Indices
    # are clamped to the grid only on lanes the counts leave out.
    above = np.where(starts >= side, counts, 0)
    below = np.clip(n - side - starts, 0, counts)
    slots = [
        (temp.addr_array(seg), counts, 0),
        (temp.addr_array(np.maximum(seg - side, 0)), above, 0),
        (temp.addr_array(np.minimum(seg + side, n - 1)), below, 0),
        (power.addr_array(seg), counts, 0),
    ] + [(0, 1, SCRATCH)] * 4 + [
        (out.addr_array(seg), counts, WRITE),
    ]
    for _step in range(2):
        tb.emit_block(*warp_slots(cus, slots))
    return tb.build("hotspot", space, issue_interval=60.0,
                    suite="rodinia", high_bandwidth=False)


def lud(scale: float = 1.0, seed: int = 14) -> CompiledTrace:
    """LU decomposition: coalesced row panels, page-strided column panels."""
    n = 1024  # 4 KB rows: one page per row (column panels diverge)
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    a = DeviceArray(space, n * n, 4, "matrix")
    rng = np.random.default_rng(seed)
    k_steps = sorted(rng.choice(n - LANES, size=_scaled(12, scale, 3), replace=False))
    for kk in k_steps:
        kk = int(kk)
        span = n - kk
        cus, starts, counts = warp_schedule(span, N_CUS)
        offset = kk + warp_lanes(starts, counts)
        # Perimeter row k (coalesced) ...
        tb.emit_block(*warp_slots(cus, [(a.addr_array(kk * n + offset), counts, 0)]))
        # ... and perimeter column k: one page per lane (divergent).
        col = a.addr_array(offset * n + kk)
        tb.emit_block(*warp_slots(cus, [(col, counts, 0), (col, counts, WRITE)]))
        # Trailing submatrix update, sampled, row-major coalesced.
        cus, starts, counts = warp_schedule(span * span, N_CUS, sample=8)
        i, j = np.divmod(starts, span)
        counts = np.minimum(counts, span - j)
        row = (kk + i) * n
        seg = a.addr_array(row[:, None] + kk + warp_lanes(j, counts))
        tb.emit_block(*warp_slots(cus, [
            (seg, counts, 0),
            (a.addr_array(row + kk)[:, None], 1, 0),
            (seg, counts, WRITE),
        ]))
    return tb.build("lud", space, issue_interval=13.0,
                    suite="rodinia", high_bandwidth=True, matrix_n=n)


def nw(scale: float = 1.0, seed: int = 15) -> CompiledTrace:
    """Needleman–Wunsch: diagonal wavefront of scratchpad-staged tiles.

    Tile loads burst across one page per row; between bursts the kernel
    computes entirely in scratchpad — the access pattern behind the
    paper's "high infinite-TLB miss ratio, low performance impact"
    observation for this workload.
    """
    n = 1536  # 6 KB rows: tile rows land on distinct pages
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    score = DeviceArray(space, n * n, 4, "score")
    ref = DeviceArray(space, n * n, 4, "reference")
    tiles = n // LANES
    diag_sample = 2
    # Tiles in wavefront order: sampled diagonals, each by tile row.
    diag, ti = np.meshgrid(np.arange(0, 2 * tiles - 1, diag_sample),
                           np.arange(tiles), indexing="ij")
    tj = diag - ti
    inside = (tj >= 0) & (tj < tiles)
    ti, tj = ti[inside], tj[inside]
    # Deal tiles to CUs by emission order (a sampled diagonal would
    # otherwise always hash to the same CU parity).
    cus = np.arange(ti.size) % N_CUS
    # Sampled rows of each tile (every 4th), 32 lanes each.
    rows = ti[:, None] * LANES + np.arange(0, LANES, 4)
    index = (rows * n + (tj * LANES)[:, None])[:, :, None] + np.arange(LANES)
    score_rows = score.addr_array(index).transpose(1, 0, 2)
    ref_rows = ref.addr_array(index).transpose(1, 0, 2)
    tb.emit_block(*warp_slots(cus, [(row, LANES, 0) for row in score_rows]
                              + [(row, LANES, 0) for row in ref_rows]
                              + [(0, 1, SCRATCH)] * 64
                              + [(row, LANES, WRITE) for row in score_rows]))
    return tb.build("nw", space, issue_interval=9.0,
                    suite="rodinia", high_bandwidth=False, matrix_n=n)


def pathfinder(scale: float = 1.0, seed: int = 16) -> CompiledTrace:
    """Dynamic-programming grid walk: row streaming + scratchpad tiles."""
    width = _scaled(393_216, scale, 8192)
    n_rows = 14
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    wall = DeviceArray(space, width * 2, 4, "wall_rows")  # double buffer
    result = DeviceArray(space, width, 4, "result")
    cus, starts, counts = warp_schedule(width, N_CUS, sample=16)
    column = warp_lanes(starts, counts)
    for row in range(n_rows):
        src_off = (row % 2) * width
        dst_off = ((row + 1) % 2) * width
        tb.emit_block(*warp_slots(
            cus, [(wall.addr_array(src_off + column), counts, 0)]
            + [(0, 1, SCRATCH)] * 6
            + [(wall.addr_array(dst_off + column), counts, WRITE)]))
    tb.emit_block(*warp_slots(cus, [(result.addr_array(column), counts, WRITE)]))
    return tb.build("pathfinder", space, issue_interval=14.0,
                    suite="rodinia", high_bandwidth=False)
