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
from repro.workloads.device import DeviceArray, TraceBuilder, warp_chunks
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
    for _ in range(2):  # two Lloyd iterations
        for cu, start, count in warp_chunks(n_points, N_CUS, sample=6):
            # Each lane walks its point's features; emit a few sampled
            # feature columns (stride = n_features elements per lane).
            for f in rng.choice(n_features, size=4, replace=False):
                tb.emit(cu, [
                    points.addr((start + lane) * n_features + int(f))
                    for lane in range(count)
                ])
            # Centroids are tiny and stay hot.
            tb.emit(cu, [centroids.addr(int(c) * n_features)
                         for c in rng.integers(0, n_clusters, size=4)])
            tb.emit(cu, assignment.addrs(range(start, start + count)), is_write=True)
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
    sample = 12
    # Forward: hidden[j] = sum_i w[i][j]*in[i]; stream rows coalesced.
    for cu, start, count in warp_chunks(n_in * n_hidden, N_CUS, sample=sample):
        tb.emit(cu, [weights.addr(start + c) for c in range(count)])
        tb.emit(cu, [input_v.addr((start // n_hidden) % n_in)])
        if start % (n_hidden * 8) == 0:
            tb.emit(cu, hidden_v.addrs(range(min(count, n_hidden))), is_write=True)
    # Backward: stream the (pre-transposed, Rodinia-style) weight matrix.
    for cu, start, count in warp_chunks(n_in * n_hidden, N_CUS, sample=sample):
        tb.emit(cu, [weights_t.addr(start + c) for c in range(count)])
        tb.emit(cu, [weights_t.addr(start + c) for c in range(count)], is_write=True)
    return tb.build("backprop", space, issue_interval=67.0,
                    suite="rodinia", high_bandwidth=False)


def hotspot(scale: float = 1.0, seed: int = 13) -> CompiledTrace:
    """Thermal stencil over a 2-D grid with scratchpad tiling."""
    side = _scaled(1024, min(1.0, scale), 256)
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    temp = DeviceArray(space, side * side, 4, "temp")
    power = DeviceArray(space, side * side, 4, "power")
    out = DeviceArray(space, side * side, 4, "temp_out")
    sample = 12
    for _step in range(2):
        for cu, start, count in warp_chunks(side * side, N_CUS, sample=sample):
            row, col = divmod(start, side)
            seg = range(start, start + count)
            tb.emit(cu, temp.addrs(seg))
            if row > 0:
                tb.emit(cu, temp.addrs(range(start - side, start - side + count)))
            if row < side - 1:
                tb.emit(cu, temp.addrs(range(start + side, start + side + count)))
            tb.emit(cu, power.addrs(seg))
            tb.emit_scratch_burst(cu, 4)
            tb.emit(cu, out.addrs(seg), is_write=True)
    return tb.build("hotspot", space, issue_interval=60.0,
                    suite="rodinia", high_bandwidth=False)


def lud(scale: float = 1.0, seed: int = 14) -> CompiledTrace:
    """LU decomposition: coalesced row panels, page-strided column panels."""
    n = 1024  # 4 KB rows: one page per row (column panels diverge)
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)
    a = DeviceArray(space, n * n, 4, "matrix")
    row_bytes = n * 4
    rng = np.random.default_rng(seed)
    k_steps = sorted(rng.choice(n - LANES, size=_scaled(12, scale, 3), replace=False))
    interior_sample = 8
    for kk in k_steps:
        span = n - kk
        # Perimeter row k (coalesced) ...
        for cu, start, count in warp_chunks(span, N_CUS):
            base = a.base_va + kk * row_bytes + (kk + start) * 4
            tb.emit(cu, [base + c * 4 for c in range(count)])
        # ... and perimeter column k: one page per lane (divergent).
        for cu, start, count in warp_chunks(span, N_CUS):
            col = [a.base_va + (kk + start + c) * row_bytes + kk * 4
                   for c in range(count)]
            tb.emit(cu, col)
            tb.emit(cu, col, is_write=True)
        # Trailing submatrix update, sampled, row-major coalesced.
        for cu, start, count in warp_chunks(span * span, N_CUS, sample=interior_sample):
            i, j = divmod(start, span)
            count = min(count, span - j)
            base = a.base_va + (kk + i) * row_bytes + (kk + j) * 4
            seg = [base + c * 4 for c in range(count)]
            tb.emit(cu, seg)
            tb.emit(cu, [a.base_va + (kk + i) * row_bytes + kk * 4])
            tb.emit(cu, seg, is_write=True)
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
    row_bytes = n * 4
    tiles = n // LANES
    diag_sample = 2

    def tile_io(cu: int, ti: int, tj: int, array: DeviceArray, write: bool) -> None:
        for r in range(0, LANES, 4):  # sampled rows of the tile
            base = array.base_va + (ti * LANES + r) * row_bytes + tj * LANES * 4
            tb.emit(cu, [base + c * 4 for c in range(LANES)], is_write=write)

    tile_counter = 0
    for diag in range(0, 2 * tiles - 1, diag_sample):
        for ti in range(tiles):
            tj = diag - ti
            if not 0 <= tj < tiles:
                continue
            # Deal tiles to CUs by emission order (a sampled diagonal
            # would otherwise always hash to the same CU parity).
            cu = tile_counter % N_CUS
            tile_counter += 1
            tile_io(cu, ti, tj, score, write=False)
            tile_io(cu, ti, tj, ref, write=False)
            tb.emit_scratch_burst(cu, 64)
            tile_io(cu, ti, tj, score, write=True)
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
    sample = 16
    for row in range(n_rows):
        src_off = (row % 2) * width
        dst_off = ((row + 1) % 2) * width
        for cu, start, count in warp_chunks(width, N_CUS, sample=sample):
            tb.emit(cu, wall.addrs(range(src_off + start, src_off + start + count)))
            tb.emit_scratch_burst(cu, 6)
            tb.emit(cu, wall.addrs(range(dst_off + start, dst_off + start + count)),
                    is_write=True)
    for cu, start, count in warp_chunks(width, N_CUS, sample=sample):
        tb.emit(cu, result.addrs(range(start, start + count)), is_write=True)
    return tb.build("pathfinder", space, issue_interval=14.0,
                    suite="rodinia", high_bandwidth=False)
