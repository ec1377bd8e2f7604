"""Memory-access coalescer.

Each CU coalesces its 32 lanes' addresses into the minimum number of
cache-line requests before consulting the TLB (§2.1: "The TLB is
consulted after the per-lane accesses have been coalesced").  Regular
workloads coalesce a whole warp into one or two requests; divergent
scatter/gather instructions produce tens of requests to different lines
— and often different *pages*, which is what stresses translation.

Traces are coalesced once, for every instruction at a time, by
:func:`coalesce_arrays`, and :func:`~repro.system.run.simulate` replays
the resulting arrays.  :class:`Coalescer` and :class:`CoalescedRequest`
are the per-instruction dict formulation, kept as the reference the
tests check :func:`coalesce_arrays` against; no simulation path builds
them.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.memsys.addressing import DEFAULT_LINE_SIZE, PAGE_SIZE

__all__ = ["CoalescedRequest", "Coalescer", "coalesce_arrays"]


class CoalescedRequest:
    """One line-sized request produced by coalescing a warp access."""

    __slots__ = ("line_addr", "is_write", "n_lanes")

    def __init__(self, line_addr: int, is_write: bool, n_lanes: int) -> None:
        self.line_addr = line_addr  # virtual line address
        self.is_write = is_write
        self.n_lanes = n_lanes  # how many lanes this request serves

    @property
    def byte_addr(self) -> int:
        return self.line_addr * DEFAULT_LINE_SIZE

    @property
    def vpn(self) -> int:
        return self.byte_addr // PAGE_SIZE

    def __repr__(self) -> str:
        return (
            f"CoalescedRequest(line_addr={self.line_addr!r}, "
            f"is_write={self.is_write!r}, n_lanes={self.n_lanes!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoalescedRequest):
            return NotImplemented
        return (
            self.line_addr == other.line_addr
            and self.is_write == other.is_write
            and self.n_lanes == other.n_lanes
        )

    def __hash__(self) -> int:
        return hash((self.line_addr, self.is_write, self.n_lanes))


class Coalescer:
    """Merges lane addresses into per-line requests."""

    def __init__(self, line_size: int = DEFAULT_LINE_SIZE) -> None:
        if line_size <= 0:
            raise ValueError("line size must be positive")
        self.line_size = line_size
        self.instructions = 0
        self.requests = 0

    def coalesce(self, addresses: Sequence[int], is_write: bool = False) -> List[CoalescedRequest]:
        """Coalesce one instruction's lane addresses.

        Requests come out in first-appearance order (the order lanes are
        serviced), each annotated with how many lanes it satisfies.
        """
        lane_counts: dict = {}
        for addr in addresses:
            line = addr // self.line_size
            lane_counts[line] = lane_counts.get(line, 0) + 1
        requests = [
            CoalescedRequest(line_addr=line, is_write=is_write, n_lanes=count)
            for line, count in lane_counts.items()
        ]
        self.instructions += 1
        self.requests += len(requests)
        return requests

    def mean_divergence(self) -> float:
        """Average requests per coalesced instruction so far."""
        return self.requests / self.instructions if self.instructions else 0.0


def coalesce_arrays(lanes, lane_counts, line_size: int = DEFAULT_LINE_SIZE):
    """Batch-coalesce many instructions' lane addresses at once.

    ``lanes`` concatenates every instruction's lane addresses;
    ``lane_counts[i]`` says how many of them belong to instruction
    ``i``.  Returns NumPy arrays ``(req_line, inst_req_counts)`` — the
    coalesced line addresses, concatenated in instruction order, and
    the number of requests each instruction produced.

    Order matches :meth:`Coalescer.coalesce` exactly (distinct lines in
    first-appearance order): a stable sort on (instruction, line) heads
    each request's run of lanes with its first-appearing lane, and
    sorting those heads by lane index restores first-appearance order,
    because the lanes arrive in instruction order.  No Python dict is
    built per instruction.
    """
    import numpy as np

    if line_size <= 0:
        raise ValueError("line size must be positive")
    lanes = np.asarray(lanes, dtype=np.int64)
    lane_counts = np.asarray(lane_counts, dtype=np.int64)
    n_insts = len(lane_counts)
    if int(lane_counts.sum()) != lanes.size:
        raise ValueError(
            f"lane array holds {lanes.size} addresses but lane_counts "
            f"claims {int(lane_counts.sum())}")
    if lanes.size == 0:
        return np.zeros(0, np.int64), np.zeros(n_insts, np.int64)
    inst_id = np.repeat(np.arange(n_insts, dtype=np.int64), lane_counts)
    lines = lanes // line_size
    order = np.lexsort((lines, inst_id))  # stable: ties keep lane order
    s_inst = inst_id[order]
    s_line = lines[order]
    head = np.empty(lanes.size, dtype=bool)
    head[0] = True
    head[1:] = (s_inst[1:] != s_inst[:-1]) | (s_line[1:] != s_line[:-1])
    first = np.sort(order[head])
    inst_req_counts = np.bincount(
        inst_id[first], minlength=n_insts).astype(np.int64)
    return lines[first], inst_req_counts
