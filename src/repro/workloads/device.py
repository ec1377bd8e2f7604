"""Building blocks for GPU-kernel trace generation.

Workload generators in this package *run the actual algorithms* (BFS
levels, PageRank sweeps, Floyd–Warshall updates, …) over data structures
laid out in a simulated virtual address space, and record the per-lane
addresses each warp-sized step would issue.  :class:`DeviceArray` is the
layout piece (an array living in the address space; its
:meth:`~DeviceArray.addr_array` turns an index array of any shape into
lane addresses); :class:`TraceBuilder` is the recording piece, which
takes whole blocks of instructions as NumPy arrays and compiles what it
records straight into a :class:`~repro.workloads.compiled.CompiledTrace`;
:func:`warp_schedule` is the work distributor (block-cyclic warp
scheduling over the CUs, as GPU runtimes do), :func:`warp_lanes` lays a
warp's lanes over its work items, and :func:`warp_slots` flattens the
instructions every warp of a phase issues into one block.

Trace *sampling*: real kernels execute millions of warps; the simulator
is a Python model, so generators may emit only every ``sample``-th warp.
Sampling keeps the access *pattern* (strides, gathers, page reuse,
divergence) while bounding trace length; footprints are unchanged.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.memsys.address_space import AddressSpace, Mapping
from repro.memsys.permissions import Permissions
from repro.workloads.compiled import CompiledTrace, compile_arrays

__all__ = [
    "DeviceArray",
    "LANES",
    "SCRATCH",
    "TraceBuilder",
    "WRITE",
    "warp_lanes",
    "warp_schedule",
    "warp_slots",
]

LANES = 32

#: Instruction flag bits (a plain load has none).
WRITE = 1
SCRATCH = 2

_NO_LANES = "a memory instruction needs at least one lane address"


class DeviceArray:
    """A typed array resident in the simulated virtual address space."""

    def __init__(
        self,
        space: AddressSpace,
        n_elements: int,
        element_size: int = 4,
        name: str = "array",
        permissions: Permissions = Permissions.READ_WRITE,
    ) -> None:
        if n_elements <= 0:
            raise ValueError("array must have at least one element")
        self.space = space
        self.n_elements = n_elements
        self.element_size = element_size
        self.name = name
        self.mapping: Mapping = space.alloc_array(n_elements, element_size, permissions)

    @property
    def base_va(self) -> int:
        return self.mapping.base_va

    def addr(self, index: int) -> int:
        """Virtual byte address of ``self[index]``."""
        if not 0 <= index < self.n_elements:
            raise IndexError(f"{self.name}[{index}] out of bounds ({self.n_elements})")
        return self.mapping.base_va + index * self.element_size

    def addr_array(self, indices) -> np.ndarray:
        """Virtual byte addresses of ``self[indices]``, as an int64 array.

        ``indices`` is an index array of any shape, a list or a
        ``range``; the result has its shape.  One min/max bounds check
        covers the whole call: an index outside the array raises
        ``IndexError`` naming the array, as :meth:`addr` does.
        """
        if isinstance(indices, range):
            indices = np.arange(indices.start, indices.stop, indices.step)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or high >= self.n_elements:
                bad = low if low < 0 else high
                raise IndexError(
                    f"{self.name}[{bad}] out of bounds ({self.n_elements})")
        return indices * self.element_size + self.mapping.base_va

    def addrs(self, indices: Iterable[int]) -> List[int]:
        """:meth:`addr_array` as a list of plain Python ints."""
        return self.addr_array(indices).tolist()


class TraceBuilder:
    """Records memory instructions as blocks of NumPy arrays.

    A block is four arrays: each instruction's CU id, lane count and
    flags (bit0 = write, bit1 = scratchpad), and the instructions' lane
    addresses concatenated.  Generators hand whole kernel phases to
    :meth:`emit_block`; :meth:`emit`, :meth:`emit_scratch` and
    :meth:`emit_scratch_burst` record one instruction at a time (hand-
    built and synthetic traces) into the same emission-ordered record.
    :meth:`build` groups the record by CU with one stable sort, so each
    CU's instructions keep the order they were emitted in, and compiles
    it into a :class:`~repro.workloads.compiled.CompiledTrace`,
    coalescing every instruction in one vectorized pass; the trace
    keeps the coalesced requests, not the lanes.  A CU id of ``n_cus``
    or more wraps around.
    """

    def __init__(self, n_cus: int = 16, lanes: int = LANES) -> None:
        if n_cus <= 0:
            raise ValueError("need at least one CU")
        self.n_cus = n_cus
        self.lanes = lanes
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        # Instructions from the one-at-a-time calls, not yet in a block.
        self._cus: List[int] = []
        self._lane_counts: List[int] = []
        self._flags: List[int] = []
        self._lanes: List[int] = []

    def emit_block(self, cus, lane_counts, flags, lanes) -> None:
        """Record a block of instructions, in emission order.

        ``cus``, ``lane_counts`` and ``flags`` hold one entry per
        instruction; ``lanes`` concatenates their lane addresses.  A
        scratchpad instruction (flag bit 1) has one lane, address 0.
        """
        lane_counts = np.asarray(lane_counts, dtype=np.int64)
        cus = np.asarray(cus, dtype=np.int64)
        flags = np.asarray(flags, dtype=np.int8)
        lanes = np.asarray(lanes, dtype=np.int64)
        if not cus.shape == flags.shape == lane_counts.shape:
            raise ValueError("a block needs one CU id, lane count and flag "
                             "per instruction")
        if lane_counts.size and int(lane_counts.min()) <= 0:
            raise ValueError(_NO_LANES)
        if int(lane_counts.sum()) != lanes.size:
            raise ValueError(
                f"block holds {lanes.size} lane addresses but its lane "
                f"counts claim {int(lane_counts.sum())}")
        self._flush()
        if cus.size:
            self._blocks.append((cus % self.n_cus, lane_counts, flags, lanes))

    def emit(self, cu: int, addresses: Iterable[int], is_write: bool = False) -> None:
        """Record one global-memory instruction on ``cu``."""
        before = len(self._lanes)
        self._lanes.extend(addresses)
        if len(self._lanes) == before:
            raise ValueError(_NO_LANES)
        self._record(cu, len(self._lanes) - before, WRITE if is_write else 0)

    def emit_scratch(self, cu: int, is_write: bool = False) -> None:
        """Record one scratchpad instruction (no TLB/cache traffic)."""
        self._lanes.append(0)
        self._record(cu, 1, SCRATCH | WRITE if is_write else SCRATCH)

    def emit_scratch_burst(self, cu: int, count: int) -> None:
        """Record ``count`` scratchpad instructions (tile compute phases)."""
        for _ in range(count):
            self.emit_scratch(cu)

    def _record(self, cu: int, lane_count: int, flag: int) -> None:
        self._cus.append(cu % self.n_cus)
        self._lane_counts.append(lane_count)
        self._flags.append(flag)

    def _flush(self) -> None:
        """Close the one-at-a-time instructions into a block."""
        if self._cus:
            self._blocks.append((np.asarray(self._cus, dtype=np.int64),
                                 np.asarray(self._lane_counts, dtype=np.int64),
                                 np.asarray(self._flags, dtype=np.int8),
                                 np.asarray(self._lanes, dtype=np.int64)))
            self._cus, self._lane_counts, self._flags, self._lanes = [], [], [], []

    def record(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Everything recorded so far, in emission order, as one block.

        Returns ``(cus, lane_counts, flags, lanes)`` (CU ids already
        wrapped), the arrays :meth:`emit_block` takes.
        """
        self._flush()
        if not self._blocks:
            return (np.zeros(0, np.int64), np.zeros(0, np.int64),
                    np.zeros(0, np.int8), np.zeros(0, np.int64))
        if len(self._blocks) > 1:
            # One block from here on; the parts are freed.
            self._blocks = [tuple(np.concatenate(parts)
                                  for parts in zip(*self._blocks))]
        return self._blocks[0]

    def build(
        self,
        name: str,
        space: AddressSpace,
        issue_interval: float,
        **metadata,
    ) -> CompiledTrace:
        """Compile the record; CUs that recorded nothing are dropped."""
        cus, lane_counts, flags, lanes = self.record()
        if not cus.size:
            raise ValueError(f"workload {name!r} produced an empty trace")
        if issue_interval <= 0:
            raise ValueError("issue interval must be positive")
        per_cu = np.bincount(cus, minlength=self.n_cus)
        cu_bounds = np.concatenate(([0], np.cumsum(per_cu[per_cu > 0])))
        order = np.argsort(cus, kind="stable")
        # Move each instruction's run of lanes along with it.
        starts = np.cumsum(lane_counts) - lane_counts
        lane_counts, flags = lane_counts[order], flags[order]
        moved = starts[order] - (np.cumsum(lane_counts) - lane_counts)
        lanes = lanes[np.repeat(moved, lane_counts)
                      + np.arange(lanes.size, dtype=np.int64)]
        return compile_arrays(name, issue_interval, dict(metadata), space,
                              lanes, lane_counts, flags, cu_bounds)


def warp_schedule(
    n_items: int,
    n_cus: int,
    lanes: int = LANES,
    sample: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-cyclic warp scheduling: ``(cu, start, count)`` per warp.

    Work item ranges of ``lanes`` elements are dealt to CUs round-robin.
    With ``sample > 1`` only every ``sample``-th warp is emitted (trace
    sampling; see the module docstring).  Returns three int64 arrays,
    one entry per emitted warp, in issue order.
    """
    if sample <= 0:
        raise ValueError("sample must be positive")
    starts = np.arange(0, max(n_items, 0), lanes * sample, dtype=np.int64)
    # Deal by *emitted* warp so sampling never starves CUs.
    cus = np.arange(starts.size, dtype=np.int64) % n_cus
    return cus, starts, np.minimum(lanes, n_items - starts)


def warp_lanes(first, counts, lanes: int = LANES) -> np.ndarray:
    """Each warp's lanes over consecutive items, as a ``(warps, lanes)`` array.

    Lane ``l`` of warp ``w`` holds item ``first[w] + l`` while ``l <
    counts[w]``; the dead lanes of a short warp hold its first item, so
    an index map that is in bounds on a warp's live lanes is in bounds
    on its dead ones too.
    """
    first = np.asarray(first)[:, None]
    lane = np.arange(lanes)
    return np.where(lane < np.asarray(counts)[:, None], first + lane, first)


def warp_slots(cus, slots):
    """Flatten a phase's per-warp instructions into one block.

    ``slots`` lists the instructions every warp issues, in program
    order, each as ``(lanes, lane_counts, flags)``: ``lanes`` holds
    each warp's lane addresses, ``(warps, width)`` (a scalar or a
    ``(warps, 1)`` column is the same address on every lane),
    ``lane_counts`` how many of them are live per warp (0: the warp
    does not issue this instruction), and ``flags`` its flags.
    ``cus`` holds each warp's CU.  Returns :meth:`TraceBuilder.emit_block`'s
    four arrays, warp by warp.
    """
    cus = np.asarray(cus, dtype=np.int64)
    width = max(np.shape(lanes)[-1] if np.ndim(lanes) == 2 else 1
                for lanes, _counts, _flags in slots)
    shape = (cus.size, len(slots))
    lanes = np.stack([np.broadcast_to(lanes, (cus.size, width))
                      for lanes, _counts, _flags in slots], axis=1)
    lane_counts = np.stack([np.broadcast_to(counts, cus.shape)
                            for _lanes, counts, _flags in slots], axis=1)
    flags = np.array([flags for _lanes, _counts, flags in slots], dtype=np.int8)
    issued = lane_counts > 0
    return (np.broadcast_to(cus[:, None], shape)[issued],
            lane_counts[issued],
            np.broadcast_to(flags, shape)[issued],
            lanes[np.arange(width) < lane_counts[..., None]])
