"""Building blocks for GPU-kernel trace generation.

Workload generators in this package *run the actual algorithms* (BFS
levels, PageRank sweeps, Floyd–Warshall updates, …) over data structures
laid out in a simulated virtual address space, and record the per-lane
addresses each warp-sized step would issue.  :class:`DeviceArray` is the
layout piece (an array living in the address space); :class:`TraceBuilder`
is the recording piece, which compiles what it records straight into a
:class:`~repro.workloads.compiled.CompiledTrace`; :func:`warp_chunks` is
the work distributor (block-cyclic warp scheduling over the CUs, as GPU
runtimes do).

Trace *sampling*: real kernels execute millions of warps; the simulator
is a Python model, so generators may emit only every ``sample``-th warp.
Sampling keeps the access *pattern* (strides, gathers, page reuse,
divergence) while bounding trace length; footprints are unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.memsys.address_space import AddressSpace, Mapping
from repro.memsys.permissions import Permissions
from repro.workloads.compiled import CompiledTrace, compile_arrays

__all__ = [
    "DeviceArray",
    "LANES",
    "TraceBuilder",
    "warp_chunks",
]

LANES = 32


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

    def addrs(self, indices: Iterable[int]) -> List[int]:
        """Virtual byte addresses for a gather over ``indices``.

        One vectorized gather over an int64 view of ``indices`` (an
        index array, list or ``range``); ``tolist()`` hands back plain
        Python ints.
        """
        if isinstance(indices, range):
            indices = np.arange(indices.start, indices.stop, indices.step)
        return (np.asarray(indices, dtype=np.int64) * self.element_size
                + self.mapping.base_va).tolist()


class TraceBuilder:
    """Records per-CU memory-instruction streams as flat arrays.

    Each CU keeps three flat lists — its lanes' addresses, each
    instruction's lane count, and each instruction's flag (bit0 =
    write, bit1 = scratchpad) — so recording builds no per-instruction
    object.  :meth:`build` compiles them into a
    :class:`~repro.workloads.compiled.CompiledTrace`, coalescing every
    instruction in one vectorized pass; the trace keeps the coalesced
    requests, not the lanes.
    """

    def __init__(self, n_cus: int = 16, lanes: int = LANES) -> None:
        if n_cus <= 0:
            raise ValueError("need at least one CU")
        self.n_cus = n_cus
        self.lanes = lanes
        self._lanes: List[List[int]] = [[] for _ in range(n_cus)]
        self._lane_counts: List[List[int]] = [[] for _ in range(n_cus)]
        self._flags: List[List[int]] = [[] for _ in range(n_cus)]

    def emit(self, cu: int, addresses: Iterable[int], is_write: bool = False) -> None:
        """Record one global-memory instruction on ``cu``."""
        cu %= self.n_cus
        lanes = self._lanes[cu]
        before = len(lanes)
        lanes.extend(addresses)
        if len(lanes) == before:
            raise ValueError("a memory instruction needs at least one lane address")
        self._lane_counts[cu].append(len(lanes) - before)
        self._flags[cu].append(1 if is_write else 0)

    def emit_scratch(self, cu: int, is_write: bool = False) -> None:
        """Record one scratchpad instruction (no TLB/cache traffic)."""
        cu %= self.n_cus
        self._lanes[cu].append(0)
        self._lane_counts[cu].append(1)
        self._flags[cu].append(3 if is_write else 2)

    def emit_scratch_burst(self, cu: int, count: int) -> None:
        """Record ``count`` scratchpad instructions (tile compute phases)."""
        cu %= self.n_cus
        self._lanes[cu].extend([0] * count)
        self._lane_counts[cu].extend([1] * count)
        self._flags[cu].extend([2] * count)

    def build(
        self,
        name: str,
        space: AddressSpace,
        issue_interval: float,
        **metadata,
    ) -> CompiledTrace:
        """Compile the recorded streams; CUs that recorded nothing are dropped."""
        cus = [cu for cu in range(self.n_cus) if self._lane_counts[cu]]
        if not cus:
            raise ValueError(f"workload {name!r} produced an empty trace")
        if issue_interval <= 0:
            raise ValueError("issue interval must be positive")
        cu_bounds = [0]
        for cu in cus:
            cu_bounds.append(cu_bounds[-1] + len(self._lane_counts[cu]))
        return compile_arrays(
            name, issue_interval, dict(metadata), space,
            np.concatenate([np.asarray(self._lanes[cu], dtype=np.int64)
                            for cu in cus]),
            np.concatenate([np.asarray(self._lane_counts[cu], dtype=np.int64)
                            for cu in cus]),
            np.concatenate([np.asarray(self._flags[cu], dtype=np.int8)
                            for cu in cus]),
            cu_bounds,
        )


def warp_chunks(
    n_items: int,
    n_cus: int,
    lanes: int = LANES,
    sample: int = 1,
) -> Iterator[Tuple[int, int, int]]:
    """Block-cyclic warp scheduling: yield ``(cu, start, count)`` chunks.

    Work item ranges of ``lanes`` elements are dealt to CUs round-robin.
    With ``sample > 1`` only every ``sample``-th warp is emitted (trace
    sampling; see the module docstring).
    """
    if n_items <= 0:
        return
    if sample <= 0:
        raise ValueError("sample must be positive")
    warp = 0
    emitted = 0
    for start in range(0, n_items, lanes):
        if warp % sample == 0:
            count = min(lanes, n_items - start)
            # Deal by *emitted* warp so sampling never starves CUs.
            yield emitted % n_cus, start, count
            emitted += 1
        warp += 1

