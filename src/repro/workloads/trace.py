"""Memory-trace containers.

A workload is a per-CU sequence of *memory instructions*.  Each
instruction carries the virtual byte addresses its active SIMD lanes
generated — up to 32 (Table 1: 32 lanes per CU).  The coalescer merges
lane addresses into line requests; an instruction touching many lines is
*memory divergent* (scatter/gather), the property that makes graph
workloads so hard on GPU TLBs (§3.1: ``fw`` averages 9.3 memory accesses
per dynamic memory instruction).

Scratchpad instructions never consult the TLB or the caches (§2.1); they
matter because workloads like ``nw`` and ``pathfinder`` do most of their
work in scratchpad and only burst into memory at kernel boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import DEFAULT_LINE_SIZE, line_address, page_number


__all__ = [
    "MemoryInstruction",
    "Trace",
    "TraceValidationError",
    "validate_trace",
]

class TraceValidationError(ValueError):
    """A trace (usually deserialized) is structurally invalid."""


def validate_trace(trace: "Trace") -> "Trace":
    """Check a trace for structural sanity; returns it for chaining.

    Traces built by the in-tree generators are valid by construction,
    but deserialized ones come from a file that may be truncated,
    corrupted, or written by foreign tooling.  Raises
    :class:`TraceValidationError` on the first problem: an empty trace
    (zero instructions), or a lane address that is not a nonnegative
    integer.

    Array-backed traces (anything exposing a ``validate_fast`` method,
    e.g. :class:`~repro.workloads.compiled.CompiledTrace`) validate via
    one vectorized pass over their arrays instead of the per-lane loop.
    """
    fast = getattr(trace, "validate_fast", None)
    if fast is not None:
        fast()
        return trace
    if trace.n_instructions == 0:
        raise TraceValidationError(
            f"trace {trace.name!r} is empty (zero instructions)")
    for cu_id, stream in enumerate(trace.per_cu):
        for i, inst in enumerate(stream):
            for addr in inst.addresses:
                if not isinstance(addr, int) or isinstance(addr, bool):
                    raise TraceValidationError(
                        f"trace {trace.name!r}: CU {cu_id} instruction {i} "
                        f"has non-integer lane address {addr!r}")
                if addr < 0:
                    raise TraceValidationError(
                        f"trace {trace.name!r}: CU {cu_id} instruction {i} "
                        f"has negative lane address {addr}")
    return trace


@dataclass(frozen=True)
class MemoryInstruction:
    """One dynamic GPU load/store with its per-lane addresses."""

    addresses: Tuple[int, ...]
    is_write: bool = False
    scratchpad: bool = False

    def __post_init__(self) -> None:
        if not self.addresses:
            raise ValueError("a memory instruction needs at least one lane address")

    @property
    def n_lanes(self) -> int:
        return len(self.addresses)

    def lines(self, line_size: int = DEFAULT_LINE_SIZE) -> Tuple[int, ...]:
        """Distinct line addresses touched, in first-appearance order."""
        seen = {}
        for addr in self.addresses:
            seen.setdefault(line_address(addr, line_size), None)
        return tuple(seen)

    def pages(self) -> Tuple[int, ...]:
        """Distinct virtual pages touched, in first-appearance order."""
        seen = {}
        for addr in self.addresses:
            seen.setdefault(page_number(addr), None)
        return tuple(seen)


@dataclass
class Trace:
    """A full workload trace: one instruction stream per compute unit."""

    name: str
    per_cu: List[List[MemoryInstruction]]
    address_space: Optional[AddressSpace] = None
    # Mean compute cycles between memory instructions on one CU.  This is
    # the workload's arithmetic intensity knob: it sets how fast a CU
    # *wants* to issue memory instructions when nothing stalls it.
    issue_interval: float = 4.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.per_cu:
            raise ValueError("trace needs at least one CU stream")
        if self.issue_interval <= 0:
            raise ValueError("issue interval must be positive")

    @property
    def n_cus(self) -> int:
        return len(self.per_cu)

    @property
    def n_instructions(self) -> int:
        return sum(len(stream) for stream in self.per_cu)

    def all_instructions(self) -> Iterable[MemoryInstruction]:
        """Every instruction, CU by CU (order within a CU preserved)."""
        for stream in self.per_cu:
            yield from stream

    # -- summary statistics ------------------------------------------------
    def global_memory_instructions(self) -> int:
        return sum(
            1 for inst in self.all_instructions() if not inst.scratchpad
        )

    def scratchpad_fraction(self) -> float:
        """Fraction of instructions that hit only the scratchpad."""
        total = self.n_instructions
        if total == 0:
            return 0.0
        scratch = sum(1 for inst in self.all_instructions() if inst.scratchpad)
        return scratch / total

    def mean_divergence(self, line_size: int = DEFAULT_LINE_SIZE) -> float:
        """Average coalesced line requests per global-memory instruction."""
        total_lines = 0
        total_insts = 0
        for inst in self.all_instructions():
            if inst.scratchpad:
                continue
            total_lines += len(inst.lines(line_size))
            total_insts += 1
        return total_lines / total_insts if total_insts else 0.0

    def footprint_pages(self) -> int:
        """Distinct 4 KB virtual pages referenced by the trace."""
        pages = set()
        for inst in self.all_instructions():
            if inst.scratchpad:
                continue
            for addr in inst.addresses:
                pages.add(page_number(addr))
        return len(pages)

    def truncated(self, max_instructions_per_cu: int) -> "Trace":
        """A copy limited to the first N instructions per CU (for tests)."""
        return Trace(
            name=self.name,
            per_cu=[stream[:max_instructions_per_cu] for stream in self.per_cu],
            address_space=self.address_space,
            issue_interval=self.issue_interval,
            metadata=dict(self.metadata),
        )

