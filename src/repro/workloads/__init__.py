"""Workload trace generators (Rodinia-like and Pannotia-like kernels)."""

from repro.workloads.trace import MemoryInstruction, Trace

__all__ = ["MemoryInstruction", "Trace"]

from repro.workloads.registry import (  # noqa: E402
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    WORKLOADS,
    load,
)
from repro.workloads.synthetic import (  # noqa: E402
    gather_kernel,
    multiprocess_homonyms,
    synonym_stress,
)

__all__ += [
    "HIGH_BANDWIDTH", "LOW_BANDWIDTH", "WORKLOADS", "load",
    "gather_kernel", "multiprocess_homonyms", "synonym_stress",
]
