"""Workload trace generators (Rodinia-like and Pannotia-like kernels)."""

from repro.workloads.registry import (
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    WORKLOADS,
    load,
)
from repro.workloads.synthetic import (
    gather_kernel,
    multiprocess_homonyms,
    synonym_stress,
)

__all__ = [
    "HIGH_BANDWIDTH", "LOW_BANDWIDTH", "WORKLOADS", "load",
    "gather_kernel", "multiprocess_homonyms", "synonym_stress",
]
