"""Synthetic stress workloads for virtual-memory corner cases.

The 15 paper workloads have (almost) no synonyms — that is Observation 5
and part of why GPU virtual caching is practical.  These generators
build the *unusual* situations: synonym-heavy sharing (the future
multi-process scenario §4.3 anticipates), homonym-heavy multi-process
time-sharing, and plain tunable gather kernels for calibration work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.memsys.address_space import AddressSpace, System
from repro.memsys.permissions import Permissions
from repro.workloads.device import DeviceArray, TraceBuilder
from repro.workloads.compiled import CompiledTrace

__all__ = [
    "LANES",
    "MultiProcessWorkload",
    "N_CUS",
    "gather_kernel",
    "multiprocess_homonyms",
    "synonym_stress",
]

N_CUS = 16
LANES = 32


def synonym_stress(
    n_pages: int = 256,
    n_aliases: int = 3,
    n_accesses: int = 12_000,
    synonym_fraction: float = 0.5,
    zipf_exponent: float = 1.0,
    scatter_hot_lines: bool = False,
    n_cus: int = N_CUS,
    seed: int = 0,
) -> CompiledTrace:
    """Read-only data shared through several virtual aliases.

    A fraction of accesses go through non-leading aliases — the access
    pattern where dynamic synonym remapping pays off.  All aliases map
    the same physical region read-only, so no read-write synonym faults
    occur.
    """
    if not 0.0 <= synonym_fraction <= 1.0:
        raise ValueError("synonym fraction must be within [0, 1]")
    if n_aliases < 2:
        raise ValueError("need at least two aliases for synonyms to exist")
    rng = np.random.default_rng(seed)
    space = AddressSpace(asid=0)
    region = space.mmap(n_pages, permissions=Permissions.READ_ONLY)
    aliases = [region] + [space.map_synonym(region) for _ in range(n_aliases - 1)]

    # Zipf-popular lines within the region.  By default the hot lines
    # cluster into a small set of hot *pages* (the "active synonym"
    # regime a per-CU remapping table exploits); with
    # ``scatter_hot_lines`` they are spread across all pages instead.
    n_lines = n_pages * 32
    ranks = np.arange(1, n_lines + 1, dtype=np.float64) ** (-zipf_exponent)
    cdf = np.cumsum(ranks / ranks.sum())
    perm = rng.permutation(n_lines) if scatter_hot_lines \
        else np.arange(n_lines)

    tb = TraceBuilder(n_cus=n_cus)
    for i in range(n_accesses):
        cu = i % n_cus
        lines = perm[np.searchsorted(cdf, rng.random(8))]
        use_alias = rng.random() < synonym_fraction
        base = aliases[1 + int(rng.integers(0, n_aliases - 1))] if use_alias \
            else aliases[0]
        tb.emit(cu, [base.base_va + int(line) * 128 for line in lines])
    return tb.build("synonym_stress", space, issue_interval=20.0,
                    suite="synthetic", high_bandwidth=True,
                    n_aliases=n_aliases, synonym_fraction=synonym_fraction,
                    scatter_hot_lines=scatter_hot_lines)


@dataclass
class MultiProcessWorkload:
    """Two processes time-sharing the GPU (homonym stress).

    Both address spaces use the *same* virtual address range (homonyms)
    over private physical data, plus one region physically shared
    between them (cross-ASID synonyms).  ``traces`` holds one trace per
    process; run them against one hierarchy with the matching ``asid``
    to model context switches.
    """

    system: System
    spaces: List[AddressSpace]
    traces: List[CompiledTrace]
    shared_base_vas: Tuple[int, int]


def multiprocess_homonyms(
    n_private_pages: int = 128,
    n_shared_pages: int = 32,
    n_accesses: int = 4_000,
    n_cus: int = N_CUS,
    seed: int = 1,
) -> MultiProcessWorkload:
    """Build the two-process homonym/synonym scenario of §4.3."""
    rng = np.random.default_rng(seed)
    system = System()
    space_a = system.create_address_space(asid=0)
    space_b = system.create_address_space(asid=1)

    # Same base VA in both spaces → identical VPNs, different PPNs.
    private_a = space_a.mmap(n_private_pages)
    private_b = space_b.mmap(n_private_pages)
    assert private_a.base_va == private_b.base_va  # true homonyms

    shared_a = space_a.mmap(n_shared_pages, permissions=Permissions.READ_ONLY)
    shared_b = space_a.share_into(space_b, shared_a)

    traces = []
    for space, private, shared in ((space_a, private_a, shared_a),
                                   (space_b, private_b, shared_b)):
        tb = TraceBuilder(n_cus=n_cus)
        for i in range(n_accesses):
            cu = i % n_cus
            if rng.random() < 0.25:
                page = int(rng.integers(0, n_shared_pages))
                base = shared.base_va
            else:
                page = int(rng.integers(0, n_private_pages))
                base = private.base_va
            offsets = rng.integers(0, 32, size=4)
            tb.emit(cu, [base + page * 4096 + int(o) * 128 for o in offsets])
        traces.append(tb.build(f"process_{space.asid}", space,
                               issue_interval=20.0, suite="synthetic",
                               high_bandwidth=False))
    return MultiProcessWorkload(
        system=system,
        spaces=[space_a, space_b],
        traces=traces,
        shared_base_vas=(shared_a.base_va, shared_b.base_va),
    )


def gather_kernel(
    n_pages: int = 512,
    n_instructions: int = 8_000,
    lanes: int = LANES,
    zipf_exponent: float = 1.1,
    issue_interval: float = 30.0,
    n_cus: int = N_CUS,
    seed: int = 2,
) -> CompiledTrace:
    """A bare Zipf gather — the minimal high-translation-bandwidth kernel.

    Useful for calibration studies and microbenchmarks: one knob for
    footprint, one for skew, one for arithmetic intensity.
    """
    rng = np.random.default_rng(seed)
    space = AddressSpace(asid=0)
    data = DeviceArray(space, n_pages * 1024, 4, "data")
    n_elements = n_pages * 1024
    ranks = np.arange(1, n_elements + 1, dtype=np.float64) ** (-zipf_exponent)
    cdf = np.cumsum(ranks / ranks.sum())
    perm = rng.permutation(n_elements)

    tb = TraceBuilder(n_cus=n_cus)
    for i in range(n_instructions):
        cu = i % n_cus
        idx = perm[np.searchsorted(cdf, rng.random(lanes))]
        tb.emit(cu, data.addrs(idx))
    return tb.build("gather_kernel", space, issue_interval=issue_interval,
                    suite="synthetic", high_bandwidth=True)
