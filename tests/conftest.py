"""Shared fixtures: small SoC configurations and simple traces."""

from __future__ import annotations

import contextlib

import pytest

from repro.memsys.address_space import AddressSpace
from repro.memsys.cache import CacheConfig
from repro.memsys.iommu import IOMMUConfig
from repro.system.config import SoCConfig
from repro.workloads import registry
from repro.workloads.compiled import CompiledTrace, compile_arrays
from repro.workloads.device import TraceBuilder


@pytest.fixture
def small_config() -> SoCConfig:
    """A scaled-down SoC: 4 CUs, 4 KB L1s, 64 KB L2, tiny TLBs.

    Small enough that tests can exercise evictions and conflicts with a
    handful of accesses.
    """
    return SoCConfig(
        n_cus=4,
        l1=CacheConfig(size_bytes=4 * 1024, line_size=128, associativity=4,
                       write_back=False, write_allocate=False),
        l2=CacheConfig(size_bytes=64 * 1024, line_size=128, associativity=8,
                       n_banks=4, write_back=True, write_allocate=True),
        per_cu_tlb_entries=8,
        iommu=IOMMUConfig(shared_tlb_entries=32),
        fbt_entries=256,
        fbt_associativity=4,
        cu_window=16,
    )


@pytest.fixture
def address_space() -> AddressSpace:
    return AddressSpace(asid=0)


#: Instruction flag bits, as in the compiled arrays.
WRITE = 1
SCRATCH = 2


def compile_streams(
    space: AddressSpace,
    per_cu,
    issue_interval: float = 4.0,
    name: str = "test",
    metadata=None,
) -> CompiledTrace:
    """Compile per-CU instruction streams into a trace.

    ``per_cu`` holds one stream per CU; each instruction is a pair
    ``(lane_addresses, flags)`` with the :data:`WRITE` and
    :data:`SCRATCH` bits.  A CU stream may be empty.
    """
    lanes, lane_counts, flags, cu_bounds = [], [], [], [0]
    for stream in per_cu:
        for addresses, inst_flags in stream:
            lanes.extend(addresses)
            lane_counts.append(len(addresses))
            flags.append(inst_flags)
        cu_bounds.append(len(flags))
    return compile_arrays(name, issue_interval, dict(metadata or {}), space,
                          lanes, lane_counts, flags, cu_bounds)


def recorded_streams(builder: TraceBuilder):
    """A :class:`TraceBuilder`'s per-CU streams, flattened in CU order.

    Returns the lists ``(lanes, lane_counts, flags, cu_bounds)`` that
    ``build`` hands :func:`compile_arrays`.  CUs that recorded nothing
    are left out, as ``build`` leaves them out; the bounds are each kept
    CU's first instruction plus the total.
    """
    cus = [cu for cu in range(builder.n_cus) if builder._lane_counts[cu]]
    bounds = [0]
    for cu in cus:
        bounds.append(bounds[-1] + len(builder._lane_counts[cu]))
    return ([a for cu in cus for a in builder._lanes[cu]],
            [n for cu in cus for n in builder._lane_counts[cu]],
            [f for cu in cus for f in builder._flags[cu]],
            bounds)


@contextlib.contextmanager
def recording_builds():
    """Capture every ``TraceBuilder.build`` call made inside the block.

    Yields a list that receives each builder's :func:`recorded_streams`,
    in build order, before it compiles: a trace keeps no lane
    addresses, so the streams are the only record of them.
    """
    recorded = []
    build = TraceBuilder.build

    def recording_build(builder, *args, **kwargs):
        recorded.append(recorded_streams(builder))
        return build(builder, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TraceBuilder, "build", recording_build)
        yield recorded


def load_recorded(name: str, scale: float):
    """``registry.load_fresh(name, scale)`` plus its builder's streams."""
    with recording_builds() as recorded:
        trace = registry.load_fresh(name, scale=scale)
    assert len(recorded) == 1, name
    return trace, recorded[0]
