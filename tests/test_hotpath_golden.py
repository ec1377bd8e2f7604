"""Golden hot-path equivalence test.

Pins the exact simulation outputs — ``cycles``, ``instructions``,
``requests``, and *every* counter — of one small workload run through
all three hierarchy kinds (physical baseline, full virtual cache,
L1-only virtual cache) plus the IDEAL MMU, against a frozen snapshot
committed in ``tests/golden_hotpath.json``.

The snapshot was recorded *before* the PR 3 hot-path optimizations
(``__slots__`` record types, flattened cache indexing, deferred counter
flushing, trace-level coalescing cache), so this test proves those
optimizations are bit-identical: any drift in timing or accounting — a
reordered float addition, a dropped counter, a changed LRU decision —
fails loudly here.

Every design runs three ways against the same snapshot: with no
observability bundle (the compiled access path; L1-only VC has only
its method path), with a metrics-only ``Observability()`` and with a
recording tracer (both the method path).  Observing a run must not
change what it simulates.

Regenerate (only when an *intentional* model change shifts results)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_hotpath_golden.py
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import pytest

from repro.obs import Observability, RecordingTracer
from repro.system.config import SoCConfig
from repro.system.designs import (
    BASELINE_512,
    IDEAL_MMU,
    L1_ONLY_VC_32,
    VC_WITH_OPT,
)
from repro.system.run import simulate
from repro.workloads import registry

GOLDEN_PATH = Path(__file__).parent / "golden_hotpath.json"

WORKLOAD = "bfs"
SCALE = 0.05
DESIGNS = (IDEAL_MMU, BASELINE_512, VC_WITH_OPT, L1_ONLY_VC_32)


#: One bundle factory per way of running a design.
BUNDLES = {
    "none": lambda: None,
    "metrics": Observability,
    "traced": lambda: Observability(tracer=RecordingTracer()),
}


def _run_design(design, obs):
    trace = registry.load(WORKLOAD, scale=SCALE)
    config = SoCConfig()
    page_tables = {0: trace.address_space.page_table}
    hierarchy = design.build(config, page_tables, obs=obs)
    result = simulate(trace, hierarchy, design.soc_config(config),
                      design=design.name, obs=obs)
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "requests": result.requests,
        "counters": result.counters,
    }


@functools.lru_cache(maxsize=None)
def _snapshot(mode):
    return {design.name: _run_design(design, BUNDLES[mode]())
            for design in DESIGNS}


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(_snapshot("none"), indent=2, sort_keys=True) + "\n")
    assert GOLDEN_PATH.exists(), (
        "golden snapshot missing — run with REPRO_REGEN_GOLDEN=1 to record it"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("design", [d.name for d in DESIGNS])
class TestGoldenEquivalence:
    """No bundle: the compiled path (the method path for L1-only VC)."""

    obs_mode = "none"

    def test_cycles_exact(self, golden, design):
        current = _snapshot(self.obs_mode)
        assert current[design]["cycles"] == golden[design]["cycles"]

    def test_instruction_and_request_totals(self, golden, design):
        current = _snapshot(self.obs_mode)
        assert current[design]["instructions"] == golden[design]["instructions"]
        assert current[design]["requests"] == golden[design]["requests"]

    def test_every_counter_exact(self, golden, design):
        current = _snapshot(self.obs_mode)
        assert current[design]["counters"] == golden[design]["counters"]


class TestGoldenEquivalenceMetrics(TestGoldenEquivalence):
    """A metrics-only bundle: the method path."""

    obs_mode = "metrics"


class TestGoldenEquivalenceTraced(TestGoldenEquivalence):
    """A recording tracer: the method path, emitting every event."""

    obs_mode = "traced"
