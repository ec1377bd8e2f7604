"""Tests for trace save/load round-tripping through the compiled store."""

import numpy as np
import pytest

from repro.system.designs import BASELINE_512
from repro.system.run import simulate
from repro.workloads.compiled import _ARRAY_FILES, TraceStore, compile_arrays
from repro.workloads.registry import load
from repro.workloads.synthetic import synonym_stress


def _round_trip(trace, tmp_path):
    store = TraceStore(tmp_path)
    assert store.store(trace, 0.05, None) is not None
    return store.load(trace.name, 0.05, None)


class TestRoundTrip:
    def test_workload_trace_roundtrip(self, tmp_path):
        original = load("pagerank", scale=0.05)
        reloaded = _round_trip(original, tmp_path)

        assert reloaded.name == original.name
        assert reloaded.n_instructions == original.n_instructions
        assert reloaded.issue_interval == original.issue_interval
        assert reloaded.metadata == original.metadata
        for stem, _dtype in _ARRAY_FILES:
            assert np.array_equal(getattr(original, f"_{stem}"),
                                  getattr(reloaded, f"_{stem}")), stem

    def test_address_space_replay_reproduces_translations(self, tmp_path):
        original = load("mis", scale=0.05)
        reloaded = _round_trip(original, tmp_path)
        lines = original.coalesced_per_cu()[0][:200]
        assert lines
        for line in lines:
            addr = line * original.line_size
            assert (original.address_space.translate(addr)
                    == reloaded.address_space.translate(addr))

    def test_synonym_mappings_survive(self, tmp_path):
        original = synonym_stress(n_pages=8, n_accesses=50, seed=9)
        reloaded = _round_trip(original, tmp_path)
        orig_space, new_space = original.address_space, reloaded.address_space
        a = orig_space.mappings[0].base_va
        b = orig_space.mappings[1].base_va
        assert new_space.translate(a) == new_space.translate(b)
        assert new_space.translate(a) == orig_space.translate(a)

    def test_simulation_results_identical(self, small_config, tmp_path):
        import dataclasses
        config = dataclasses.replace(small_config, n_cus=16)
        original = load("kmeans", scale=0.05)
        reloaded = _round_trip(original, tmp_path)
        r1 = simulate(original, BASELINE_512.build(
            config, {0: original.address_space.page_table}), config)
        r2 = simulate(reloaded, BASELINE_512.build(
            config, {0: reloaded.address_space.page_table}), config)
        assert r1.cycles == r2.cycles
        assert r1.counters == r2.counters

    def test_cu_count_mismatch_is_a_clear_error(self, small_config, tmp_path):
        trace = load("kmeans", scale=0.05)  # 16 CU streams
        with pytest.raises(ValueError, match="CU streams"):
            simulate(trace, BASELINE_512.build(
                small_config, {0: trace.address_space.page_table}),
                small_config)

    def test_scratchpad_flags_preserved(self, tmp_path):
        original = load("nw", scale=0.05)
        reloaded = _round_trip(original, tmp_path)
        assert original.scratchpad_fraction() > 0
        assert (reloaded.scratchpad_fraction()
                == pytest.approx(original.scratchpad_fraction()))

    def test_trace_without_space_rejected(self):
        with pytest.raises(ValueError, match="address space"):
            compile_arrays("x", 4.0, {}, None, [0], [1], [0], [0, 1])
