"""Tests for trace save/load round-tripping through the compiled store."""

import pytest

from repro.system.designs import BASELINE_512
from repro.system.run import simulate
from repro.workloads.compiled import TraceStore, compile_trace
from repro.workloads.registry import load
from repro.workloads.synthetic import synonym_stress
from repro.workloads.trace import MemoryInstruction, Trace


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
        for a, b in zip(original.all_instructions(), reloaded.all_instructions()):
            assert a.addresses == b.addresses
            assert a.is_write == b.is_write
            assert a.scratchpad == b.scratchpad

    def test_address_space_replay_reproduces_translations(self, tmp_path):
        original = load("mis", scale=0.05)
        reloaded = _round_trip(original, tmp_path)
        checked = 0
        for inst in original.all_instructions():
            if inst.scratchpad:
                continue
            for addr in inst.addresses[:2]:
                assert (original.address_space.translate(addr)
                        == reloaded.address_space.translate(addr))
                checked += 1
            if checked > 100:
                break
        assert checked > 0

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

    def test_trace_without_space_rejected(self, tmp_path):
        trace = Trace(name="x",
                      per_cu=[[MemoryInstruction(addresses=(0,))]],
                      issue_interval=4.0)
        with pytest.raises(ValueError):
            compile_trace(trace)
        assert TraceStore(tmp_path).store(trace, 0.05, None) is None
