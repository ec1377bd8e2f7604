"""Tests for the synthetic stress-workload generators."""

import pytest

from repro.core.virtual_hierarchy import VirtualCacheHierarchy
from repro.system.run import simulate
from repro.workloads.synthetic import (
    gather_kernel,
    multiprocess_homonyms,
    synonym_stress,
)

from tests.conftest import recording_builds


class TestSynonymStress:
    def test_generates_aliased_accesses(self):
        trace = synonym_stress(n_pages=16, n_accesses=400, seed=3)
        assert trace.n_instructions == 400
        assert trace.metadata["n_aliases"] == 3
        # The footprint spans the aliases (several views of 16 pages).
        assert trace.footprint_pages() > 16

    def test_synonym_fraction_zero_uses_only_leading(self):
        with recording_builds() as recorded:
            synonym_stress(n_pages=8, n_accesses=200,
                           synonym_fraction=0.0, seed=4)
        lanes = recorded[0][0]
        assert lanes
        region_pages = {a // 4096 for a in lanes}
        assert len(region_pages) <= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            synonym_stress(synonym_fraction=1.5)
        with pytest.raises(ValueError):
            synonym_stress(n_aliases=1)

    def test_runs_on_vc_hierarchy_and_replays(self, small_config):
        trace = synonym_stress(n_pages=16, n_accesses=600, n_cus=4, seed=5)
        h = VirtualCacheHierarchy(small_config,
                                  {0: trace.address_space.page_table})
        result = simulate(trace, h, small_config, design="vc")
        assert result.counters.get("vc.synonym_replays", 0) > 0
        # No duplication: whichever alias won the leading role per page
        # (first touch), each physical line is cached at most once.
        space = trace.address_space
        physical_lines = [
            space.translate(line.line_addr * 128) // 128
            for line in h.l2.resident_lines()
        ]
        assert len(physical_lines) == len(set(physical_lines))

    def test_srt_reduces_replays(self, small_config):
        trace = synonym_stress(n_pages=16, n_accesses=600, n_cus=4, seed=5)
        pts = {0: trace.address_space.page_table}
        without = simulate(trace, VirtualCacheHierarchy(small_config, pts),
                           small_config)
        trace2 = synonym_stress(n_pages=16, n_accesses=600, n_cus=4, seed=5)
        pts2 = {0: trace2.address_space.page_table}
        with_srt = simulate(
            trace2,
            VirtualCacheHierarchy(small_config, pts2,
                                  enable_synonym_remapping=True),
            small_config)
        assert (with_srt.counters.get("vc.synonym_replays", 0)
                < without.counters.get("vc.synonym_replays", 0))


class TestMultiprocessHomonyms:
    def test_construction(self):
        wl = multiprocess_homonyms(n_private_pages=16, n_shared_pages=4,
                                   n_accesses=200)
        assert len(wl.traces) == 2
        assert wl.spaces[0].asid == 0 and wl.spaces[1].asid == 1
        # True homonyms: the same VA translates differently per space.
        va = wl.spaces[0].mappings[0].base_va
        assert wl.spaces[0].translate(va) != wl.spaces[1].translate(va)

    def test_shared_region_is_cross_asid_synonym(self):
        wl = multiprocess_homonyms(n_private_pages=16, n_shared_pages=4,
                                   n_accesses=100)
        a, b = wl.shared_base_vas
        assert wl.spaces[0].translate(a) == wl.spaces[1].translate(b)

    def test_time_sharing_needs_no_flush(self, small_config):
        wl = multiprocess_homonyms(n_private_pages=16, n_shared_pages=4,
                                   n_accesses=400, n_cus=4)
        tables = {s.asid: s.page_table for s in wl.spaces}
        h = VirtualCacheHierarchy(small_config, tables,
                                  fault_on_rw_synonym=False)
        r0 = simulate(wl.traces[0], h, small_config, asid=0)
        lines_after_a = len(h.l2)
        r1 = simulate(wl.traces[1], h, small_config, asid=1)
        # ASID-tagged lines: process B ran with A's lines still resident
        # and nothing was flushed on the context switch (§4.3, homonyms).
        assert lines_after_a > 0
        assert r1.counters["vc.accesses"] > 0
        assert h.counters.as_dict().get("vc.l1_flushes", 0) == 0


class TestGatherKernel:
    def test_shape(self):
        trace = gather_kernel(n_pages=32, n_instructions=200, seed=6)
        assert trace.n_instructions == 200
        assert trace.mean_divergence() > 10
        assert trace.footprint_pages() <= 32

    def test_skew_affects_locality(self, small_config):
        from repro.system.designs import BASELINE_512
        hot = gather_kernel(n_pages=64, n_instructions=800, n_cus=4,
                            zipf_exponent=1.5, seed=7)
        cold = gather_kernel(n_pages=64, n_instructions=800, n_cus=4,
                             zipf_exponent=0.01, seed=7)
        r_hot = simulate(hot, BASELINE_512.build(
            small_config, {0: hot.address_space.page_table}), small_config)
        r_cold = simulate(cold, BASELINE_512.build(
            small_config, {0: cold.address_space.page_table}), small_config)
        hot_hits = r_hot.counters["l1.hits"] + r_hot.counters["l2.hits"]
        cold_hits = r_cold.counters["l1.hits"] + r_cold.counters["l2.hits"]
        assert hot_hits > cold_hits
