"""Tests for the top-level simulation driver."""

import pytest

from repro.memsys.address_space import AddressSpace
from repro.system.designs import BASELINE_512, IDEAL_MMU, VC_WITH_OPT
from repro.system.run import simulate

from tests.conftest import SCRATCH, compile_streams


@pytest.fixture
def space():
    return AddressSpace(asid=0)


def sequential_trace(space, n_pages=8, accesses=64, n_cus=2, interval=4.0):
    m = space.mmap(n_pages)
    per_cu = [
        [((m.base_va + ((cu * 7919 + i * 128) % m.size_bytes),), 0)
         for i in range(accesses)]
        for cu in range(n_cus)
    ]
    return compile_streams(space, per_cu, issue_interval=interval,
                           name="seq")


class TestSimulate:
    def test_all_requests_processed(self, small_config, space):
        trace = sequential_trace(space)
        h = IDEAL_MMU.build(small_config, {0: space.page_table})
        result = simulate(trace, h, small_config, design="IDEAL MMU")
        assert result.instructions == trace.n_instructions
        assert result.requests == 128
        assert result.cycles > 0

    def test_deterministic(self, small_config):
        results = []
        for _ in range(2):
            space = AddressSpace(asid=0)
            trace = sequential_trace(space)
            h = BASELINE_512.build(small_config, {0: space.page_table})
            results.append(simulate(trace, h, small_config).cycles)
        assert results[0] == results[1]

    def test_baseline_slower_than_ideal(self, small_config, space):
        trace = sequential_trace(space, n_pages=24, accesses=200)
        ideal = simulate(trace, IDEAL_MMU.build(small_config, {0: space.page_table}),
                         small_config)
        base = simulate(trace, BASELINE_512.build(small_config, {0: space.page_table}),
                        small_config)
        assert base.cycles > ideal.cycles
        assert base.relative_time(ideal) > 1.0
        assert base.speedup_over(ideal) < 1.0

    def test_scratchpad_instructions_do_not_touch_memory(self, small_config, space):
        space.mmap(1)
        trace = compile_streams(space, [[((0,), SCRATCH)] * 50],
                                name="scratch")
        h = BASELINE_512.build(small_config, {0: space.page_table})
        result = simulate(trace, h, small_config)
        assert result.requests == 0
        assert result.counters.get("tlb.accesses", 0) == 0
        assert result.cycles >= 49 * 4.0

    def test_issue_interval_paces_execution(self, small_config, space):
        fast = sequential_trace(space, interval=2.0)
        space2 = AddressSpace(asid=0)
        slow = sequential_trace(space2, interval=40.0)
        r_fast = simulate(fast, IDEAL_MMU.build(small_config, {0: space.page_table}),
                          small_config)
        r_slow = simulate(slow, IDEAL_MMU.build(small_config, {0: space2.page_table}),
                          small_config)
        assert r_slow.cycles > 2 * r_fast.cycles

    def test_max_instructions_per_cu(self, small_config, space):
        trace = sequential_trace(space, accesses=64)
        h = IDEAL_MMU.build(small_config, {0: space.page_table})
        result = simulate(trace, h, small_config, max_instructions_per_cu=10)
        assert result.instructions == 20  # 2 CUs × 10

    def test_counters_merged_from_components(self, small_config, space):
        trace = sequential_trace(space)
        h = BASELINE_512.build(small_config, {0: space.page_table})
        result = simulate(trace, h, small_config)
        assert "tlb.accesses" in result.counters
        assert "l1.hits" in result.counters
        assert "iommu.accesses" in result.counters
        assert result.iommu_rate is not None

    def test_divergent_instruction_issues_one_request_per_cycle(
            self, small_config, space):
        m = space.mmap(8)
        lanes = tuple(m.base_va + i * 4096 for i in range(8))
        trace = compile_streams(space, [[(lanes, 0)]])
        h = IDEAL_MMU.build(small_config, {0: space.page_table})
        result = simulate(trace, h, small_config)
        assert result.requests == 8
        # Eight requests at one per cycle: at least 7 cycles of issue.
        assert result.cycles >= 7.0

    @pytest.mark.parametrize("design", [IDEAL_MMU, BASELINE_512, VC_WITH_OPT],
                             ids=lambda d: d.name)
    def test_line_size_mismatch_is_a_clear_error(self, design):
        # Traces are coalesced at 128-byte lines; 64-byte caches would
        # derive every page number from a line address twice too small.
        import dataclasses

        from repro.system.config import SoCConfig
        from repro.workloads.registry import load

        trace = load("bfs", scale=0.05)
        base = SoCConfig()
        config = design.soc_config(dataclasses.replace(
            base, l1=dataclasses.replace(base.l1, line_size=64),
            l2=dataclasses.replace(base.l2, line_size=64)))
        hierarchy = design.build(config,
                                 {0: trace.address_space.page_table})
        with pytest.raises(ValueError, match="128-byte.*64-byte"):
            simulate(trace, hierarchy, config, design=design.name)


class TestSimulationResultMetrics:
    def test_tlb_miss_breakdown_fractions(self, small_config, space):
        trace = sequential_trace(space, n_pages=24, accesses=300)
        h = BASELINE_512.build(small_config, {0: space.page_table})
        result = simulate(trace, h, small_config)
        bd = result.tlb_miss_breakdown()
        assert bd["l1_hit"] + bd["l2_hit"] + bd["l2_miss"] == pytest.approx(1.0)

    def test_vc_filters_translations(self, small_config, space):
        # Page-level thrash (12 pages vs 8 TLB entries) with line-level
        # reuse (384 lines fit the 512-line L2): the regime where the
        # virtual hierarchy filters translations the TLB cannot.
        import random
        rng = random.Random(0)
        m = space.mmap(12)
        per_cu = [
            [((m.base_va + rng.randrange(384) * 128,), 0)
             for _ in range(1000)]
            for _cu in range(2)
        ]
        trace = compile_streams(space, per_cu, name="rand")
        from repro.system.designs import MMUDesign
        tiny_tlb_baseline = MMUDesign(name="Baseline tiny TLBs",
                                      per_cu_tlb_entries=4, iommu_entries=512)
        base = simulate(trace,
                        tiny_tlb_baseline.build(small_config, {0: space.page_table}),
                        small_config)
        vc = simulate(trace, VC_WITH_OPT.build(small_config, {0: space.page_table}),
                      small_config)
        assert vc.counters["iommu.accesses"] < base.counters["tlb.misses"]

    def test_relative_time_validation(self, small_config, space):
        trace = sequential_trace(space)
        h = IDEAL_MMU.build(small_config, {0: space.page_table})
        r = simulate(trace, h, small_config)
        zero = type(r)(workload="x", design="y", cycles=0.0, instructions=0,
                       requests=0, counters={})
        with pytest.raises(ValueError):
            r.relative_time(zero)

    def test_wall_clock_recorded(self, small_config, space):
        trace = sequential_trace(space)
        h = IDEAL_MMU.build(small_config, {0: space.page_table})
        r = simulate(trace, h, small_config)
        assert r.wall_clock_seconds > 0.0
        assert r.metrics is None  # no observability attached


class TestSimulationResultEdgeCases:
    """Derived metrics on degenerate results (empty/zero-cycle runs)."""

    @staticmethod
    def empty_result(cycles=0.0, counters=None):
        from repro.system.run import SimulationResult

        return SimulationResult(workload="empty", design="none", cycles=cycles,
                                instructions=0, requests=0,
                                counters=counters or {})

    def test_zero_cycles_rate_metrics_are_zero(self):
        r = self.empty_result()
        assert r.iommu_accesses_per_cycle() == 0.0

    def test_zero_cycles_speedup_raises(self):
        r = self.empty_result()
        nonzero = self.empty_result(cycles=10.0)
        with pytest.raises(ValueError):
            r.speedup_over(nonzero)
        with pytest.raises(ValueError):
            nonzero.relative_time(r)

    def test_zero_accesses_miss_ratio_is_zero(self):
        r = self.empty_result(cycles=100.0)
        assert r.per_cu_tlb_miss_ratio() == 0.0
        # Misses counted but zero accesses must not divide by zero.
        r2 = self.empty_result(cycles=100.0, counters={"tlb.misses": 5})
        assert r2.per_cu_tlb_miss_ratio() == 0.0

    def test_empty_breakdown_sums_to_zero(self):
        bd = self.empty_result(cycles=100.0).tlb_miss_breakdown()
        assert bd == {"l1_hit": 0.0, "l2_hit": 0.0, "l2_miss": 0.0}

    def test_breakdown_with_misses_but_no_classification(self):
        r = self.empty_result(cycles=1.0, counters={"tlb.misses": 4,
                                                    "tlb.miss_l2_miss": 4})
        bd = r.tlb_miss_breakdown()
        assert bd["l2_miss"] == 1.0
        assert bd["l1_hit"] == bd["l2_hit"] == 0.0

    def test_nonzero_cycles_zero_accesses(self):
        r = self.empty_result(cycles=42.0)
        assert r.iommu_accesses_per_cycle() == 0.0
        assert r.relative_time(self.empty_result(cycles=42.0)) == 1.0
