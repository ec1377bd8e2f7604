"""Compiled binary traces: vectorized coalescing, the on-disk store,
registry integration, and replay bit-identity.

The load-bearing guarantee is the golden test: a trace that went
through compile → save → mmap-load → simulate produces *bit-identical*
results (every counter and every float cycle count) to a freshly
generated one.  Anything less would silently skew every figure.
"""

import json
import random

import numpy as np
import pytest

from repro.gpu.coalescer import CoalescedRequest, Coalescer, coalesce_arrays
from repro.memsys.address_space import AddressSpace
from repro.memsys.permissions import Permissions
from repro.memsys.tlb import TLB
from repro.system.config import SoCConfig
from repro.obs import Observability
from repro.robustness.fault_plan import FaultInjector, FaultPlan
from repro.system.designs import (
    BASELINE_512,
    IDEAL_MMU,
    L1_ONLY_VC_32,
    VC_WITH_OPT,
)
from repro.system.run import simulate
from repro.workloads import compiled as compiled_module
from repro.workloads import registry
from repro.workloads.compiled import (
    _ARRAY_FILES,
    CompiledTrace,
    TraceStore,
    load_compiled,
    store_key,
)
from repro.workloads.device import TraceBuilder

from tests.conftest import (
    SCRATCH,
    WRITE,
    compile_streams,
    load_recorded,
    recorded_streams,
)


@pytest.fixture(autouse=True)
def _isolate_registry(monkeypatch):
    """Each test gets a private registry memo and no ambient store."""
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    monkeypatch.setattr(registry, "_cache", {})
    monkeypatch.setattr(registry, "_trace_store", None)
    monkeypatch.setattr(registry, "_trace_store_pinned", False)
    yield


def _small_trace():
    return registry.load_fresh("bfs", scale=0.05)


def _requests_equal(a, b):
    """Two ``coalesced_per_cu()`` results hold the same four lists."""
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert x == y


class TestCoalesceArrays:
    def test_matches_coalescer_on_random_instructions(self):
        rng = random.Random(11)
        insts = [[rng.randrange(0, 1 << 20)
                  for _ in range(rng.randint(1, 32))] for _ in range(300)]
        lanes = [a for inst in insts for a in inst]
        counts = [len(inst) for inst in insts]
        for line_size in (32, 64, 128):
            coalescer = Coalescer(line_size=line_size)
            reference = [coalescer.coalesce(inst) for inst in insts]
            req_line, per_inst = coalesce_arrays(lanes, counts, line_size)
            pos = 0
            for i, reqs in enumerate(reference):
                assert per_inst[i] == len(reqs)
                for r in reqs:
                    assert req_line[pos] == r.line_addr
                    pos += 1
            assert pos == len(req_line)

    def test_first_appearance_order_preserved(self):
        # Lanes revisit line 0 after line 5: request order must be 5, 0.
        req_line, per_inst = coalesce_arrays(
            [5 * 64, 0, 5 * 64 + 4, 8], [4], 64)
        assert list(req_line) == [5, 0]
        assert list(per_inst) == [2]

    def test_empty_and_mismatched_inputs(self):
        req_line, per_inst = coalesce_arrays([], [], 64)
        assert len(req_line) == 0
        with pytest.raises(ValueError):
            coalesce_arrays([1, 2, 3], [2], 64)
        with pytest.raises(ValueError):
            coalesce_arrays([1], [1], 0)


def _reference_requests(compiled, recorded):
    """The dict :class:`Coalescer` run over every instruction's lanes.

    Returns the four lists of :meth:`CompiledTrace.coalesced_per_cu`:
    request lines, each instruction's end in them, its flags, and the
    per-CU instruction bounds.  ``recorded`` is ``(lanes, lane_counts,
    flags, cu_bounds)`` as a builder recorded them (see
    :func:`tests.conftest.recorded_streams`).
    """
    lanes, lane_counts, flags, cu_bounds = recorded
    coalesce = Coalescer(compiled.line_size).coalesce
    lines, inst_end, pos = [], [], 0
    for n_lanes, flag in zip(lane_counts, flags):
        addresses = lanes[pos:pos + n_lanes]
        pos += n_lanes
        if not flag & SCRATCH:
            is_write = bool(flag & WRITE)
            requests = coalesce(addresses, is_write)
            assert all(r.is_write == is_write for r in requests)
            lines.extend(r.line_addr for r in requests)
        inst_end.append(len(lines))
    return lines, inst_end, list(flags), list(cu_bounds)


def _request_counts(inst_end):
    return [end - start for start, end in zip([0] + inst_end, inst_end)]


def _assert_same_compilation(a, b):
    for stem, _dtype in _ARRAY_FILES:
        x, y = getattr(a, f"_{stem}"), getattr(b, f"_{stem}")
        assert x.dtype == y.dtype, stem
        assert np.array_equal(x, y), stem
    assert (a.name, a.issue_interval, a.metadata, a.line_size) == (
        b.name, b.issue_interval, b.metadata, b.line_size)
    assert a.address_space is b.address_space


class TestCompiledTrace:
    def test_coalesced_lists_identical_to_fresh(self):
        # The reference comes from what each generator handed its
        # builder, captured before compiling, so a flag or bound that
        # compilation gets wrong cannot also be the expected value.
        assert len(registry.WORKLOADS) == 15
        for name in sorted(registry.WORKLOADS):
            compiled, recorded = load_recorded(name, 0.05)
            compiled.validate_fast()
            lines, inst_end, flags, bounds = compiled.coalesced_per_cu()
            ref_lines, ref_end, ref_flags, ref_bounds = (
                _reference_requests(compiled, recorded))
            assert lines == ref_lines, name
            assert _request_counts(inst_end) == _request_counts(ref_end), name
            assert [f & 1 for f in flags] == [f & 1 for f in ref_flags], name
            assert [f & 2 for f in flags] == [f & 2 for f in ref_flags], name
            assert bounds == ref_bounds, name

    def test_simulate_surface(self):
        compiled, (_lanes, lane_counts, _flags, _bounds) = load_recorded(
            "bfs", 0.05)
        assert compiled.n_cus == len(compiled._cu_bounds) - 1 == 16
        assert compiled.n_instructions == len(lane_counts) > 0
        assert compiled.issue_interval > 0
        assert compiled.name == "bfs"
        assert compiled.address_space is not None
        assert not hasattr(compiled, "per_cu")

    def test_builder_matches_hand_built_trace(self):
        space = AddressSpace(asid=0)
        tb = TraceBuilder(n_cus=4)
        tb.emit(0, [0, 64, 4, 8192])
        tb.emit(6, [4096, 4100], is_write=True)   # CU 6 wraps to CU 2
        tb.emit_scratch_burst(2, 3)
        tb.emit_scratch(0, is_write=True)
        tb.emit(4, [128, 0, 132])                 # CU 4 wraps to CU 0
        recorded = recorded_streams(tb)
        # CUs 1 and 3 recorded nothing and are dropped.
        assert recorded == ([0, 64, 4, 8192, 0, 128, 0, 132,
                             4096, 4100, 0, 0, 0],
                            [4, 1, 3, 2, 1, 1, 1],
                            [0, WRITE | SCRATCH, 0, WRITE, SCRATCH, SCRATCH,
                             SCRATCH],
                            [0, 3, 7])
        built = tb.build("mix", space, issue_interval=3.0, suite="test")
        scratch = ((0,), SCRATCH)
        hand = compile_streams(
            space,
            [[((0, 64, 4, 8192), 0), ((0,), WRITE | SCRATCH),
              ((128, 0, 132), 0)],
             [((4096, 4100), WRITE), scratch, scratch, scratch]],
            issue_interval=3.0, name="mix", metadata={"suite": "test"})
        assert isinstance(built, CompiledTrace)
        _assert_same_compilation(built, hand)
        _requests_equal(_reference_requests(built, recorded),
                        built.coalesced_per_cu())


class TestStoreRoundTrip:
    def test_bit_identical_simulation(self, tmp_path):
        """The golden guarantee: mmap-loaded replay == fresh generation."""
        fresh = _small_trace()
        store = TraceStore(tmp_path)
        assert store.store(fresh, 0.05, None) is not None
        for design in (IDEAL_MMU, BASELINE_512, VC_WITH_OPT):
            a = registry.load_fresh("bfs", scale=0.05)
            b = store.load("bfs", 0.05, None)
            results = []
            for trace in (a, b):
                config = design.soc_config(SoCConfig())
                hierarchy = design.build(
                    config, {0: trace.address_space.page_table})
                results.append(simulate(trace, hierarchy, config,
                                        design=design.name))
            # repr covers every counter and exact float cycle count.
            assert repr(results[0]) == repr(results[1])

    def test_round_trip_preserves_metadata_and_layout(self, tmp_path):
        fresh = _small_trace()
        store = TraceStore(tmp_path)
        store.store(fresh, 0.05, None)
        loaded = store.load("bfs", 0.05, None)
        assert loaded.issue_interval == fresh.issue_interval
        assert loaded.metadata == fresh.metadata
        assert len(loaded.address_space.mappings) == len(
            fresh.address_space.mappings)
        for m1, m2 in zip(fresh.address_space.mappings,
                          loaded.address_space.mappings):
            assert (m1.base_va, m1.n_pages) == (m2.base_va, m2.n_pages)
            assert fresh.address_space.translate(m1.base_va) == \
                loaded.address_space.translate(m2.base_va)
        _requests_equal(fresh.coalesced_per_cu(), loaded.coalesced_per_cu())

    def test_missing_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.load("bfs", 0.05, None) is None
        assert store.misses == 1 and store.hits == 0

    def test_corrupt_meta_falls_back_and_repairs(self, tmp_path):
        fresh = _small_trace()
        store = TraceStore(tmp_path)
        path = store.store(fresh, 0.05, None)
        (path / "meta.json").write_text("{ not json")
        assert store.load("bfs", 0.05, None) is None
        assert not path.exists()  # quarantined: removed for regeneration
        # The next store repairs the cache.
        assert store.store(fresh, 0.05, None) is not None
        assert store.load("bfs", 0.05, None) is not None

    def test_truncated_array_falls_back(self, tmp_path):
        fresh = _small_trace()
        store = TraceStore(tmp_path)
        path = store.store(fresh, 0.05, None)
        req_line = path / "req_line.npy"
        req_line.write_bytes(req_line.read_bytes()[:64])
        assert load_compiled(path) is None
        assert not path.exists()

    def test_count_mismatch_falls_back(self, tmp_path):
        fresh = _small_trace()
        store = TraceStore(tmp_path)
        path = store.store(fresh, 0.05, None)
        meta = json.loads((path / "meta.json").read_text())
        meta["counts"]["requests"] += 1
        (path / "meta.json").write_text(json.dumps(meta))
        assert load_compiled(path) is None

    def test_version_skew_falls_back(self, tmp_path):
        fresh = _small_trace()
        store = TraceStore(tmp_path)
        path = store.store(fresh, 0.05, None)
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = 999
        (path / "meta.json").write_text(json.dumps(meta))
        assert load_compiled(path) is None

    def test_store_key_spells_out_identity(self):
        key = store_key("bfs", 0.1, None, 64)
        assert "bfs" in key and "0.1" in key and "ls64" in key
        assert store_key("bfs", 0.1, 7) != key


class TestRegistryIntegration:
    def test_load_returns_compiled_and_coalesces_once(self, tmp_path,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("re-coalesced through the dict Coalescer")

        monkeypatch.setattr(Coalescer, "coalesce", refuse)
        registry.set_trace_cache(tmp_path)      # a store miss
        missed = registry.load("bfs", scale=0.05)
        assert registry.trace_cache_stats()["stores"] == 1
        registry.set_trace_cache(None)          # no store at all
        unstored = registry.load("bfs", scale=0.05)
        for trace in (missed, unstored):
            assert isinstance(trace, CompiledTrace)
            assert trace.coalesced_per_cu()
        assert missed is not unstored

    def test_store_saves_a_compiled_trace_without_recompiling(
            self, tmp_path, monkeypatch):
        compiled = _small_trace()

        def refuse(*args, **kwargs):
            raise AssertionError("recompiled an already compiled trace")

        monkeypatch.setattr(compiled_module, "compile_arrays", refuse)
        path = TraceStore(tmp_path).store(compiled, 0.05, None)
        assert path == TraceStore(tmp_path).path_for("bfs", 0.05, None)
        _requests_equal(compiled.coalesced_per_cu(),
                        load_compiled(path).coalesced_per_cu())

    def test_cold_load_stores_then_warm_load_hits(self, tmp_path):
        registry.set_trace_cache(tmp_path)
        cold = registry.load("bfs", scale=0.05)
        stats = registry.trace_cache_stats()
        assert stats == {"hits": 0, "misses": 1, "stores": 1}
        # Same process: memoized, no new store traffic.
        assert registry.load("bfs", scale=0.05) is cold
        assert registry.trace_cache_stats() == stats
        # Simulated new process: memo cleared, the store satisfies it.
        registry.clear_cache()
        warm = registry.load("bfs", scale=0.05)
        stats = registry.trace_cache_stats()
        assert stats["hits"] == 1
        _requests_equal(cold.coalesced_per_cu(), warm.coalesced_per_cu())

    def test_load_fresh_never_touches_store(self, tmp_path):
        registry.set_trace_cache(tmp_path)
        registry.load_fresh("bfs", scale=0.05)
        assert registry.trace_cache_stats() == {
            "hits": 0, "misses": 0, "stores": 0}
        assert list(tmp_path.iterdir()) == []

    def test_setter_exports_env_for_pool_workers(self, tmp_path, monkeypatch):
        import os
        registry.set_trace_cache(tmp_path)
        assert os.environ["REPRO_TRACE_CACHE"] == str(tmp_path)
        registry.set_trace_cache(None)
        assert "REPRO_TRACE_CACHE" not in os.environ

    def test_env_var_resolves_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        registry.load("bfs", scale=0.05)
        assert registry.trace_cache_stats()["stores"] == 1

    def test_disabled_store_reports_zero(self):
        assert registry.trace_cache_stats() == {
            "hits": 0, "misses": 0, "stores": 0}


def _hand_built_trace():
    space = AddressSpace(asid=0)
    m = space.mmap(2)
    a, b = m.base_va, m.base_va + 4096
    return compile_streams(
        space,
        [[((a, b, a + 4), 0), ((a + 128,), WRITE), ((0,), SCRATCH),
          ((b + 256, a), 0)],
         [((b,), WRITE), ((a + 128, b + 128), 0)]],
        name="hand")


class TestNoRequestObjects:
    def test_no_simulation_path_builds_a_request_object(self, monkeypatch):
        """``simulate()`` and every access path replay the request arrays."""
        def refuse(*args, **kwargs):
            raise AssertionError("built a per-request object")

        monkeypatch.setattr(CoalescedRequest, "__init__", refuse)
        monkeypatch.setattr(Coalescer, "coalesce", refuse)
        makers = ((lambda: registry.load_fresh("bfs", scale=0.05), 0.02),
                  (_hand_built_trace, 0.25))
        runs = 0
        for make_trace, fault_rate in makers:
            for design in (BASELINE_512, VC_WITH_OPT, L1_ONLY_VC_32):
                for obs in (None, Observability()):
                    for faults in (False, True):
                        trace = make_trace()
                        config = design.soc_config(SoCConfig())
                        hierarchy = design.build(
                            config, {0: trace.address_space.page_table},
                            obs=obs)
                        if faults:
                            plan = FaultPlan.for_trace(trace, fault_rate,
                                                       seed=1)
                            assert len(plan)
                            hierarchy = FaultInjector(
                                hierarchy, plan, trace.address_space)
                        result = simulate(trace, hierarchy, config,
                                          design=design.name, obs=obs)
                        assert result.requests > 0
                        runs += 1
        assert runs == 24


class TestMicroMemoInvalidation:
    """Shootdowns and remaps must never be served a stale memoized entry."""

    def test_shootdown_clears_memo(self):
        tlb = TLB(capacity=8)
        tlb.insert(5, ppn=50)
        assert tlb.lookup(5).ppn == 50  # memo now warm on vpn 5
        tlb.invalidate(5)
        assert tlb.lookup(5) is None  # a stale memo would return ppn 50

    def test_remap_after_shootdown_serves_new_translation(self):
        tlb = TLB(capacity=8)
        tlb.insert(5, ppn=50, permissions=Permissions.READ_WRITE)
        tlb.lookup(5)
        # Chaos-style remap: shootdown, then the walker refills with the
        # new physical frame.
        tlb.invalidate(5)
        tlb.insert(5, ppn=99, permissions=Permissions.READ_ONLY)
        entry = tlb.lookup(5)
        assert entry.ppn == 99
        assert entry.permissions == Permissions.READ_ONLY

    def test_full_shootdown_clears_memo(self):
        tlb = TLB(capacity=8)
        tlb.insert(3, ppn=30)
        tlb.lookup(3)
        assert tlb.invalidate_all() == 1
        assert tlb.lookup(3) is None

    def test_memo_does_not_skew_counters(self):
        """Memo hits and probe hits are attributed identically."""
        tlb = TLB(capacity=8)
        tlb.insert(1, ppn=10)
        tlb.insert(2, ppn=20)
        tlb.lookup(1)   # probe hit (memo was on 2 after insert)
        tlb.lookup(1)   # memo hit
        tlb.lookup(1)   # memo hit
        tlb.lookup(9)   # miss
        assert tlb.hits == 3
        assert tlb.misses == 1

    def test_chaos_run_is_deterministic_with_memo(self):
        """End-to-end: fault-injected runs (shootdowns, remaps, unmaps)
        stay deterministic and invariant-clean with the micro-memo in
        the translation path."""
        from repro.experiments import chaos

        kwargs = dict(workloads=("bfs",), rates=(0.01,), seed=3, scale=0.05)
        a = chaos.run(**kwargs)
        b = chaos.run(**kwargs)
        assert repr(a.points) == repr(b.points)
