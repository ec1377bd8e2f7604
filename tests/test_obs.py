"""Tests for the observability layer (repro.obs).

Covers the tracer enabled/disabled paths, histogram percentile math
against known distributions, manifest round-trips, the CLI UX, and the
central invariant: attaching observability never changes simulation
results.
"""

import io
import json

import pytest

from repro.engine.stats import Counters
from repro.memsys.address_space import AddressSpace
from repro.obs import (
    NULL_TRACER,
    JsonLinesTracer,
    LatencyHistogram,
    MetricsRegistry,
    Observability,
    RecordingTracer,
    build_manifest,
    git_sha,
    load_manifest,
    write_manifest,
)
from repro.system.designs import BASELINE_512, VC_WITH_OPT
from repro.system.run import simulate

from tests.conftest import compile_streams


def sequential_trace(space, n_pages=16, accesses=150, n_cus=2):
    m = space.mmap(n_pages)
    per_cu = [
        [((m.base_va + ((cu * 7919 + i * 128) % m.size_bytes),), 0)
         for i in range(accesses)]
        for cu in range(n_cus)
    ]
    return compile_streams(space, per_cu, name="seq")


def run_baseline(small_config, obs=None, design=BASELINE_512, **kwargs):
    space = AddressSpace(asid=0)
    trace = sequential_trace(space)
    hierarchy = design.build(small_config, {0: space.page_table}, obs=obs)
    return simulate(trace, hierarchy, small_config, design=design.name,
                    **kwargs)


class TestTracers:
    def test_null_tracer_is_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("anything", 1.0, cu=0)  # must not raise
        NULL_TRACER.close()

    def test_jsonlines_tracer_writes_one_json_object_per_line(self):
        sink = io.StringIO()
        tracer = JsonLinesTracer(sink)
        tracer.emit("request.issue", 10.0, cu=3, write=False)
        tracer.emit("request.complete", 14.5, cu=3, latency=4.5)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert tracer.events_emitted == 2
        first = json.loads(lines[0])
        assert first == {"ev": "request.issue", "t": 10.0, "cu": 3,
                         "write": False}

    def test_jsonlines_tracer_owns_path_sinks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesTracer(str(path)) as tracer:
            tracer.emit("run.start", 0.0, workload="w")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [{"ev": "run.start", "t": 0.0, "workload": "w"}]

    def test_jsonlines_tracer_leaves_borrowed_sinks_open(self):
        sink = io.StringIO()
        tracer = JsonLinesTracer(sink)
        tracer.close()
        assert not sink.closed

    def test_recording_tracer_filters_by_type(self):
        tracer = RecordingTracer()
        tracer.emit("a", 1.0)
        tracer.emit("b", 2.0, x=1)
        tracer.emit("a", 3.0)
        assert [e["t"] for e in tracer.of_type("a")] == [1.0, 3.0]
        assert tracer.of_type("b")[0]["x"] == 1


class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.as_dict()["p99"] == 0.0

    def test_exact_scalars_alongside_bucketed_percentiles(self):
        hist = LatencyHistogram()
        for v in (3.0, 7.0, 21.0):
            hist.record(v)
        assert hist.count == 3
        assert hist.min == 3.0
        assert hist.max == 21.0
        assert hist.mean == pytest.approx(31.0 / 3)

    def test_percentiles_on_uniform_distribution(self):
        hist = LatencyHistogram()
        for v in range(1, 1001):
            hist.record(float(v))
        # Log-bucketed: geometric-midpoint answers within one bucket
        # (±~9% at 8 sub-buckets/octave) of the exact quantile.
        assert hist.percentile(50) == pytest.approx(500.0, rel=0.12)
        assert hist.percentile(95) == pytest.approx(950.0, rel=0.12)
        assert hist.percentile(99) == pytest.approx(990.0, rel=0.12)
        assert hist.percentile(100) == 1000.0

    def test_percentiles_on_bimodal_distribution(self):
        hist = LatencyHistogram()
        hist.record(10.0, count=90)
        hist.record(1000.0, count=10)
        assert hist.percentile(50) == pytest.approx(10.0, rel=0.12)
        assert hist.percentile(90) == pytest.approx(10.0, rel=0.12)
        assert hist.percentile(95) == pytest.approx(1000.0, rel=0.12)
        assert hist.percentile(99) == pytest.approx(1000.0, rel=0.12)

    def test_zero_values_are_exact(self):
        hist = LatencyHistogram()
        hist.record(0.0, count=99)
        hist.record(50.0)
        assert hist.percentile(50) == 0.0
        assert hist.percentile(99) == 0.0
        assert hist.percentile(100) == pytest.approx(50.0, rel=0.12)

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)

    def test_reset(self):
        hist = LatencyHistogram()
        hist.record(5.0)
        hist.reset()
        assert hist.count == 0
        assert hist.max is None
        assert hist.percentile(99) == 0.0


class TestMetricsRegistry:
    def test_counters_delegate_to_wrapped_bag(self):
        registry = MetricsRegistry()
        registry.add("iommu.accesses", 3)
        assert registry.counters["iommu.accesses"] == 3

    def test_histograms_shared_by_name(self):
        registry = MetricsRegistry()
        assert registry.histogram("x") is registry.histogram("x")
        assert registry.histogram("x") is not registry.histogram("y")

    def test_scope_prefixes_all_instruments(self):
        registry = MetricsRegistry()
        iommu = registry.scope("iommu")
        iommu.add("accesses")
        iommu.set_gauge("occupancy", 0.5)
        iommu.histogram("queue_delay").record(4.0)
        nested = iommu.scope("ptw")
        nested.add("walks")
        snap = registry.snapshot()
        assert snap["counters"] == {"iommu.accesses": 1, "iommu.ptw.walks": 1}
        assert snap["gauges"] == {"iommu.occupancy": 0.5}
        assert snap["histograms"]["iommu.queue_delay"]["count"] == 1

    def test_snapshot_key_order_is_deterministic(self):
        registry = MetricsRegistry()
        registry.add("zebra")
        registry.add("alpha")
        registry.histogram("z_hist").record(1.0)
        registry.histogram("a_hist").record(1.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["alpha", "zebra"]
        assert list(snap["histograms"]) == ["a_hist", "z_hist"]


class TestCounters:
    def test_as_dict_is_sorted(self):
        counters = Counters()
        counters.add("zebra")
        counters.add("alpha", 2)
        counters.add("mid")
        assert list(counters.as_dict()) == ["alpha", "mid", "zebra"]

    def test_merge_from_counters_and_mapping(self):
        a = Counters()
        a.add("x", 1)
        b = Counters()
        b.add("x", 2)
        b.add("y", 5)
        a.merge(b)
        a.merge({"z": 7})
        assert a.as_dict() == {"x": 3, "y": 5, "z": 7}


class TestMerge:
    """Parent-side aggregation of per-worker metrics (run_many)."""

    def test_histogram_merge_is_bucket_exact(self):
        a, b, serial = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for v in (0.0, 0.5, 3.0, 100.0):
            a.record(v)
            serial.record(v)
        for v in (0.25, 7.0, 7.0, 0.0):
            b.record(v)
            serial.record(v)
        a.merge(b)
        assert a.count == serial.count
        assert a.total == pytest.approx(serial.total)
        assert (a.min, a.max) == (serial.min, serial.max)
        for p in (50.0, 95.0, 99.0, 100.0):
            assert a.percentile(p) == serial.percentile(p)

    def test_histogram_merge_into_empty(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        b.record(2.0)
        a.merge(b)
        assert (a.count, a.min, a.max) == (1, 2.0, 2.0)

    def test_histogram_merge_rejects_mismatched_layout(self):
        with pytest.raises(ValueError):
            LatencyHistogram(8).merge(LatencyHistogram(4))

    def test_registry_merge(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.add("runs", 1)
        parent.histogram("lat").record(1.0)
        worker.add("runs", 2)
        worker.histogram("lat").record(4.0)
        worker.set_gauge("last_scale", 0.5)
        parent.merge(worker)
        assert parent.counters.as_dict() == {"runs": 3}
        assert parent.histogram("lat").count == 2
        assert parent.histogram("lat").max == 4.0
        assert parent.gauges() == {"last_scale": 0.5}


class TestManifest:
    def test_git_sha_in_this_repo(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_round_trip(self, tmp_path, small_config):
        result = run_baseline(small_config, obs=Observability())
        manifest = build_manifest(result=result, config=small_config,
                                  metrics=result.metrics,
                                  extra={"note": "test"})
        path = write_manifest(tmp_path / "manifest.json", manifest)
        loaded = load_manifest(path)
        assert loaded["schema_version"] == 1
        assert loaded["run"]["workload"] == "seq"
        assert loaded["run"]["cycles"] == result.cycles
        assert loaded["config"]["n_cus"] == small_config.n_cus
        assert loaded["counters"] == result.counters
        assert loaded["note"] == "test"
        for q in ("p50", "p95", "p99"):
            assert q in loaded["metrics"]["histograms"]["iommu.queue_delay"]

    def test_simulate_manifest_out(self, tmp_path, small_config):
        path = tmp_path / "run.json"
        run_baseline(small_config, obs=Observability(), manifest_out=path)
        loaded = load_manifest(path)
        assert "iommu.queue_delay" in loaded["metrics"]["histograms"]
        assert loaded["run"]["wall_clock_seconds"] > 0.0


class TestProfiler:
    """``ResultCache.profiler``: one wall-clock span record per stage."""

    def test_spans_nest_and_time(self):
        from repro.experiments.common import ResultCache

        cache = ResultCache(profiler=RecordingTracer())
        with cache._span("outer"):
            with cache._span("inner"):
                pass
        with cache._span("next"):
            pass
        inner, outer, following = cache.profiler.of_type("span")
        assert [s["name"] for s in (outer, inner, following)] == [
            "outer", "inner", "next"]
        assert inner["parent"] == outer["span"]
        assert inner["trace"] == outer["trace"]
        # Each top-level stage starts a trace of its own.
        assert "parent" not in outer and "parent" not in following
        assert following["trace"] != outer["trace"]
        assert outer["dur"] >= inner["dur"] >= 0.0
        assert following["dur"] >= 0.0

    def test_report_lists_spans(self):
        from repro.experiments.common import ResultCache
        from repro.obs.trace_view import render_traces

        cache = ResultCache(profiler=RecordingTracer())
        with cache._span("stage"):
            with cache._span("step"):
                pass
        report = render_traces(cache.profiler.events)
        assert "└── stage  dur=" in report
        assert "    └── step  dur=" in report


class TestSimulationWithObservability:
    def test_results_bit_identical_with_tracing_off_vs_on(self, small_config):
        plain = run_baseline(small_config)
        traced = run_baseline(
            small_config, obs=Observability(tracer=RecordingTracer()))
        assert plain.cycles == traced.cycles
        assert plain.counters == traced.counters
        assert plain.requests == traced.requests

    def test_vc_results_bit_identical_with_tracing_off_vs_on(self, small_config):
        plain = run_baseline(small_config, design=VC_WITH_OPT)
        traced = run_baseline(small_config, design=VC_WITH_OPT,
                              obs=Observability(tracer=RecordingTracer()))
        assert plain.cycles == traced.cycles
        assert plain.counters == traced.counters

    def test_disabled_tracer_emits_nothing(self, small_config):
        obs = Observability()  # NULL_TRACER
        result = run_baseline(small_config, obs=obs)
        assert not obs.tracing
        assert result.metrics is obs.metrics  # metrics still collected
        assert obs.metrics.histogram("request.latency").count == result.requests

    def test_traced_baseline_run_emits_request_path_events(self, small_config):
        tracer = RecordingTracer()
        result = run_baseline(small_config, obs=Observability(tracer=tracer))
        issues = tracer.of_type("request.issue")
        completes = tracer.of_type("request.complete")
        assert len(issues) == result.requests
        assert len(completes) == result.requests
        assert all(e["latency"] > 0 for e in completes)
        assert tracer.of_type("run.start")[0]["workload"] == "seq"
        assert tracer.of_type("run.end")[0]["cycles"] == result.cycles
        # Translation path: TLB activity matches the counters exactly.
        assert len(tracer.of_type("tlb.miss")) == result.counters["tlb.misses"]
        assert len(tracer.of_type("iommu.enter")) == \
            result.counters["iommu.accesses"]
        assert len(tracer.of_type("walk.start")) == result.counters["iommu.walks"]

    def test_traced_vc_run_emits_vc_events(self, small_config):
        tracer = RecordingTracer()
        result = run_baseline(small_config, design=VC_WITH_OPT,
                              obs=Observability(tracer=tracer))
        assert len(tracer.of_type("vc.l1_hit")) == \
            result.counters.get("vc.l1_hits", 0)
        assert len(tracer.of_type("vc.miss")) == \
            result.counters.get("vc.l2_misses", 0)
        assert tracer.of_type("vc.miss")  # this workload does miss the L2

    def test_latency_histograms_collected(self, small_config):
        obs = Observability()
        result = run_baseline(small_config, obs=obs)
        histograms = obs.metrics.histograms()
        assert histograms["iommu.queue_delay"].count == \
            result.counters["iommu.accesses"]
        assert histograms["iommu.walk_latency"].count == \
            result.counters["iommu.walks"]
        assert histograms["request.latency"].count == result.requests
        assert histograms["request.latency"].percentile(99) >= \
            histograms["request.latency"].percentile(50) > 0


class TestCLI:
    def test_list_flag(self, capsys):
        from repro.experiments.cli import EXPERIMENTS, main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "all" in out

    def test_unknown_experiment_lists_choices_and_fails(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "fig9" in err

    def test_missing_experiment_fails(self, capsys):
        from repro.experiments.cli import main

        assert main([]) == 2
        assert "--list" in capsys.readouterr().err

    def test_profile_alone_times_the_compiled_path(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.experiments.common import GLOBAL_CACHE, ResultCache
        from repro.system.physical_hierarchy import PhysicalHierarchy

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "version": 1, "name": "profile-probe", "workloads": ["bfs"],
            "designs": ["baseline-512"], "scale": 0.02}))
        saved = dict(vars(GLOBAL_CACHE))
        # Start from a fresh cache: earlier CLI runs may have left a
        # bundle, a cache directory or memoized hierarchies behind.
        vars(GLOBAL_CACHE).update(vars(ResultCache()))
        try:
            assert main(["sweep", str(spec), "--profile"]) == 0
            assert GLOBAL_CACHE.obs is None
            hierarchies = [h for h in GLOBAL_CACHE._hierarchies.values()
                           if isinstance(h, PhysicalHierarchy)]
            assert hierarchies
            assert all("access" in vars(h) for h in hierarchies)
        finally:
            vars(GLOBAL_CACHE).clear()
            vars(GLOBAL_CACHE).update(saved)
        out = capsys.readouterr().out
        assert "profile (wall-clock):" in out
        assert "experiment:sweep" in out
        assert "sim:bfs:Baseline 512" in out
