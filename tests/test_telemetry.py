"""The telemetry pipeline: trace propagation, exposition, timelines.

Covers the observability PR's acceptance criteria end to end:

* one traced service request stitches into a single client → server →
  pool-worker → simulate span tree;
* ``/metrics`` renders strict Prometheus text exposition (escaping,
  bucket cumulativity) while JSON clients keep the snapshot form;
* :class:`~repro.obs.metrics.MetricsRegistry` /
  :class:`~repro.obs.metrics.LatencyHistogram` merges stay exact in
  the edge cases (empty registries, mismatched bucket layouts,
  merge-after-snapshot);
* the :class:`~repro.obs.timeline.Timeline` coarsens, merges, and
  round-trips;
* the loadtest harness reports p50/p95/p99 + a saturation knee, and
  the dashboard renders the queue-depth / filter-rate timelines.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments import dashboard, loadtest
from repro.experiments.loadtest import LevelResult, find_knee
from repro.analysis.svgfig import line_chart
from repro.obs import Observability
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.obs.promexp import (
    histogram_buckets,
    prometheus_name,
    render_prometheus,
    validate_exposition,
)
from repro.obs.timeline import Timeline
from repro.obs.trace_context import (
    PARENT_HEADER,
    TRACE_HEADER,
    ContextTracer,
    TraceContext,
    valid_trace_id,
)
from repro.obs.trace_view import (
    load_events,
    render_trace,
    render_traces,
    stitch,
)
from repro.obs.tracer import RecordingTracer
from repro.service import ExperimentService, ServiceClient
from repro.system.designs import IDEAL_MMU, VC_WITH_OPT

SCALE = 0.05


# -- trace contexts -------------------------------------------------------

def test_trace_context_new_is_well_formed():
    ctx = TraceContext.new()
    assert valid_trace_id(ctx.trace_id) and len(ctx.trace_id) == 16
    assert valid_trace_id(ctx.span_id) and len(ctx.span_id) == 8
    assert ctx.parent_id is None


def test_trace_context_child_links_to_parent():
    root = TraceContext.new()
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    assert child.span_fields()["parent"] == root.span_id
    assert "parent" not in root.span_fields()


def test_trace_context_header_round_trip_case_insensitive():
    root = TraceContext.new()
    headers = {k.upper(): v for k, v in root.headers().items()}
    adopted = TraceContext.from_headers(headers)
    assert adopted.trace_id == root.trace_id
    # The server's span is a *new* span parented to the caller's.
    assert adopted.parent_id == root.span_id
    assert adopted.span_id != root.span_id


@pytest.mark.parametrize("bad", [
    {},  # no headers at all
    {TRACE_HEADER: "not hex!"},
    {TRACE_HEADER: "a" * 33},  # too long
    {TRACE_HEADER: ""},
])
def test_trace_context_invalid_headers_degrade_to_fresh_root(bad):
    ctx = TraceContext.from_headers(bad)
    assert valid_trace_id(ctx.trace_id)
    assert ctx.parent_id is None
    assert ctx.trace_id != bad.get(TRACE_HEADER)


def test_trace_context_invalid_parent_is_dropped_not_fatal():
    root = TraceContext.new()
    ctx = TraceContext.from_headers({
        TRACE_HEADER: root.trace_id, PARENT_HEADER: "zz-not-hex"})
    assert ctx.trace_id == root.trace_id
    assert ctx.parent_id is None


def test_trace_context_wire_round_trip():
    child = TraceContext.new().child()
    assert TraceContext.from_wire(child.to_wire()) == child


def test_context_tracer_stamps_bound_fields_explicit_wins():
    inner = RecordingTracer()
    bound = ContextTracer(inner, trace="t1", span="s1")
    bound.emit("hit", 1.0, vpn=7)
    bound.emit("span", 2.0, span="s2", parent="s1", name="x")
    first, second = inner.events
    assert first == {"ev": "hit", "t": 1.0, "trace": "t1",
                     "span": "s1", "vpn": 7}
    assert second["span"] == "s2" and second["parent"] == "s1"
    assert second["trace"] == "t1"


def test_with_fields_is_identity_when_tracing_off():
    obs = Observability()  # NULL_TRACER
    assert obs.with_fields(trace="t") is obs


# -- trace stitching and rendering ----------------------------------------

def test_load_events_rejects_malformed_lines(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text('{"ev": "hit", "t": 1.0}\n\n{"ev": "miss", "t": 2.0}\n')
    assert [e["ev"] for e in load_events(str(good))] == ["hit", "miss"]

    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"ev": "hit"}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_events(str(bad_json))

    not_event = tmp_path / "no-ev.jsonl"
    not_event.write_text('{"t": 1.0}\n')
    with pytest.raises(ValueError, match="not a trace event"):
        load_events(str(not_event))


def _synthetic_trace():
    root = TraceContext.new()
    point = root.child()
    events = [
        {"ev": "span", "t": 0.0, "name": "service.request", "dur": 0.5,
         **root.span_fields()},
        {"ev": "span", "t": 0.1, "name": "service.point", "dur": 0.4,
         "tier": "computed", **point.span_fields()},
        {"ev": "tlb_hit", "t": 0.2, **point.fields()},
        {"ev": "tlb_hit", "t": 0.3, **point.fields()},
        {"ev": "loose", "t": 0.4, "trace": root.trace_id},
    ]
    return root, events


def test_render_trace_builds_nested_tree_with_event_summaries():
    root, events = _synthetic_trace()
    traces = stitch(events)
    assert set(traces) == {root.trace_id}
    tree = render_trace(root.trace_id, traces[root.trace_id])
    assert "2 spans" in tree and "5 events" in tree
    request_line, point_line = tree.splitlines()[1:3]
    assert "service.request" in request_line
    # The child span is indented under its parent and carries the
    # aggregate count of its two attached fine-grained events.
    assert point_line.startswith("    ")
    assert "service.point" in point_line and "tlb_hit×2" in point_line
    assert "(unparented) 1 events" in tree


def test_render_traces_unknown_id_lists_known_ones():
    root, events = _synthetic_trace()
    with pytest.raises(ValueError, match=root.trace_id):
        render_traces(events, trace_id="feedbeef")


def test_trace_show_cli_renders_and_rejects_unknown_id(tmp_path, capsys):
    from repro.experiments.cli import main

    path = tmp_path / "t.jsonl"
    root, events = _synthetic_trace()
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    assert main(["trace", "show", "--trace-in", str(path)]) == 0
    assert root.trace_id in capsys.readouterr().out
    assert main(["trace", "show", "--trace-in", str(path),
                 "--trace-id", "feedbeef"]) == 2
    err = capsys.readouterr().err
    assert "not found" in err and "\n" not in err.strip()


# -- registry and histogram merges ----------------------------------------

def test_merge_empty_registry_is_a_no_op():
    reg = MetricsRegistry()
    reg.add("iommu.accesses", 5)
    reg.set_gauge("inflight", 2.0)
    reg.histogram("lat").record(1.5)
    before = reg.snapshot()
    reg.merge(MetricsRegistry())
    assert reg.snapshot() == before


def test_merge_into_empty_registry_copies_everything():
    src = MetricsRegistry()
    src.add("iommu.accesses", 5)
    src.set_gauge("inflight", 2.0)
    src.histogram("lat").record(1.5)
    dst = MetricsRegistry()
    dst.merge(src)
    assert dst.snapshot() == src.snapshot()


def test_merge_rejects_mismatched_bucket_layouts():
    a = MetricsRegistry()
    a.histogram("lat", sub_buckets_per_octave=8).record(1.0)
    b = MetricsRegistry()
    b.histogram("lat", sub_buckets_per_octave=4).record(1.0)
    with pytest.raises(ValueError, match="bucket layouts"):
        a.merge(b)
    # The direct histogram merge carries the same contract.
    with pytest.raises(ValueError, match="8 vs 4"):
        a.histogram("lat").merge(LatencyHistogram(4))


def test_merge_after_snapshot_keeps_old_snapshot_intact():
    a = MetricsRegistry()
    a.add("requests", 1)
    a.histogram("lat").record(2.0)
    frozen = a.snapshot()

    b = MetricsRegistry()
    b.add("requests", 2)
    b.histogram("lat").record(4.0)
    a.merge(b)

    assert frozen["counters"]["requests"] == 1
    assert frozen["histograms"]["lat"]["count"] == 1
    after = a.snapshot()
    assert after["counters"]["requests"] == 3
    assert after["histograms"]["lat"]["count"] == 2
    assert after["histograms"]["lat"]["min"] == 2.0
    assert after["histograms"]["lat"]["max"] == 4.0


def test_merge_gauges_last_write_wins():
    a = MetricsRegistry()
    a.set_gauge("depth", 1.0)
    b = MetricsRegistry()
    b.set_gauge("depth", 9.0)
    a.merge(b)
    assert a.gauges()["depth"] == 9.0


def test_histogram_merge_is_bucket_exact():
    """Merging per-worker histograms matches one shared histogram."""
    samples_a = [0.0, 0.5, 1.0, 3.0, 100.0]
    samples_b = [0.0, 0.25, 8.0, 9.0]
    merged = LatencyHistogram()
    for v in samples_a:
        merged.record(v)
    other = LatencyHistogram()
    for v in samples_b:
        other.record(v)
    merged.merge(other)

    oracle = LatencyHistogram()
    for v in samples_a + samples_b:
        oracle.record(v)
    assert merged.as_dict() == oracle.as_dict()
    assert histogram_buckets(merged) == histogram_buckets(oracle)


def test_merge_adopts_timeline_from_other_registry():
    src = MetricsRegistry()
    src.enable_timeline(epoch_cycles=64.0)
    src.timeline.record("iommu.accesses", 10.0, 3.0)
    dst = MetricsRegistry()
    assert "timeline" not in dst.snapshot()
    dst.merge(src)
    assert dst.timeline is not None
    assert dst.timeline.epoch_cycles == 64.0
    assert dst.timeline.series("iommu.accesses") == [(0.0, 3.0)]


# -- timeline -------------------------------------------------------------

def test_timeline_records_into_epochs():
    tl = Timeline(epoch_cycles=10.0)
    tl.record("x", 5.0, 2.0)
    tl.record("x", 9.9)
    tl.record("x", 15.0)
    assert tl.series("x") == [(0.0, 3.0), (10.0, 1.0)]
    assert tl.names() == ["x"]
    assert tl.series("missing") == []


def test_timeline_auto_coarsens_to_bound_memory():
    tl = Timeline(epoch_cycles=1.0, max_epochs=2)
    for t in range(8):
        tl.record("x", float(t))
    assert tl.epoch_cycles > 1.0
    assert len(tl.series("x")) <= 2
    assert sum(v for _, v in tl.series("x")) == 8.0  # nothing lost


def test_timeline_coarsen_to_is_power_of_two_only():
    tl = Timeline(epoch_cycles=16.0)
    tl.record("x", 0.0)
    tl.record("x", 40.0)
    with pytest.raises(ValueError, match="only coarsen"):
        tl.coarsen_to(8.0)
    with pytest.raises(ValueError, match="power-of-two"):
        tl.coarsen_to(48.0)
    tl.coarsen_to(64.0)
    assert tl.series("x") == [(0.0, 2.0)]


def test_timeline_merge_coarsens_finer_side_without_mutating_it():
    coarse = Timeline(epoch_cycles=32.0)
    coarse.record("x", 0.0, 1.0)
    fine = Timeline(epoch_cycles=16.0)
    fine.record("x", 20.0, 2.0)

    coarse.merge(fine)
    assert coarse.series("x") == [(0.0, 3.0)]
    # The finer operand was coarsened on a scratch copy only.
    assert fine.epoch_cycles == 16.0
    assert fine.series("x") == [(16.0, 2.0)]

    # The symmetric direction coarsens the receiver in place.
    fine.merge(coarse)
    assert fine.epoch_cycles == 32.0
    assert fine.series("x") == [(0.0, 5.0)]


def test_timeline_dict_round_trip():
    tl = Timeline(epoch_cycles=8.0)
    tl.record("a", 3.0, 1.5)
    tl.record("a", 17.0, 2.5)
    tl.record("b", 0.0)
    clone = Timeline.from_dict(tl.as_dict())
    assert clone.as_dict() == tl.as_dict()


def test_timeline_rate_series_skips_empty_denominators():
    tl = Timeline(epoch_cycles=10.0)
    tl.record("hits", 5.0, 3.0)
    tl.record("total", 5.0, 4.0)
    tl.record("total", 25.0, 2.0)  # epoch with no hits at all
    assert tl.rate_series("hits", "total") == [(0.0, 0.75), (20.0, 0.0)]


# -- Prometheus exposition ------------------------------------------------

def test_prometheus_name_mapping():
    assert prometheus_name("service.tier.memo") == "repro_service_tier_memo"
    assert prometheus_name("a-b c") == "repro_a_b_c"
    assert prometheus_name("0bad", prefix="") == "_0bad"


def test_render_prometheus_exact_text():
    reg = MetricsRegistry()
    reg.add("service.requests", 3)
    reg.set_gauge("service.inflight", 2.0)
    assert render_prometheus(reg) == (
        "# HELP repro_service_requests_total "
        "Counter service.requests from the repro simulator.\n"
        "# TYPE repro_service_requests_total counter\n"
        "repro_service_requests_total 3\n"
        "# HELP repro_service_inflight "
        "Gauge service.inflight from the repro simulator.\n"
        "# TYPE repro_service_inflight gauge\n"
        "repro_service_inflight 2\n"
    )


def test_render_prometheus_escapes_help_text():
    reg = MetricsRegistry()
    reg.add("x")
    text = render_prometheus(reg, help_text={"x": 'multi\nline \\ "quoted"'})
    assert '# HELP repro_x_total multi\\nline \\\\ "quoted"\n' in text
    validate_exposition(text)


def test_histogram_buckets_are_cumulative_and_end_at_count():
    hist = LatencyHistogram()
    for v in (0.0, 0.0, 1.0, 5.0, 100.0):
        hist.record(v)
    buckets = histogram_buckets(hist)
    assert buckets[0] == (0.0, 2)  # dedicated zero bucket
    counts = [c for _, c in buckets]
    assert counts == sorted(counts)
    assert buckets[-1] == (math.inf, hist.count)
    bounds = [b for b, _ in buckets]
    assert bounds == sorted(bounds)


def test_validate_exposition_accepts_full_registry_render():
    reg = MetricsRegistry()
    reg.add("service.requests", 7)
    reg.set_gauge("queue.depth", 1.5)
    hist = reg.histogram("service.latency")
    for v in (0.0, 0.001, 0.01, 0.25):
        hist.record(v)
    families = validate_exposition(render_prometheus(reg))
    assert families["repro_service_requests_total"]["type"] == "counter"
    assert families["repro_queue_depth"]["type"] == "gauge"
    latency = families["repro_service_latency"]
    assert latency["type"] == "histogram"
    assert latency["samples"]["+Inf"] == 4.0
    assert latency["samples"]["repro_service_latency_count"] == 4.0


@pytest.mark.parametrize("text,match", [
    ("orphan_sample 1\n", "no TYPE declaration"),
    ("# TYPE broken histogram\n"
     'broken_bucket{le="+Inf"} 2\nbroken_count 3\n', "!= _count"),
    ("# TYPE broken histogram\nbroken_bucket{le=\"1\"} 1\nbroken_count 1\n",
     "missing \\+Inf"),
    ("# TYPE shrink histogram\n"
     'shrink_bucket{le="1"} 5\nshrink_bucket{le="2"} 3\n'
     'shrink_bucket{le="+Inf"} 5\nshrink_count 5\n', "not cumulative"),
    ("# TYPE dup histogram\n"
     'dup_bucket{le="1"} 1\ndup_bucket{le="1"} 1\n', "duplicate bucket"),
    ("# TYPE x counter\nx{bad-label=\"v\"} 1\n", "malformed label"),
    ("# TYPE x wat\n", "unknown metric type"),
])
def test_validate_exposition_rejects_malformed_documents(text, match):
    with pytest.raises(ValueError, match=match):
        validate_exposition(text)


# -- end-to-end: one request, one stitched trace --------------------------

@pytest.fixture
def traced_service(tmp_path):
    tracer = RecordingTracer()
    svc = ExperimentService(
        port=0, jobs=1, scale=SCALE, cache_dir=str(tmp_path / "cache"),
        batch_window=0.005, obs=Observability(tracer=tracer))
    svc.start_in_thread()
    try:
        yield svc, tracer
    finally:
        svc.shutdown()


def test_one_request_stitches_into_a_single_trace(traced_service):
    svc, tracer = traced_service
    ctx = TraceContext.new()
    with ServiceClient(svc.host, svc.port, trace_ctx=ctx) as client:
        reply = client.simulate([{"workload": "bfs",
                                  "design": "baseline-512"}])
        assert reply.points[0].tier == "computed"
        # The server adopts and echoes the caller's trace id.
        assert reply.trace_id == ctx.trace_id
        assert client.last_trace_id == ctx.trace_id

    traces = stitch(tracer.events)
    assert ctx.trace_id in traces
    events = traces[ctx.trace_id]
    tree = render_trace(ctx.trace_id, events)
    for span in ("service.request", "service.point",
                 "cache.run_many", "worker.simulate"):
        assert span in tree, tree

    spans = [e for e in events if e.get("ev") == "span"]
    request = next(s for s in spans if s["name"] == "service.request")
    point = next(s for s in spans if s["name"] == "service.point")
    # client root span → HTTP request span → per-point span.
    assert request["parent"] == ctx.span_id
    assert point["parent"] == request["span"]
    assert point["tier"] == "computed"
    # The simulation's fine-grained events joined the same trace.
    assert any(e.get("ev") != "span" for e in events)

    # A second request for the same point is a memo hit answered on the
    # event loop; it still gets its point span under its request span.
    memo_ctx = TraceContext.new()
    with ServiceClient(svc.host, svc.port, trace_ctx=memo_ctx) as client:
        reply = client.simulate([{"workload": "bfs",
                                  "design": "baseline-512"}])
        assert reply.points[0].tier == "memo"
    memo_spans = [e for e in stitch(tracer.events)[memo_ctx.trace_id]
                  if e.get("ev") == "span"]
    memo_request = next(s for s in memo_spans
                        if s["name"] == "service.request")
    memo_points = [s for s in memo_spans if s["name"] == "service.point"]
    assert len(memo_points) == 1
    assert memo_points[0]["tier"] == "memo"
    assert memo_points[0]["parent"] == memo_request["span"]


def test_untraced_request_gets_server_minted_trace_id(traced_service):
    svc, _ = traced_service
    with ServiceClient(svc.host, svc.port) as client:
        reply = client.simulate([{"workload": "bfs",
                                  "design": "baseline-512"}])
        assert valid_trace_id(reply.trace_id)
        assert client.last_trace_id == reply.trace_id


def test_metrics_endpoint_speaks_both_formats(traced_service):
    svc, _ = traced_service
    with ServiceClient(svc.host, svc.port) as client:
        client.simulate([{"workload": "bfs", "design": "baseline-512"}])
        snapshot = client.metrics()  # Accept: application/json
        assert snapshot["counters"]["service.tier.computed"] == 1
        families = validate_exposition(client.metrics_text())
        assert "repro_service_requests_total" in families
        assert "repro_service_tier_computed_total" in families
        assert families["repro_service_latency_computed"]["type"] \
            == "histogram"


# -- loadtest -------------------------------------------------------------

def _level(concurrency, rps):
    return LevelResult(
        concurrency=concurrency, requests=concurrency * 8, failures=0,
        wall_seconds=1.0, throughput_rps=rps, p50_ms=1.0, p95_ms=2.0,
        p99_ms=3.0, mean_ms=1.2)


def test_find_knee_flags_first_non_scaling_step():
    assert find_knee([_level(1, 100.0), _level(2, 190.0),
                      _level(4, 200.0)]) == 2
    assert find_knee([_level(1, 100.0), _level(2, 200.0)]) is None
    assert find_knee([_level(1, 100.0)]) is None
    # A zero-throughput level cannot anchor a ratio; it is skipped.
    assert find_knee([_level(1, 0.0), _level(2, 50.0)]) is None


def test_find_knee_zero_throughput_successor_reports_last_nonzero():
    # A level that collapses to zero throughput is the strongest
    # possible saturation signal; the old ratio test divided into it
    # and reported no knee at all.
    assert find_knee([_level(1, 100.0), _level(2, 180.0),
                      _level(4, 0.0)]) == 2
    assert find_knee([_level(1, 100.0), _level(2, 0.0)]) == 1
    # A zero in the middle still anchors to the last non-zero level.
    assert find_knee([_level(1, 100.0), _level(2, 0.0),
                      _level(4, 0.0)]) == 1
    # All-zero sweeps genuinely have no knee to report.
    assert find_knee([_level(1, 0.0), _level(2, 0.0)]) is None


def test_parse_target_accepts_urls_and_bracketed_ipv6():
    from repro.service.client import parse_target

    assert parse_target("127.0.0.1:8000") == ("127.0.0.1", 8000)
    assert parse_target("http://localhost:9/") == ("localhost", 9)
    assert parse_target("[::1]:8000") == ("::1", 8000)
    assert parse_target(":8000") == ("127.0.0.1", 8000)
    with pytest.raises(ValueError, match="missing ':PORT'"):
        parse_target("localhost")
    with pytest.raises(ValueError, match="must be bracketed"):
        parse_target("::1:8000")
    with pytest.raises(ValueError, match="unterminated"):
        parse_target("[::1.8000")
    with pytest.raises(ValueError, match="not an integer"):
        parse_target("host:port")
    with pytest.raises(ValueError, match="out of range"):
        parse_target("host:0")


def test_loadtest_cli_rejects_bad_targets_with_exit_2(capsys):
    from repro.experiments.cli import main

    # A bare host used to be silently mangled by rpartition(':');
    # now it is a usage error before any service is touched.
    assert main(["loadtest", "--lt-target", "localhost"]) == 2
    err = capsys.readouterr().out + capsys.readouterr().err
    assert "missing ':PORT'" in err
    assert main(["loadtest", "--lt-target", "[::1]:notaport"]) == 2
    assert main(["loadtest", "--lt-target", "127.0.0.1:1",
                 "--lt-replicas", "1"]) == 2
    assert main(["loadtest", "--lt-replicas", "one,two"]) == 2
    assert main(["loadtest", "--lt-cold-every", "-1"]) == 2
    assert main(["loadtest", "--lt-cold-points", "not-a-point"]) == 2


def test_loadtest_warmup_failure_exits_1_not_traceback(capsys):
    # Nothing listens on this port: the warm-up simulate must surface
    # as a clean exit-1 diagnostic, not an unhandled ConnectionError.
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # free the port again; nobody is listening now
    rc = loadtest.main(target=f"127.0.0.1:{port}", levels=(1,),
                       requests_per_client=1)
    assert rc == 1
    out = capsys.readouterr().out
    assert "load test against" in out and "failed" in out


def test_loadtest_report_render_names_the_knee():
    report = loadtest.LoadtestReport(
        target="127.0.0.1:1", points=[("bfs", "baseline-512")],
        requests_per_client=8,
        levels=[_level(1, 100.0), _level(2, 105.0)], knee_concurrency=1)
    text = report.render()
    assert "saturation knee at 1 client(s)" in text
    assert report.ok
    report.levels[0] = LevelResult(
        concurrency=1, requests=8, failures=1, wall_seconds=1.0,
        throughput_rps=8.0, p50_ms=1.0, p95_ms=1.0, p99_ms=1.0, mean_ms=1.0)
    assert not report.ok


def test_loadtest_against_live_service(tmp_path):
    svc = ExperimentService(
        port=0, jobs=1, scale=SCALE, cache_dir=str(tmp_path / "cache"),
        batch_window=0.005)
    svc.start_in_thread()
    try:
        report = loadtest.run(svc.host, svc.port, levels=(1, 2),
                              requests_per_client=2)
    finally:
        svc.shutdown()
    assert report.ok
    assert [lv.concurrency for lv in report.levels] == [1, 2]
    for lv in report.levels:
        assert lv.requests == lv.concurrency * 2
        assert lv.failures == 0
        assert lv.throughput_rps > 0
        assert 0 < lv.p50_ms <= lv.p95_ms <= lv.p99_ms
    as_dict = report.as_dict()
    assert as_dict["levels"][0]["p99_ms"] == pytest.approx(
        report.levels[0].p99_ms, rel=1e-2)
    assert "req/s" in report.render()


def test_shard_sweep_scales_replica_counts_over_shared_cache(tmp_path):
    hot = [("bfs", "baseline-512"), ("kmeans", "vc-with-opt"),
           ("pagerank", "ideal-mmu"), ("hotspot", "baseline-512")]
    cold = [("nw", "baseline-512"), ("pathfinder", "vc-w-o-opt")]
    report = loadtest.shard_sweep(
        replica_counts=(1, 2), levels=(1, 2), requests_per_client=2,
        points=hot, cold_points=cold, cold_every=4, scale=SCALE,
        batch_window=0.005, max_batch=2, replica_mode="thread",
        cache_dir=str(tmp_path / "cache"))
    assert report.ok
    assert sorted(report.reports) == [1, 2]
    for count, sub in report.reports.items():
        assert sub.cold_every == 4
        assert all(lv.failures == 0 for lv in sub.levels)
        assert report.best_throughput(count) > 0
    speedups = report.speedups()
    assert speedups[1] == pytest.approx(1.0)
    assert speedups[2] > 0
    rendered = report.render()
    assert "replicas" in rendered and "speedup" in rendered
    as_dict = report.as_dict()
    assert as_dict["replica_counts"] == [1, 2]
    assert as_dict["speedup_vs_first"]["1"] == pytest.approx(1.0)
    assert "2" in as_dict["knee_concurrency"]


# -- dashboard ------------------------------------------------------------

def test_line_chart_renders_every_series():
    svg = line_chart("demo", {"a": [(0.0, 1.0), (10.0, 2.0)],
                              "b": [(5.0, 0.5)]},
                     x_label="cycles", y_label="rate")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and "cycles" in svg and "rate" in svg
    with pytest.raises(ValueError):
        line_chart("empty", {})
    with pytest.raises(ValueError):
        line_chart("hollow", {"a": []})


def test_dashboard_collect_yields_timeline_telemetry():
    telemetry = dashboard.collect(
        workload="bfs", designs=(IDEAL_MMU, VC_WITH_OPT), scale=SCALE)
    by_name = {t.design_name: t for t in telemetry}
    assert set(by_name) == {IDEAL_MMU.name, VC_WITH_OPT.name}

    vc = by_name[VC_WITH_OPT.name]
    assert vc.probe_series_name() == "vc.accesses"
    assert vc.queue_depth_series(), "VC design must show IOMMU queueing"
    rates = vc.filter_rate_series()
    assert rates and all(0.0 <= r <= 1.0 for _, r in rates)
    overall = vc.overall_filter_rate()
    assert overall is not None and 0.0 < overall <= 1.0

    # The ideal MMU translates for free: nothing ever reaches an IOMMU.
    ideal = by_name[IDEAL_MMU.name]
    assert ideal.series_sum("iommu.accesses") == 0.0

    page = dashboard.render_html(telemetry, "bfs", SCALE)
    for needle in ("IOMMU queue depth over time",
                   "Translation filter rate over time",
                   "Design comparison", "<svg"):
        assert needle in page
    # No service snapshot supplied → the tier panel explains how to get one.
    assert "--metrics-out" in page


def test_dashboard_main_writes_page(tmp_path, capsys):
    out = tmp_path / "dash.html"
    rc = dashboard.main(workload="bfs", scale=SCALE, out=str(out))
    assert rc == 0
    page = out.read_text(encoding="utf-8")
    assert "Translation filter rate over time" in page
    assert str(out) in capsys.readouterr().out
