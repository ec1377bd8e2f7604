"""Tests for the consistent-hash sharding gateway.

Covers ring stability (adding/removing a member moves ~1/N of the
keyspace, and every moved key lands on the changed member's
successor), a replica killed mid-stream costing **zero** client-visible
failures, the shared disk tier letting replica B serve what replica A
computed, eviction + re-admission through the health loop and through
the empty-ring probe round, the merged ``/metrics`` exposition carrying
per-replica labels that validate, and the gateway's point memo: what
it answers, what it never stores, and its bound.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.obs import Observability
from repro.obs.promexp import validate_exposition
from repro.obs.trace_context import TraceContext
from repro.obs.trace_view import render_trace, stitch
from repro.obs.tracer import RecordingTracer
from repro.service import ServiceClient, ServiceError
from repro.service import gateway as gateway_module
from repro.service.protocol import parse_simulate_request
from repro.service.gateway import (
    DEFAULT_VNODES,
    HashRing,
    Replica,
    ShardGateway,
    launch_local_gateway,
    replicas_from_urls,
    spawn_thread_replicas,
)
from repro.system.config import SoCConfig

SCALE = 0.05

HOT = [{"workload": "bfs", "design": "baseline-512"},
       {"workload": "kmeans", "design": "vc-with-opt"},
       {"workload": "pagerank", "design": "ideal-mmu"},
       {"workload": "hotspot", "design": "baseline-512"}]


@pytest.fixture
def gateway(tmp_path):
    """A 3-replica thread-mode gateway over one shared disk cache."""
    gw = launch_local_gateway(
        3, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        batch_window=0.002, health_interval=0.1)
    try:
        yield gw
    finally:
        gw.shutdown()


# -- hash ring ------------------------------------------------------------

def _owners(ring, keys):
    return {key: ring.lookup(key) for key in keys}


def test_ring_moves_about_one_nth_on_membership_change():
    keys = [f"fingerprint-{i}" for i in range(2000)]
    three = HashRing(["r0", "r1", "r2"])
    four = HashRing(["r0", "r1", "r2", "r3"])
    before, after = _owners(three, keys), _owners(four, keys)
    moved = [k for k in keys if before[k] != after[k]]
    # Adding a fourth member should claim ~1/4 of the keyspace ...
    assert 0.10 <= len(moved) / len(keys) <= 0.45
    # ... and every moved key moves TO the new member, never between
    # survivors — the property hedging relies on.
    assert all(after[k] == "r3" for k in moved)

    # Removal is symmetric: only the removed member's keys move.
    two = HashRing(["r0", "r2"])
    shrunk = _owners(two, keys)
    for key in keys:
        if before[key] != "r1":
            assert shrunk[key] == before[key]


def test_ring_balance_and_determinism():
    keys = [f"key-{i}" for i in range(3000)]
    ring = HashRing(["r0", "r1", "r2"], vnodes=DEFAULT_VNODES)
    counts = {member: 0 for member in ring.members}
    for key in keys:
        counts[ring.lookup(key)] += 1
    for member, count in counts.items():
        share = count / len(keys)
        assert 0.15 <= share <= 0.55, f"{member} owns {share:.0%}"
    # Same membership -> same ring, independent of construction order.
    again = HashRing(["r2", "r0", "r1"], vnodes=DEFAULT_VNODES)
    assert all(ring.lookup(k) == again.lookup(k) for k in keys[:200])


def test_ring_rejects_empty_lookup_and_bad_vnodes():
    with pytest.raises(LookupError):
        HashRing([]).lookup("anything")
    with pytest.raises(ValueError):
        HashRing(["r0"], vnodes=0)


# -- construction ---------------------------------------------------------

def test_gateway_rejects_no_replicas_and_duplicate_ids():
    with pytest.raises(ValueError, match="at least one replica"):
        ShardGateway([])
    dupes = [Replica("r0", "127.0.0.1", 1), Replica("r0", "127.0.0.1", 2)]
    with pytest.raises(ValueError, match="duplicate replica ids"):
        ShardGateway(dupes)


def test_replicas_from_urls_parses_and_rejects():
    replicas = replicas_from_urls(
        ["127.0.0.1:8001", "http://[::1]:8002/"])
    assert [(r.host, r.port) for r in replicas] == \
        [("127.0.0.1", 8001), ("::1", 8002)]
    assert not replicas[0].managed
    with pytest.raises(ValueError, match="missing ':PORT'"):
        replicas_from_urls(["localhost"])


# -- end-to-end through the gateway ---------------------------------------

def test_gateway_serves_points_with_tier_provenance(gateway):
    with ServiceClient(gateway.host, gateway.port) as client:
        first = client.simulate(HOT)
        assert [p.tier for p in first.points] == ["computed"] * len(HOT)
        second = client.simulate(HOT)
        assert [p.tier for p in second.points] == ["memo"] * len(HOT)
        # The reply is stitched into the caller's trace.
        assert second.trace_id == client.last_trace_id
        health = client.healthz()
        assert health.status == "ok"
        assert health.pool == {"replicas_healthy": 3, "replicas_total": 3}
        assert health.raw["ring"]["members"] == ["r0", "r1", "r2"]


def test_gateway_propagates_request_errors(gateway):
    with ServiceClient(gateway.host, gateway.port) as client:
        with pytest.raises(ServiceError) as err:
            client.simulate([{"workload": "no-such-workload",
                              "design": "baseline-512"}])
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.poll("not-a-job")
        assert err.value.status == 404


def test_gateway_jobs_roundtrip(gateway):
    with ServiceClient(gateway.host, gateway.port) as client:
        job_id = client.submit(HOT[:2])
        reply = client.wait(job_id)
        assert [p.tier for p in reply.points] == ["computed", "computed"]


def test_kill_one_replica_mid_stream_zero_client_failures(gateway):
    """The headline guarantee: an evicted replica is invisible to clients."""
    # Warm every owner directly: the gateway has not seen these points,
    # so the stream below crosses the replica hop.
    for replica in gateway.replicas:
        with ServiceClient(replica.host, replica.port) as direct:
            direct.simulate(HOT)
    with ServiceClient(gateway.host, gateway.port) as client:
        victim = gateway.replicas[0]
        victim.service.shutdown()  # killed out from under the gateway
        failures = 0
        for _ in range(12):
            reply = client.simulate(HOT)
            failures += sum(1 for p in reply.points if p.cycles <= 0)
        assert failures == 0
        assert not victim.healthy
        assert tuple(gateway.ring.members) == ("r1", "r2")
        assert victim.evictions == 1


def test_shared_disk_tier_survives_owner_eviction(gateway):
    """A point replica A computed is served from disk by its new owner."""
    point = {"workload": "nw", "design": "baseline-512"}
    body = json.dumps({"points": [point]}).encode("utf-8")
    plan = gateway._plan(body)
    owner_id = gateway.ring.lookup(plan.fingerprints[0])
    owner = next(r for r in gateway.replicas if r.id == owner_id)

    # Computed on its owner directly, so the gateway has not seen it.
    with ServiceClient(owner.host, owner.port) as direct:
        first = direct.simulate([point])
        assert first.points[0].tier == "computed"

    owner.service.shutdown()
    with ServiceClient(gateway.host, gateway.port) as client:
        reply = client.simulate([point])
        # The new owner has never seen the point in memory; the shared
        # disk cache is what answers.
        assert reply.points[0].tier == "disk"
        assert reply.points[0].fingerprint == plan.fingerprints[0]


def test_health_loop_readmits_a_recovered_replica(gateway):
    replica = gateway.replicas[1]
    # Force an eviction the health loop will disagree with: the
    # replica's service is alive, so the next probe re-admits it.
    gateway._loop.call_soon_threadsafe(
        gateway._evict, replica, "synthetic eviction")
    deadline = time.monotonic() + 5.0
    while replica.healthy and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not replica.healthy or time.monotonic() < deadline
    while not replica.healthy and time.monotonic() < deadline:
        time.sleep(0.02)
    assert replica.healthy, "health loop never re-admitted the replica"
    assert tuple(gateway.ring.members) == ("r0", "r1", "r2")


def test_gateway_metrics_merge_with_replica_labels(gateway):
    with ServiceClient(gateway.host, gateway.port) as client:
        client.simulate(HOT)
        text = client.metrics_text()
    families = validate_exposition(text)
    # The gateway's own per-replica counters are bracket-labelled ...
    forwarded = families["repro_gateway_forwarded_total"]
    replicas_seen = {value for key, value in forwarded["labels"]
                     if key == "replica"}
    assert replicas_seen  # at least one owner got traffic
    assert replicas_seen <= {"r0", "r1", "r2"}
    # ... and replica-side families are re-exported under replica="...".
    requests = families["repro_service_requests_total"]
    assert {value for key, value in requests["labels"]
            if key == "replica"} == {"r0", "r1", "r2"}
    # Replica-side latency histograms keep their type through the merge.
    assert families["repro_service_request_seconds"]["type"] == "histogram"


def test_gateway_json_metrics_nest_replica_snapshots(gateway):
    with ServiceClient(gateway.host, gateway.port) as client:
        client.simulate(HOT[:1])
        snapshot = client.metrics()
    assert set(snapshot["replicas"]) == {"r0", "r1", "r2"}
    assert "counters" in snapshot["gateway"]
    for replica_snapshot in snapshot["replicas"].values():
        assert replica_snapshot is not None


def test_trace_context_flows_through_gateway_to_replica(gateway):
    from repro.obs.trace_context import TraceContext

    ctx = TraceContext.new()
    with ServiceClient(gateway.host, gateway.port, trace_ctx=ctx) as client:
        reply = client.simulate(HOT[:1])
    assert reply.trace_id == ctx.trace_id


def _quiet_gateway(tmp_path):
    """A 2-replica gateway whose health loop stays asleep for the test."""
    return launch_local_gateway(
        2, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        batch_window=0.002, health_interval=600.0)


def _one_point_per_replica(gw):
    owned = {}
    for point in ({"workload": w, "design": d}
                  for w in ("bfs", "kmeans", "pagerank", "hotspot")
                  for d in ("baseline-512", "ideal-mmu", "vc-with-opt")):
        (spec,) = parse_simulate_request(point, SCALE, SoCConfig())
        owned.setdefault(gw.ring.lookup(spec.fingerprint), point)
    assert set(owned) == {"r0", "r1"}
    return [owned["r0"], owned["r1"]]


def _replica_requests(gw):
    return sum(replica.service.obs.metrics.snapshot()["counters"]
               .get("service.requests", 0) for replica in gw.replicas)


def test_gateway_reply_costs_one_replica_request(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        with ServiceClient(gw.host, gw.port) as client:
            points = _one_point_per_replica(gw)
            for point in points:
                before = _replica_requests(gw)
                assert client.simulate([point]).points[0].tier == "computed"
                # No /healthz fan-out per reply: one forward per new point.
                assert _replica_requests(gw) - before == 1
            before = _replica_requests(gw)
            for _ in range(5):
                for point in points:
                    assert client.simulate([point]).points[0].tier == "memo"
            # A resident repeat is answered at the gateway: no forward.
            assert _replica_requests(gw) == before
    finally:
        gw.shutdown()


def test_gateway_simulations_total_sums_the_replicas(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        with ServiceClient(gw.host, gw.port) as client:
            for point in _one_point_per_replica(gw):
                reply = client.simulate([point])
                assert reply.points[0].tier == "computed"
            sims = [replica.service.cache.simulations_run
                    for replica in gw.replicas]
            assert sims == [1, 1]
            assert reply.simulations_run_total == sum(sims)
            assert client.healthz().simulations_run == sum(sims)
    finally:
        gw.shutdown()


def test_gateway_drain_rejects_new_work_then_finishes(tmp_path):
    gw = launch_local_gateway(
        2, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        batch_window=0.002, health_interval=0.1)
    try:
        with ServiceClient(gw.host, gw.port) as client:
            client.simulate(HOT[:1])
            client.drain()
            with pytest.raises((ServiceError, OSError)):
                client.simulate(HOT[:1])
    finally:
        gw.shutdown()
    # Managed replicas were drained with the gateway.
    for replica in gw.replicas:
        assert replica.service._drained_event.is_set()


def test_spawn_thread_replicas_share_one_disk_cache(tmp_path):
    replicas = spawn_thread_replicas(
        2, str(tmp_path / "cache"), scale=SCALE, batch_window=0.002)
    try:
        with ServiceClient(replicas[0].host, replicas[0].port) as a:
            assert a.simulate(HOT[:1]).points[0].tier == "computed"
        with ServiceClient(replicas[1].host, replicas[1].port) as b:
            assert b.simulate(HOT[:1]).points[0].tier == "disk"
    finally:
        for replica in replicas:
            replica.service.shutdown()


# -- the point memo and the empty ring -------------------------------------

def _on_loop(gw, fn, *args):
    """Run ``fn(*args)`` on the gateway's event loop and wait for it."""
    async def call():
        return fn(*args)
    return asyncio.run_coroutine_threadsafe(call(), gw._loop).result(10)


def _evict_all(gw):
    for replica in gw.replicas:
        _on_loop(gw, gw._evict, replica, "evicted by the test")
    assert len(gw.ring) == 0


def _counter(gw, name):
    return gw.obs.metrics.snapshot()["counters"].get(name, 0)


def _fingerprints(points):
    return [spec.fingerprint for spec in parse_simulate_request(
        {"points": points}, SCALE, SoCConfig())]


def test_resident_point_costs_no_replica_request(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        resident, new = _one_point_per_replica(gw)
        with ServiceClient(gw.host, gw.port) as client:
            client.simulate([resident])
            before = _replica_requests(gw)
            reply = client.simulate([new, resident])
            # One forward for the new point, none for the resident one;
            # the reply keeps the request's point order.
            assert _replica_requests(gw) - before == 1
            assert [p.tier for p in reply.points] == ["computed", "memo"]
            assert [p.fingerprint for p in reply.points] == \
                _fingerprints([new, resident])
        assert _counter(gw, "gateway.memo.hits") == 1
    finally:
        gw.shutdown()


def test_memo_answer_is_the_replica_answer(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        point = _one_point_per_replica(gw)[0]
        owner = gw.replicas[0]
        for counters in (True, False):
            body = {"points": [point], "include_counters": counters}
            with ServiceClient(gw.host, gw.port) as client:
                client._request("POST", "/v1/simulate", body)
                (ours,) = client._request("POST", "/v1/simulate",
                                          body)["points"]
            with ServiceClient(owner.host, owner.port) as direct:
                (theirs,) = direct._request("POST", "/v1/simulate",
                                            body)["points"]
            assert ours["tier"] == "memo" and ours["coalesced"] is False
            assert ("counters" in ours) is counters
            # Every other field is the replica's, in the replica's order.
            assert list(ours) == list(theirs)
            for key in ours:
                if key not in ("tier", "coalesced"):
                    assert ours[key] == theirs[key], key
    finally:
        gw.shutdown()


@pytest.mark.parametrize("status", [429, 503, 504, 500])
def test_refusals_and_error_points_are_never_stored(tmp_path, status):
    gw = _quiet_gateway(tmp_path)
    try:
        point = _one_point_per_replica(gw)[0]
        (spec,) = parse_simulate_request(point, SCALE, SoCConfig())

        async def refuse(replica, body, ctx, deadline=None):
            if status == 500:  # a healthy replica's per-point failure
                payload = {"error": "sweep_failed", "points": [{
                    "workload": spec.workload, "design": spec.design.name,
                    "fingerprint": spec.fingerprint, "error": "boom"}]}
            else:
                payload = {"error": "refused", "message": "refused"}
            return status, json.dumps(payload).encode("utf-8")

        gw._forward = refuse
        with ServiceClient(gw.host, gw.port) as client:
            with pytest.raises(ServiceError) as err:
                client.simulate([point])
            assert err.value.status == status
            assert spec.fingerprint not in gw._point_memo
            del gw._forward  # the real hop again: nothing was stored
            assert client.simulate([point]).points[0].tier == "computed"
        assert _counter(gw, "gateway.memo.hits") == 0
    finally:
        gw.shutdown()


def test_counters_request_is_forwarded_when_the_entry_lacks_them(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        point = _one_point_per_replica(gw)[0]
        with ServiceClient(gw.host, gw.port) as client:
            assert client.simulate([point]).points[0].counters is None
            before = _replica_requests(gw)
            full = client.simulate([point], include_counters=True)
            assert _replica_requests(gw) - before == 1
            assert full.points[0].counters
            # The counted answer replaced the entry; both kinds of
            # request are now answered at the gateway, each with what
            # it asked for.
            again = client.simulate([point], include_counters=True)
            bare = client.simulate([point])
            assert _replica_requests(gw) - before == 1
            assert [again.points[0].tier, bare.points[0].tier] == \
                ["memo", "memo"]
            assert again.points[0].counters == full.points[0].counters
            assert bare.points[0].counters is None
    finally:
        gw.shutdown()


def test_point_memo_drops_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(gateway_module, "_MAX_POINT_MEMO", 2)
    gw = ShardGateway([Replica("r0", "127.0.0.1", 1)])
    for fingerprint in ("a", "b"):
        gw._memo_fill(fingerprint, {"fingerprint": fingerprint,
                                    "tier": "computed"})
    assert gw._memo_answer("a", False)["tier"] == "memo"  # a is now newest
    gw._memo_fill("c", {"fingerprint": "c", "tier": "computed"})
    assert list(gw._point_memo) == ["a", "c"]
    assert gw._memo_answer("b", False) is None


def test_resident_point_answered_with_every_replica_gone(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        point, unseen = _one_point_per_replica(gw)
        with ServiceClient(gw.host, gw.port) as client:
            client.simulate([point])
            for replica in gw.replicas:
                replica.service.shutdown()
            _evict_all(gw)
            assert client.simulate([point]).points[0].tier == "memo"
            # A point the memo cannot answer still finds no replica.
            with pytest.raises(ServiceError) as err:
                client.simulate([unseen])
            assert err.value.status == 503
            assert err.value.code == "no_replicas"
    finally:
        gw.shutdown()


def test_empty_ring_probes_evicted_replicas_before_503(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        _evict_all(gw)  # both replicas are alive, but out of the ring
        with ServiceClient(gw.host, gw.port) as client:
            assert client.simulate([HOT[0]]).points[0].tier == "computed"
        assert all(replica.healthy for replica in gw.replicas)
        assert _counter(gw, "gateway.readmissions") == 2
    finally:
        gw.shutdown()


def test_concurrent_requests_share_one_probe_round(tmp_path):
    gw = _quiet_gateway(tmp_path)
    try:
        probes = []
        check_health = gw._check_health

        async def counted(replica, timeout=None):
            probes.append((replica.id, timeout))
            await asyncio.sleep(0.05)
            return await check_health(replica, timeout)

        gw._check_health = counted
        _evict_all(gw)

        async def three_requests():
            await asyncio.gather(*(gw._recover_ring() for _ in range(3)))

        asyncio.run_coroutine_threadsafe(three_requests(), gw._loop).result(30)
        assert sorted(probes) == [("r0", gw.connect_timeout),
                                  ("r1", gw.connect_timeout)]
        assert tuple(gw.ring.members) == ("r0", "r1")
    finally:
        gw.shutdown()


def test_traced_memo_answer_emits_a_gateway_point_span(tmp_path):
    tracer = RecordingTracer()
    gw = launch_local_gateway(
        2, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        batch_window=0.002, health_interval=600.0,
        obs=Observability(tracer=tracer))
    ctx = TraceContext.new()
    try:
        with ServiceClient(gw.host, gw.port) as client:
            client.simulate(HOT[:1])
        with ServiceClient(gw.host, gw.port, trace_ctx=ctx) as client:
            assert client.simulate(HOT[:1]).points[0].tier == "memo"
    finally:
        gw.shutdown()
    events = stitch(tracer.events)[ctx.trace_id]
    spans = [e for e in events if e.get("ev") == "span"]
    request = next(s for s in spans if s["name"] == "gateway.request")
    (memo,) = [s for s in spans if s["name"] == "gateway.point"]
    assert memo["tier"] == "memo"
    assert memo["parent"] == request["span"]
    assert not any(s["name"] == "gateway.forward" for s in spans)
    assert "gateway.point" in render_trace(ctx.trace_id, events)
