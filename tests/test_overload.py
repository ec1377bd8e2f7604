"""Overload, deadline, and supervision behaviour of server and gateway."""

import http.client
import json
import threading
import time

import pytest

from repro.experiments.common import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import launch_local_gateway
from repro.service.jobs import JobJournal
from repro.service.server import ExperimentService
from repro.system.designs import DESIGNS_BY_NAME

SCALE = 0.05
POINT = {"workload": "bfs", "design": "baseline-512"}
OTHER_POINT = {"workload": "bfs", "design": "ideal-mmu"}
THIRD_POINT = {"workload": "kmeans", "design": "baseline-512"}


def _start_service(tmp_path, **kwargs):
    kwargs.setdefault("batch_window", 0.005)
    svc = ExperimentService(
        port=0, jobs=1, scale=SCALE, cache_dir=str(tmp_path / "cache"),
        **kwargs)
    svc.start_in_thread()
    return svc


def _occupy(service, point=POINT):
    """Start a cold request in a thread; returns (thread, error holder)."""
    errors = []

    def _run():
        try:
            with ServiceClient(service.host, service.port,
                               timeout=120.0) as client:
                client.simulate([point])
        except Exception as exc:  # surfaced by the caller
            errors.append(exc)

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread, errors


# -- admission control ----------------------------------------------------

def test_server_sheds_over_max_inflight(tmp_path):
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.5)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.15)  # land inside the first wave's batch window
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate([OTHER_POINT])
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"
            health = client.healthz()
            assert health.raw["shed_total"] >= 1
            assert health.raw["max_inflight"] == 1
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


def test_shed_response_carries_retry_after(tmp_path):
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.5)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.15)
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=30.0)
        try:
            conn.request("POST", "/v1/simulate",
                         body=json.dumps({"points": [OTHER_POINT]}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 429
            retry_after = response.getheader("Retry-After")
            assert retry_after is not None and float(retry_after) > 0
            assert json.loads(raw)["error"] == "overloaded"
        finally:
            conn.close()
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


def test_duplicate_inflight_point_is_never_shed(tmp_path):
    # A duplicate of an in-flight point coalesces for free, so admission
    # must not count it against the budget.
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.5)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.15)
        with ServiceClient(service.host, service.port,
                           timeout=120.0) as client:
            reply = client.simulate([POINT])  # same point: coalesces
            assert reply.points[0].cycles > 0
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


def test_memo_resident_point_is_answered_when_the_budget_is_full(tmp_path):
    # Memo hits never reach the pool, so they never count against
    # max_inflight and are never shed.
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.5)
    try:
        with ServiceClient(service.host, service.port,
                           timeout=120.0) as client:
            client.simulate([OTHER_POINT])  # now memo-resident
            thread, errors = _occupy(service)  # a cold point takes the slot
            time.sleep(0.15)
            reply = client.simulate([OTHER_POINT])
            assert reply.points[0].tier == "memo"
            assert client.healthz().raw["shed_total"] == 0
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert not errors, errors
    finally:
        service.shutdown()


def test_memo_hit_passes_while_resumed_jobs_overfill_the_budget(tmp_path):
    # Replayed jobs bypass admission, so more points than max_inflight
    # can be in flight; a request that adds no pool work is still
    # admitted.
    journal = tmp_path / "jobs.rpck"
    for index, point in enumerate((POINT, THIRD_POINT)):
        JobJournal(journal).record_submitted(
            f"job-{index}", json.dumps({"points": [point]}).encode("utf-8"),
            f"{index:016x}", time.time())
    cache = ResultCache(scale=SCALE)
    cache.run("bfs", DESIGNS_BY_NAME["IDEAL MMU"])  # OTHER_POINT
    service = ExperimentService(port=0, cache=cache, max_inflight=1,
                                batch_window=1.0, jobs_journal=str(journal))
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port,
                           timeout=120.0) as client:
            assert _wait_until(
                lambda: client.healthz().raw["inflight_points"] == 2,
                timeout=0.9)
            reply = client.simulate([OTHER_POINT])
            assert reply.points[0].tier == "memo"
    finally:
        service.shutdown()


def test_client_retries_through_shed(tmp_path):
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.4)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.1)
        with ServiceClient(service.host, service.port, timeout=120.0,
                           retries=5, retry_budget_s=60.0,
                           retry_seed=7) as client:
            reply = client.simulate([OTHER_POINT])
            assert reply.points[0].cycles > 0
            assert client.retries_performed >= 1
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


# -- deadline propagation -------------------------------------------------

def test_expired_deadline_returns_504(tmp_path):
    service = _start_service(tmp_path)
    try:
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate([THIRD_POINT], deadline_ms=1.0)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
    finally:
        service.shutdown()


def test_memo_resident_point_beats_a_short_deadline(tmp_path):
    # The batch window (0.5 s) is longer than the deadline (20 ms): only
    # an answer that skips the batcher can meet it.
    service = _start_service(tmp_path, batch_window=0.5)
    try:
        with ServiceClient(service.host, service.port) as client:
            client.simulate([POINT])
            reply = client.simulate([POINT], deadline_ms=20.0)
            assert reply.points[0].tier == "memo"
    finally:
        service.shutdown()


def test_malformed_deadline_header_is_400(tmp_path):
    service = _start_service(tmp_path)
    try:
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=30.0)
        try:
            conn.request("POST", "/v1/simulate",
                         body=json.dumps({"points": [POINT]}),
                         headers={"Content-Type": "application/json",
                                  "X-Deadline-Ms": "soonish"})
            response = conn.getresponse()
            response.read()
            assert response.status == 400
        finally:
            conn.close()
    finally:
        service.shutdown()


def test_nonpositive_deadline_header_is_504(tmp_path):
    service = _start_service(tmp_path)
    try:
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=30.0)
        try:
            conn.request("POST", "/v1/simulate",
                         body=json.dumps({"points": [POINT]}),
                         headers={"Content-Type": "application/json",
                                  "X-Deadline-Ms": "-5"})
            response = conn.getresponse()
            response.read()
            assert response.status == 504
        finally:
            conn.close()
    finally:
        service.shutdown()


# -- gateway passthrough --------------------------------------------------

def test_gateway_passes_shed_through_without_hedging(tmp_path):
    gateway = launch_local_gateway(
        1, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        batch_window=0.5, max_inflight=1, health_interval=0.2)
    try:
        thread, errors = _occupy(gateway)
        time.sleep(0.15)
        with ServiceClient(gateway.host, gateway.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate([OTHER_POINT])
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"
        counters = gateway.obs.metrics.snapshot()["counters"]
        assert counters.get("gateway.sheds", 0) >= 1
        # Shedding is backpressure, not failure: the replica keeps its
        # place in the pool.
        assert gateway.replicas[0].healthy
        assert gateway.replicas[0].evictions == 0
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        gateway.shutdown()


def test_gateway_passes_deadline_through(tmp_path):
    gateway = launch_local_gateway(
        1, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        health_interval=0.2)
    try:
        with ServiceClient(gateway.host, gateway.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate([THIRD_POINT], deadline_ms=2.0)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
        assert gateway.replicas[0].healthy  # 504 is not a replica fault
    finally:
        gateway.shutdown()


# -- supervision ----------------------------------------------------------

def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_supervisor_respawns_dead_thread_replica(tmp_path):
    gateway = launch_local_gateway(
        2, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        supervise=True, health_interval=0.05, probe_failure_threshold=2,
        respawn_backoff_base=0.05, respawn_backoff_max=0.5,
        flap_window=0.0)
    try:
        victim = gateway.replicas[0]
        old_port = victim.port
        victim.service.shutdown()

        assert _wait_until(lambda: victim.respawns >= 1 and victim.healthy)
        assert victim.port != old_port or victim.service is not None
        assert not victim.given_up

        with ServiceClient(gateway.host, gateway.port,
                           timeout=120.0, retries=3) as client:
            reply = client.simulate([POINT, OTHER_POINT])
            assert len(reply.points) == 2
            health = client.healthz()
            assert health.pool["replicas_healthy"] == 2
        counters = gateway.obs.metrics.snapshot()["counters"]
        assert counters.get("gateway.respawns", 0) >= 1
    finally:
        gateway.shutdown()


def test_flap_detector_gives_up_and_alarms(tmp_path):
    gateway = launch_local_gateway(
        2, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        supervise=True, health_interval=0.05, probe_failure_threshold=2,
        respawn_backoff_base=0.02, respawn_backoff_max=0.1,
        flap_window=3600.0, flap_threshold=2)
    try:
        victim = gateway.replicas[0]
        victim.service.shutdown()
        assert _wait_until(lambda: victim.respawns >= 1 and victim.healthy)

        victim.service.shutdown()  # second rapid death trips the alarm
        assert _wait_until(lambda: victim.given_up)
        assert victim.respawns == 1  # no respawn after giving up
        counters = gateway.obs.metrics.snapshot()["counters"]
        assert counters.get("gateway.alarms.flapping", 0) >= 1

        # The gateway degrades to the surviving replica instead of dying.
        with ServiceClient(gateway.host, gateway.port,
                           timeout=120.0, retries=3) as client:
            reply = client.simulate([POINT])
            assert reply.points[0].cycles > 0
            health = client.healthz()
            assert health.pool["replicas_healthy"] == 1
            assert health.raw["replicas"][victim.id]["given_up"] is True
    finally:
        gateway.shutdown()


def test_eviction_needs_consecutive_probe_failures(tmp_path):
    gateway = launch_local_gateway(
        2, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        health_interval=0.05, probe_failure_threshold=4)
    try:
        victim = gateway.replicas[0]
        victim.service.shutdown()
        # With no client traffic, only probes can evict — and that takes
        # probe_failure_threshold consecutive failures.
        assert _wait_until(lambda: not victim.healthy)
        assert victim.probe_failures >= 4
    finally:
        gateway.shutdown()
