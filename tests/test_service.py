"""End-to-end tests for the simulation service (server, client, protocol).

Covers the acceptance criteria of the service PR: cache-tier
provenance (an identical second request performs zero new
simulations), single-flight coalescing of duplicate concurrent
requests, graceful SIGTERM drain with a flushed checkpoint, the
async job API, and the error surface (400/404/405/503/sweep
failures).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.robustness.checkpoint import CheckpointStore
from repro.service import (
    DESIGNS_BY_NAME,
    ExperimentService,
    ProtocolError,
    ServiceClient,
    ServiceError,
    design_slug,
    launch_local_gateway,
)
from repro.service.protocol import parse_simulate_request
from repro.system.config import SoCConfig

SCALE = 0.05
POINT = {"workload": "bfs", "design": "baseline-512"}
OTHER_POINT = {"workload": "bfs", "design": "ideal-mmu"}

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def service(tmp_path):
    """An in-process service on a random port, drained at teardown."""
    svc = ExperimentService(
        port=0, jobs=1, scale=SCALE, cache_dir=str(tmp_path / "cache"),
        batch_window=0.005)
    svc.start_in_thread()
    try:
        yield svc
    finally:
        svc.shutdown()


@pytest.fixture
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


@pytest.fixture(params=["service", "gateway"])
def front(request, tmp_path):
    """Either front end: a plain service or a 1-replica thread gateway."""
    if request.param == "service":
        yield request.getfixturevalue("service")
        return
    gw = launch_local_gateway(
        1, mode="thread", cache_dir=str(tmp_path / "cache"), scale=SCALE,
        batch_window=0.005)
    try:
        yield gw
    finally:
        gw.shutdown()


# -- protocol unit tests --------------------------------------------------

def test_design_slug_round_trip():
    assert design_slug("VC With OPT") == "vc-with-opt"
    assert design_slug("Baseline 512") == "baseline-512"
    # Every preset's canonical name and slug resolves to the preset.
    for name, design in DESIGNS_BY_NAME.items():
        [spec] = parse_simulate_request(
            {"workload": "bfs", "design": name}, SCALE, SoCConfig())
        assert spec.design is design


def test_resolve_design_rejects_unknown():
    with pytest.raises(ProtocolError) as exc:
        parse_simulate_request(
            {"workload": "bfs", "design": "no-such-design"}, SCALE,
            SoCConfig())
    assert exc.value.status == 400
    assert exc.value.code == "bad_request"
    assert "known designs" in exc.value.message


def test_config_overrides_scalar_only():
    base = SoCConfig()

    def parse(config):
        return parse_simulate_request({**POINT, "config": config}, SCALE, base)

    assert parse({"n_cus": 4})[0].config.n_cus == 4
    for config, fragment in (
        ({"l1": {"size_bytes": 1}}, "not a scalar"),  # nested
        ({"no_such_field": 1}, "unknown SoCConfig field"),
        ({"n_cus": "eight"}, "must be a number or null"),
    ):
        with pytest.raises(ProtocolError) as exc:
            parse(config)
        assert exc.value.status == 400
        assert exc.value.code == "bad_request"
        assert fragment in exc.value.message


def test_parse_simulate_request_shapes():
    base = SoCConfig()
    single = parse_simulate_request(POINT, SCALE, base)
    assert len(single) == 1 and single[0].workload == "bfs"
    many = parse_simulate_request(
        {"points": [POINT, OTHER_POINT], "scale": 0.1}, SCALE, base)
    assert [s.scale for s in many] == [0.1, 0.1]
    # Identical points get identical fingerprints (the coalescing key).
    dup = parse_simulate_request({"points": [POINT, POINT]}, SCALE, base)
    assert dup[0].fingerprint == dup[1].fingerprint
    with pytest.raises(ProtocolError):
        parse_simulate_request({"points": []}, SCALE, base)
    with pytest.raises(ProtocolError):
        parse_simulate_request({"scale": -1, **POINT}, SCALE, base)
    with pytest.raises(ProtocolError):
        parse_simulate_request([POINT], SCALE, base)  # not an object


# -- cache-tier provenance ------------------------------------------------

def test_second_identical_request_hits_memo_with_zero_new_sims(client):
    first = client.simulate([POINT])
    assert [p.tier for p in first.points] == ["computed"]
    sims_after_first = first.simulations_run_total
    assert sims_after_first == 1

    second = client.simulate([POINT])
    assert [p.tier for p in second.points] == ["memo"]
    # The acceptance criterion: zero new simulations, by the sim counter.
    assert second.simulations_run_total == sims_after_first
    assert second.points[0].cycles == first.points[0].cycles
    assert second.points[0].fingerprint == first.points[0].fingerprint

    metrics = client.metrics()
    assert metrics["counters"]["service.tier.computed"] == 1
    assert metrics["counters"]["service.tier.memo"] == 1
    assert metrics["gauges"]["service.simulations_run"] == 1
    # Per-tier latency histograms are exposed on /metrics.
    assert metrics["histograms"]["service.latency.computed"]["count"] == 1
    assert metrics["histograms"]["service.latency.memo"]["count"] == 1
    assert metrics["histograms"]["service.request_seconds"]["count"] >= 2


def test_memo_hit_does_not_wait_for_the_batch_window(tmp_path):
    svc = ExperimentService(port=0, jobs=1, scale=SCALE,
                            cache_dir=str(tmp_path / "cache"),
                            batch_window=0.5)
    svc.start_in_thread()
    try:
        with ServiceClient(svc.host, svc.port) as c:
            assert c.simulate([POINT]).points[0].tier == "computed"
            again = c.simulate([POINT])
            assert again.points[0].tier == "memo"
            # Answered on the event loop, not after the 0.5 s window.
            assert again.wall_seconds < 0.25
    finally:
        svc.shutdown()


def test_disk_tier_survives_a_restart(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = ExperimentService(port=0, jobs=1, scale=SCALE,
                              cache_dir=cache_dir)
    first.start_in_thread()
    try:
        with ServiceClient(first.host, first.port) as c:
            assert c.simulate([POINT]).points[0].tier == "computed"
    finally:
        first.shutdown()

    second = ExperimentService(port=0, jobs=1, scale=SCALE,
                               cache_dir=cache_dir)
    second.start_in_thread()
    try:
        with ServiceClient(second.host, second.port) as c:
            reply = c.simulate([POINT])
            assert reply.points[0].tier == "disk"
            assert reply.simulations_run_total == 0  # nothing recomputed
            assert c.simulate([POINT]).points[0].tier == "memo"
    finally:
        second.shutdown()


def test_duplicate_points_in_one_request_coalesce(client):
    reply = client.simulate([POINT, POINT, POINT])
    assert reply.simulations_run_total == 1
    assert [p.coalesced for p in reply.points] == [False, True, True]
    assert len({p.fingerprint for p in reply.points}) == 1


# -- single-flight across concurrent requests -----------------------------

def test_concurrent_duplicate_requests_run_exactly_one_simulation(service):
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    replies, errors = [], []

    def worker():
        with ServiceClient(service.host, service.port) as c:
            barrier.wait()
            try:
                replies.append(c.simulate([POINT]))
            except BaseException as exc:  # noqa: BLE001 - surface in assert
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors
    assert len(replies) == n_threads
    # Exactly one computation happened; every reply saw the same result.
    assert {r.simulations_run_total for r in replies} == {1}
    cycles = {r.points[0].cycles for r in replies}
    assert len(cycles) == 1
    coalesced = sorted(r.points[0].coalesced for r in replies)
    assert coalesced.count(False) == 1  # one starter ...
    tiers = [r.points[0].tier for r in replies]
    assert all(t in ("computed", "memo") for t in tiers)
    metrics = ServiceClient(service.host, service.port).metrics()
    assert metrics["counters"]["service.tier.computed"] == 1


# -- async jobs -----------------------------------------------------------

def test_job_submit_poll_fetch(client):
    job_id = client.submit([POINT, OTHER_POINT])
    reply = client.poll(job_id)
    assert reply.job_id == job_id and reply.n_points == 2
    done = client.wait(job_id, timeout=120)
    assert {p.design for p in done.points} == {"Baseline 512", "IDEAL MMU"}
    assert all(p.tier == "computed" for p in done.points)
    # The finished record keeps serving after completion.
    assert client.poll(job_id).status == "done"


def test_job_polls_carry_the_submits_trace_id(client):
    # A poll reports on the job, so its trace id is the one the job's
    # spans carry (the submit's), not the poll's own fresh one.
    submitted = client._request("POST", "/v1/jobs", {"points": [POINT]},
                                idempotent=False)
    polls = [client._request("GET", f"/v1/jobs/{submitted['job_id']}")
             for _ in range(2)]
    assert [poll["trace_id"] for poll in polls] == [submitted["trace_id"]] * 2
    assert client.last_trace_id != submitted["trace_id"]
    client.wait(submitted["job_id"], timeout=120)


def test_unknown_job_is_404(client):
    with pytest.raises(ServiceError) as exc:
        client.poll("not-a-job")
    assert exc.value.status == 404 and exc.value.code == "not_found"


# -- error surface --------------------------------------------------------

def test_unknown_workload_is_400(client):
    with pytest.raises(ServiceError) as exc:
        client.simulate([{"workload": "no-such", "design": "baseline-512"}])
    assert exc.value.status == 400
    assert exc.value.code == "bad_request"
    assert "known workloads" in exc.value.message


def test_unknown_route_is_404_and_wrong_method_is_405(front):
    with ServiceClient(front.host, front.port) as client:
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v1/nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v1/simulate")
        assert exc.value.status == 405
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/simulate", [])
        assert exc.value.status == 400 and exc.value.code == "bad_request"


def test_healthz_shape_and_per_request_overrides(client):
    health = client.healthz()
    assert health.status == "ok"
    assert health.pool["jobs"] == 1
    assert "bfs" in health.raw["workloads"]
    assert "vc-with-opt" in health.raw["designs"]
    # A per-request scale override is a different point (new fingerprint).
    base = client.simulate([POINT])
    scaled = client.simulate([POINT], scale=0.1,
                             config={"dram_latency": 400})
    assert scaled.points[0].fingerprint != base.points[0].fingerprint
    assert scaled.points[0].scale == 0.1
    # ... and the default-scale point is still memoized independently.
    assert client.simulate([POINT]).points[0].tier == "memo"


def test_new_work_rejected_with_503_while_draining(front):
    with ServiceClient(front.host, front.port) as c:
        job_id = c.submit([OTHER_POINT])  # occupy the front end ...
        c.drain()  # ... so the drain stays in progress
        with pytest.raises(ServiceError) as exc:
            c.simulate([POINT])
        assert exc.value.status == 503 and exc.value.code == "draining"
        assert c.healthz().status == "draining"
    front.shutdown()
    # The in-flight job still completed before the drain finished.
    record = front._jobs[job_id]
    assert record["status"] == "done"


# -- the shipped example --------------------------------------------------

def test_service_client_example_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SCALE", None)
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "service_client.py"),
         "0.05"],
        capture_output=True, text=True, timeout=300,
        env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "submitted job" in proc.stdout
    assert "[computed]" in proc.stdout
    assert "[memo]" in proc.stdout
    assert "0 new simulations" in proc.stdout
    assert "service drained cleanly" in proc.stdout


# -- SIGTERM drain (the CLI path, in a real subprocess) -------------------

def test_sigterm_drains_in_flight_wave_and_flushes_checkpoint(tmp_path):
    checkpoint = tmp_path / "serve.ckpt"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SCALE", None)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c",
         "from repro.experiments.cli import main; raise SystemExit(main())",
         "serve", "--port", "0", "--scale", "0.1",
         "--checkpoint", str(checkpoint)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(tmp_path))
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner, banner
        port = int(banner.rsplit(":", 1)[1])

        outcome = {}

        def request():
            try:
                with ServiceClient("127.0.0.1", port) as c:
                    outcome["reply"] = c.simulate(
                        [{"workload": "pagerank", "design": "baseline-512"}])
            except BaseException as exc:  # noqa: BLE001 - surface in assert
                outcome["error"] = exc

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.5)  # let the wave start computing ...
        proc.send_signal(signal.SIGTERM)  # ... then ask for a drain
        thread.join(180)
        assert not thread.is_alive()
        stdout = proc.stdout.read()
        code = proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(30)

    # The in-flight request was answered, not dropped.
    assert outcome.get("error") is None, outcome.get("error")
    reply = outcome["reply"]
    assert reply.points[0].tier == "computed"
    assert reply.points[0].cycles > 0
    # The drain was clean: exit 0 and the farewell line.
    assert code == 0
    assert "repro-service drained cleanly" in stdout
    # The checkpoint was flushed with the completed point.
    records = CheckpointStore(str(checkpoint)).load()
    assert reply.points[0].fingerprint in records
