"""Durable jobs: journal unit behaviour, restart recovery, SIGTERM flush."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.robustness.checkpoint import append_record
from repro.service.client import ServiceClient
from repro.service.jobs import JobJournal
from repro.service.server import ExperimentService

SCALE = 0.05
POINT = {"workload": "bfs", "design": "baseline-512"}
OTHER_POINT = {"workload": "bfs", "design": "ideal-mmu"}

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- journal unit tests ---------------------------------------------------

def test_journal_round_trip(tmp_path):
    journal = JobJournal(tmp_path / "jobs.rpck")
    body = json.dumps({"points": [POINT]}).encode("utf-8")
    journal.record_submitted("job-1", body, "trace-1", 123.0)
    journal.record_finished("job-1", "done", {"points": []}, 124.0)

    fresh = JobJournal(tmp_path / "jobs.rpck")
    jobs = fresh.replay()
    assert [j.job_id for j in jobs] == ["job-1"]
    job = jobs[0]
    assert job.finished
    assert job.status == "done"
    assert job.payload == {"points": []}
    assert job.body == body
    assert job.trace_id == "trace-1"


def test_journal_unfinished_job_preserved(tmp_path):
    journal = JobJournal(tmp_path / "jobs.rpck")
    body = json.dumps({"points": [POINT]}).encode("utf-8")
    journal.record_submitted("job-crashed", body, "trace-x", 1.0)

    jobs = JobJournal(tmp_path / "jobs.rpck").replay()
    assert len(jobs) == 1
    assert not jobs[0].finished
    assert jobs[0].body == body


def test_journal_torn_tail_repaired(tmp_path):
    path = tmp_path / "jobs.rpck"
    journal = JobJournal(path)
    journal.record_submitted("job-1", b"{}", "t", 1.0)
    journal.record_finished("job-1", "done", {"points": []}, 2.0)
    with open(path, "ab") as handle:
        handle.write(b"\x00garbage torn tail")

    fresh = JobJournal(path)
    jobs = fresh.replay()
    assert fresh.repaired_bytes > 0
    assert [j.job_id for j in jobs] == ["job-1"]
    assert jobs[0].finished


def test_journal_orphan_finished_dropped(tmp_path):
    journal = JobJournal(tmp_path / "jobs.rpck")
    journal.record_finished("ghost", "done", {"points": []}, 1.0)
    assert JobJournal(tmp_path / "jobs.rpck").replay() == []


def test_journal_malformed_record_skipped(tmp_path):
    path = tmp_path / "jobs.rpck"
    append_record(path, ("not-a-job-record", 42))
    journal = JobJournal(path)
    journal.record_submitted("job-1", b"{}", "t", 1.0)
    jobs = JobJournal(path).replay()
    assert [j.job_id for j in jobs] == ["job-1"]


# -- in-process restart recovery ------------------------------------------

def _service(tmp_path, journal_name="jobs.rpck"):
    return ExperimentService(
        port=0, jobs=1, scale=SCALE, cache_dir=str(tmp_path / "cache"),
        batch_window=0.005, jobs_journal=str(tmp_path / journal_name))


def test_restart_serves_finished_job(tmp_path):
    first = _service(tmp_path)
    first.start_in_thread()
    try:
        with ServiceClient(first.host, first.port) as client:
            job_id = client.submit([POINT])
            result = client.wait(job_id, timeout=120.0)
            cycles = result.points[0].cycles
    finally:
        first.shutdown()

    second = _service(tmp_path)
    second.start_in_thread()
    try:
        with ServiceClient(second.host, second.port) as client:
            reply = client.poll(job_id)
            assert reply.status == "done"
            assert reply.result is not None
            assert reply.result.points[0].cycles == cycles
    finally:
        second.shutdown()


def test_restart_resumes_unfinished_job(tmp_path):
    # Simulate a crash after the submit was journaled but before the
    # job ran: only the "submitted" record exists on disk.
    journal = JobJournal(tmp_path / "jobs.rpck")
    body = json.dumps({"points": [POINT]}).encode("utf-8")
    journal.record_submitted("job-resume", body, "trace-resume", time.time())

    service = _service(tmp_path)
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port) as client:
            result = client.wait("job-resume", timeout=120.0)
            assert len(result.points) == 1
            assert result.points[0].cycles > 0
    finally:
        service.shutdown()

    # The resumed run must itself have been journaled as finished.
    jobs = JobJournal(tmp_path / "jobs.rpck").replay()
    assert [j.job_id for j in jobs] == ["job-resume"]
    assert jobs[0].finished and jobs[0].status == "done"


def test_restart_replays_invalid_body_as_failed(tmp_path):
    journal = JobJournal(tmp_path / "jobs.rpck")
    journal.record_submitted("job-bad", b"not json at all", "t", time.time())

    service = _service(tmp_path)
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port) as client:
            reply = client.poll("job-bad")
            assert reply.status == "failed"
    finally:
        service.shutdown()


def test_restart_replay_is_idempotent(tmp_path):
    """A second restart over the same journal serves the same jobs as the
    first, byte for byte, without appending a record or simulating."""
    path = tmp_path / "jobs.rpck"
    journal = JobJournal(path)
    body = json.dumps({"points": [POINT]}).encode("utf-8")
    journal.record_submitted("job-done", body, "trace-done", 10.0)
    journal.record_finished("job-done", "done", {"points": []}, 11.0)
    journal.record_submitted("job-unfinished", body, "trace-unfinished", 12.0)
    journal.record_submitted("job-bad", b"not json at all", "trace-bad", 13.0)
    job_ids = ("job-done", "job-unfinished", "job-bad")

    def restart():
        service = _service(tmp_path)
        service.start_in_thread()
        try:
            with ServiceClient(service.host, service.port) as client:
                client.wait("job-unfinished", timeout=120.0)
                # Raw replies: ServiceClient.poll drops completed_unix.
                # Every reply's trace_id is its own request's.
                replies = {}
                for job_id in job_ids:
                    reply = client._request("GET", f"/v1/jobs/{job_id}")
                    reply.pop("trace_id")
                    replies[job_id] = reply
                simulations = client.healthz().simulations_run
        finally:
            service.shutdown()
        return replies, simulations

    first, _ = restart()
    assert [first[job_id]["status"] for job_id in job_ids] == [
        "done", "done", "failed"]
    assert all("completed_unix" in reply for reply in first.values())
    settled = path.read_bytes()
    second, simulations = restart()
    assert second == first
    assert path.read_bytes() == settled
    assert simulations == 0


# -- subprocess SIGTERM flush (the real crash drill) ----------------------

def test_sigterm_flushes_job_journal_and_restart_serves(tmp_path):
    """SIGTERM with a journaled job: drain finishes it, the journal holds
    its terminal record, and a restarted server serves the result."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SCALE", None)
    journal_path = tmp_path / "jobs.rpck"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c",
         "from repro.experiments.cli import main; raise SystemExit(main())",
         "serve", "--port", "0", "--scale", "0.1",
         "--cache-dir", str(tmp_path / "cache"),
         "--jobs-journal", str(journal_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(tmp_path))
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner, banner
        port = int(banner.rsplit(":", 1)[1])

        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            job_id = client.submit([POINT])
        assert journal_path.exists()  # journaled before the ack

        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, stdout
        assert "drained cleanly" in stdout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    # The drain flushed the job's terminal record.
    jobs = JobJournal(journal_path).replay()
    assert [j.job_id for j in jobs] == [job_id]
    assert jobs[0].finished and jobs[0].status == "done"

    # A restarted server serves the recorded result without recompute.
    restarted = ExperimentService(
        port=0, jobs=1, scale=0.1, cache_dir=str(tmp_path / "cache"),
        batch_window=0.005, jobs_journal=str(journal_path))
    restarted.start_in_thread()
    try:
        with ServiceClient(restarted.host, restarted.port) as client:
            reply = client.poll(job_id)
            assert reply.status == "done"
            assert reply.result is not None
            assert reply.result.points[0].cycles > 0
    finally:
        restarted.shutdown()
