"""Closed-loop load test for the experiment service and shard gateway.

Drives N concurrent clients against a running
:class:`~repro.service.server.ExperimentService` (or one it spawns
in-process) and reports, per concurrency level, the p50/p95/p99 request
latency and the sustained throughput — then locates the *saturation
knee*: the concurrency past which added clients stop buying throughput
and only buy queueing delay.  A level whose throughput collapses to
zero (every request failed) is the most extreme knee of all and is
reported at the last level that still moved requests.  Failures are
broken down by class — ``shed`` (429 admission control), ``deadline``
(504), ``connection`` (transport), ``other`` — and every level reports
its shed rate, so overload-protection behaviour is visible alongside
the saturation knee it exists to defend.

This is the service-layer analogue of the paper's Figure 5 bandwidth
sweep: the batching server is the shared resource, the request stream
is the translation traffic, and the memo/disk cache tiers are the
filters.  A load test against a warm cache measures the *filtered*
path — HTTP plus a memo read on the server's event loop, with no batch
window — which is why thousands of requests per second are achievable
over a simulator that takes milliseconds per point.

Each client is closed-loop (it issues the next request only after the
previous response lands), so offered load scales with the number of
clients and the latency distribution is honest — there is no
coordinated-omission distortion from a paced open loop.

Two stream shapes are supported:

* the default *batch* stream — every request carries the full point
  list (the PR 6 behaviour), and
* a *mixed hot/cold* stream (``cold_points`` + ``cold_every``) — each
  request carries one point, clients rotate through the hot set with
  offset phases, and every ``cold_every``-th request touches a point
  from the larger cold set instead.  Single-point requests are what a
  consistent-hash gateway actually shards, and the periodic cold
  touches keep the shared disk tier and the ring's tail in play.

:func:`shard_sweep` repeats the whole sweep against a locally spawned
:class:`~repro.service.gateway.ShardGateway` at increasing replica
counts over one shared disk cache, producing the scaling curve
committed as ``benchmarks/perf/BENCH_PR13_shard.json``.

Usage::

    repro-experiment loadtest                       # self-spawned server
    repro-experiment loadtest --lt-clients 1,2,4,8,16 --lt-requests 50
    repro-experiment loadtest --lt-target 127.0.0.1:8000   # running server
    repro-experiment loadtest --lt-target '[::1]:8000'     # IPv6 target
    repro-experiment loadtest --lt-replicas 1,2,3          # shard sweep
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import LatencyHistogram
from repro.service.client import (
    ServiceClient,
    ServiceError,
    TransportError,
    parse_target,
)

__all__ = [
    "DEFAULT_LEVELS",
    "DEFAULT_POINTS",
    "FAILURE_CLASSES",
    "LevelResult",
    "LoadtestReport",
    "SHARD_COLD_POINTS",
    "SHARD_HOT_POINTS",
    "ShardReport",
    "classify_failure",
    "find_knee",
    "main",
    "run",
    "shard_sweep",
]

#: Failure classes a level breaks its failures down into: ``shed``
#: (429 admission control), ``deadline`` (504 budget exhausted),
#: ``connection`` (transport-level: resets, timeouts, digest
#: mismatches), and ``other`` (any remaining wrong status).
FAILURE_CLASSES: Tuple[str, ...] = ("shed", "deadline", "connection",
                                    "other")


def classify_failure(exc: BaseException) -> str:
    """Map one failed request's exception to a :data:`FAILURE_CLASSES` key."""
    if isinstance(exc, TransportError):
        return "connection"
    if isinstance(exc, ServiceError):
        if exc.status == 429:
            return "shed"
        if exc.status == 504:
            return "deadline"
        return "other"
    if isinstance(exc, (OSError, TimeoutError)):
        return "connection"
    return "other"

#: Concurrency levels swept by default (doubling, like the fig5 sweep).
DEFAULT_LEVELS: Tuple[int, ...] = (1, 2, 4, 8)

#: The request body every client issues: one cheap point that the
#: service resolves from its memo tier after the first wave, so the
#: test loads the service path rather than the simulator.
DEFAULT_POINTS: Tuple[Tuple[str, str], ...] = (("bfs", "baseline-512"),)

#: Hot set for the shard sweep: distinct points spread over the hash
#: ring so every replica owns a share of the hot stream.  There are at
#: least as many hot points as the deepest swept concurrency level, so
#: concurrent clients drive *distinct* fingerprints — otherwise
#: single-flight coalescing retires many requests per wave and inflates
#: the unsharded baseline.
SHARD_HOT_POINTS: Tuple[Tuple[str, str], ...] = tuple(
    (workload, design)
    for workload in ("bfs", "kmeans", "pagerank", "hotspot")
    for design in ("baseline-512", "ideal-mmu", "vc-with-opt",
                   "baseline-16k", "baseline-128-entry-tlbs-16k",
                   "l1-only-vc-128"))

#: Cold set for the shard sweep: rarely-touched points that land on the
#: shared disk tier the first time each replica sees them.
SHARD_COLD_POINTS: Tuple[Tuple[str, str], ...] = tuple(
    (workload, design)
    for workload in ("pathfinder", "nw")
    for design in ("baseline-512", "vc-w-o-opt", "l1-only-vc-32"))

#: Throughput must improve by at least this factor per doubling of
#: clients to count as "still scaling"; below it, the knee is called.
KNEE_GAIN_THRESHOLD = 1.10


def _format_target(host: str, port: int) -> str:
    """``host:port`` with IPv6 hosts bracketed."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


@dataclass(frozen=True)
class LevelResult:
    """Aggregate outcome of one concurrency level."""

    concurrency: int
    requests: int
    failures: int
    wall_seconds: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    failure_classes: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        """Fraction of this level's requests the service shed (429)."""
        if self.requests <= 0:
            return 0.0
        return self.failure_classes.get("shed", 0) / self.requests

    def as_dict(self) -> Dict[str, object]:
        return {
            "concurrency": self.concurrency,
            "requests": self.requests,
            "failures": self.failures,
            "failure_classes": {cls: self.failure_classes.get(cls, 0)
                                for cls in FAILURE_CLASSES},
            "shed_rate": round(self.shed_rate, 4),
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
        }


@dataclass
class LoadtestReport:
    """All levels plus the detected saturation knee."""

    target: str
    points: List[Tuple[str, str]]
    requests_per_client: int
    levels: List[LevelResult] = field(default_factory=list)
    knee_concurrency: Optional[int] = None
    cold_points: List[Tuple[str, str]] = field(default_factory=list)
    cold_every: int = 0

    @property
    def ok(self) -> bool:
        return all(level.failures == 0 for level in self.levels)

    def as_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "points": [list(p) for p in self.points],
            "cold_points": [list(p) for p in self.cold_points],
            "cold_every": self.cold_every,
            "requests_per_client": self.requests_per_client,
            "levels": [level.as_dict() for level in self.levels],
            "knee_concurrency": self.knee_concurrency,
        }

    def render(self) -> str:
        stream = (f", 1 cold in {self.cold_every} from "
                  f"{len(self.cold_points)} cold point(s)"
                  if self.cold_every and self.cold_points else "")
        lines = [
            f"Service load test against {self.target} "
            f"({self.requests_per_client} requests/client, "
            f"points: {', '.join('/'.join(p) for p in self.points)}{stream})",
            "",
            f"{'clients':>7s} {'req':>6s} {'fail':>5s} {'shed%':>6s} "
            f"{'req/s':>9s} {'p50 ms':>9s} {'p95 ms':>9s} {'p99 ms':>9s}",
        ]
        for level in self.levels:
            lines.append(
                f"{level.concurrency:7d} {level.requests:6d} "
                f"{level.failures:5d} {level.shed_rate:6.1%} "
                f"{level.throughput_rps:9.1f} "
                f"{level.p50_ms:9.3f} {level.p95_ms:9.3f} "
                f"{level.p99_ms:9.3f}"
            )
        breakdown = {cls: sum(level.failure_classes.get(cls, 0)
                              for level in self.levels)
                     for cls in FAILURE_CLASSES}
        if any(breakdown.values()):
            lines.append("")
            lines.append(
                "failure breakdown: " + ", ".join(
                    f"{count} {cls}" for cls, count in breakdown.items()
                    if count))
        lines.append("")
        if self.knee_concurrency is not None:
            lines.append(
                f"saturation knee at {self.knee_concurrency} client(s): "
                f"beyond it, added clients buy <"
                f"{KNEE_GAIN_THRESHOLD - 1:.0%} throughput per doubling")
        else:
            lines.append(
                "no saturation knee within the swept levels "
                "(throughput still scaling at the highest concurrency)")
        return "\n".join(lines)


def find_knee(levels: Sequence[LevelResult],
              gain_threshold: float = KNEE_GAIN_THRESHOLD) -> Optional[int]:
    """The last concurrency that still scaled, or None if all levels did.

    Scanning adjacent levels, the knee is the lower level of the first
    pair whose throughput ratio falls below ``gain_threshold``.  A
    successor level with *zero* throughput — every request failed, the
    most extreme saturation there is — reports the knee at the last
    level that still moved requests, rather than being skipped as if
    the service were still scaling.  Zero-throughput levels never
    anchor a ratio themselves.
    """
    last_nonzero: Optional[LevelResult] = None
    for prev, nxt in zip(levels, levels[1:]):
        if prev.throughput_rps > 0:
            last_nonzero = prev
        if nxt.throughput_rps <= 0:
            # Throughput collapse: knee at the last productive level
            # (None when no level ever moved a request).
            if last_nonzero is not None:
                return last_nonzero.concurrency
            continue
        if prev.throughput_rps <= 0:
            continue  # a zero level cannot anchor a ratio
        if nxt.throughput_rps / prev.throughput_rps < gain_threshold:
            return prev.concurrency
    return None


def _request_schedule(
    client_index: int,
    n_requests: int,
    points: Sequence[Tuple[str, str]],
    cold_points: Sequence[Tuple[str, str]],
    cold_every: int,
) -> List[List[Tuple[str, str]]]:
    """The per-request point lists one closed-loop client will issue.

    Without a cold set every request carries the full ``points`` list
    (the original batch stream).  With one, each request carries a
    single point: clients walk the hot set with phase offset
    ``client_index`` (so concurrent clients spread over the ring
    instead of convoying on one replica), and every ``cold_every``-th
    request substitutes the next cold point.
    """
    if not cold_points or cold_every <= 0:
        return [list(points)] * n_requests
    hot = [[tuple(p)] for p in points]
    cold = [[tuple(p)] for p in cold_points]
    schedule: List[List[Tuple[str, str]]] = []
    cold_seen = 0
    for i in range(n_requests):
        if (i + 1) % cold_every == 0:
            schedule.append(cold[(client_index + cold_seen) % len(cold)])
            cold_seen += 1
        else:
            schedule.append(hot[(client_index + i) % len(hot)])
    return schedule


def _client_loop(host: str, port: int,
                 schedule: List[List[Tuple[str, str]]],
                 barrier: threading.Barrier,
                 latencies: List[float], failures: Dict[str, int],
                 lock: threading.Lock) -> None:
    """One closed-loop client: wait at the barrier, then issue requests."""
    local_lat: List[float] = []
    local_fail: Dict[str, int] = {}
    with ServiceClient(host, port, timeout=120.0) as client:
        barrier.wait()
        for request_points in schedule:
            start = time.perf_counter()
            try:
                client.simulate(request_points)
            except (ServiceError, OSError, TimeoutError) as exc:
                cls = classify_failure(exc)
                local_fail[cls] = local_fail.get(cls, 0) + 1
                continue
            local_lat.append(time.perf_counter() - start)
    with lock:
        latencies.extend(local_lat)
        for cls, count in local_fail.items():
            failures[cls] = failures.get(cls, 0) + count


def _run_level(host: str, port: int, concurrency: int,
               points: List[Tuple[str, str]],
               n_requests: int,
               cold_points: Sequence[Tuple[str, str]] = (),
               cold_every: int = 0) -> LevelResult:
    latencies: List[float] = []
    failures: Dict[str, int] = {}
    lock = threading.Lock()
    barrier = threading.Barrier(concurrency + 1)
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(host, port,
                  _request_schedule(i, n_requests, points, cold_points,
                                    cold_every),
                  barrier, latencies, failures, lock),
            name=f"loadtest-client-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()  # release every client at once
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = max(time.perf_counter() - wall_start, 1e-9)

    hist = LatencyHistogram()
    for value in latencies:
        hist.record(value)
    n_ok = len(latencies)
    n_fail = sum(failures.values())
    return LevelResult(
        concurrency=concurrency,
        requests=n_ok + n_fail,
        failures=n_fail,
        wall_seconds=wall,
        throughput_rps=n_ok / wall,
        p50_ms=hist.percentile(50) * 1e3 if n_ok else 0.0,
        p95_ms=hist.percentile(95) * 1e3 if n_ok else 0.0,
        p99_ms=hist.percentile(99) * 1e3 if n_ok else 0.0,
        mean_ms=hist.mean * 1e3 if n_ok else 0.0,
        failure_classes=dict(failures),
    )


def run(
    host: str,
    port: int,
    levels: Sequence[int] = DEFAULT_LEVELS,
    requests_per_client: int = 8,
    points: Sequence[Tuple[str, str]] = DEFAULT_POINTS,
    cold_points: Sequence[Tuple[str, str]] = (),
    cold_every: int = 0,
) -> LoadtestReport:
    """Sweep the concurrency levels against an already-running service.

    A single warm-up request primes the cache tiers first (hot *and*
    cold points), so every timed level measures the steady-state
    service path instead of one level absorbing the initial simulation
    cost.  ``cold_points``/``cold_every`` switch the clients to the
    mixed hot/cold single-point stream (see the module docstring).
    """
    points = [tuple(p) for p in points]
    cold_points = [tuple(p) for p in cold_points]
    with ServiceClient(host, port, timeout=600.0) as client:
        client.simulate(points + cold_points)  # warm the cache tiers
    report = LoadtestReport(
        target=_format_target(host, port), points=list(points),
        requests_per_client=requests_per_client,
        cold_points=list(cold_points), cold_every=cold_every)
    for concurrency in levels:
        report.levels.append(
            _run_level(host, port, concurrency, points, requests_per_client,
                       cold_points=cold_points, cold_every=cold_every))
    report.knee_concurrency = find_knee(report.levels)
    return report


@dataclass
class ShardReport:
    """The scaling curve of one gateway sweep over replica counts."""

    replica_counts: List[int]
    levels: List[int]
    requests_per_client: int
    points: List[Tuple[str, str]]
    cold_points: List[Tuple[str, str]]
    cold_every: int
    mode: str
    scale: float
    batch_window: float
    max_batch: int
    reports: Dict[int, LoadtestReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.reports) and all(
            r.ok for r in self.reports.values())

    def best_throughput(self, count: int) -> float:
        report = self.reports[count]
        return max((level.throughput_rps for level in report.levels),
                   default=0.0)

    def speedups(self) -> Dict[int, float]:
        """Best throughput per count relative to the first swept count."""
        if not self.reports:
            return {}
        base = self.best_throughput(self.replica_counts[0])
        if base <= 0:
            return {count: 0.0 for count in self.replica_counts}
        return {count: self.best_throughput(count) / base
                for count in self.replica_counts}

    def as_dict(self) -> Dict[str, object]:
        speedups = self.speedups()
        return {
            "replica_counts": list(self.replica_counts),
            "levels": list(self.levels),
            "requests_per_client": self.requests_per_client,
            "points": [list(p) for p in self.points],
            "cold_points": [list(p) for p in self.cold_points],
            "cold_every": self.cold_every,
            "mode": self.mode,
            "scale": self.scale,
            "batch_window": self.batch_window,
            "max_batch": self.max_batch,
            "best_throughput_rps": {
                str(count): round(self.best_throughput(count), 1)
                for count in self.replica_counts},
            "speedup_vs_first": {
                str(count): round(speedups.get(count, 0.0), 3)
                for count in self.replica_counts},
            "knee_concurrency": {
                str(count): self.reports[count].knee_concurrency
                for count in self.replica_counts if count in self.reports},
            "reports": {str(count): report.as_dict()
                        for count, report in self.reports.items()},
        }

    def render(self) -> str:
        speedups = self.speedups()
        lines = [
            f"Shard scaling sweep ({self.mode} replicas, "
            f"batch_window={self.batch_window}, max_batch={self.max_batch}, "
            f"{len(self.points)} hot / {len(self.cold_points)} cold points, "
            f"1 cold in {self.cold_every})",
            "",
            f"{'replicas':>8s} {'best req/s':>11s} {'speedup':>8s} "
            f"{'knee':>5s}",
        ]
        for count in self.replica_counts:
            report = self.reports.get(count)
            knee = report.knee_concurrency if report is not None else None
            lines.append(
                f"{count:8d} {self.best_throughput(count):11.1f} "
                f"{speedups.get(count, 0.0):7.2f}x "
                f"{'-' if knee is None else knee:>5}")
        for count in self.replica_counts:
            report = self.reports.get(count)
            if report is not None:
                lines.extend(["", f"--- {count} replica(s) ---",
                              report.render()])
        return "\n".join(lines)


def shard_sweep(
    replica_counts: Sequence[int] = (1, 2, 3),
    levels: Sequence[int] = (2, 4, 8, 16, 24),
    requests_per_client: int = 16,
    points: Sequence[Tuple[str, str]] = SHARD_HOT_POINTS,
    cold_points: Sequence[Tuple[str, str]] = SHARD_COLD_POINTS,
    cold_every: int = 8,
    scale: float = 0.05,
    jobs: int = 1,
    batch_window: float = 0.04,
    max_batch: int = 4,
    replica_mode: str = "subprocess",
    cache_dir: Optional[str] = None,
) -> ShardReport:
    """Run the mixed hot/cold sweep at each replica count (one gateway each).

    All counts share one disk-cache directory, so only the first sweep
    pays the simulation cost; later counts warm every replica's memo
    from the shared disk tier — exactly the deployment story the
    gateway exists for.  A paced batcher admits at most ``max_batch``
    points per ``batch_window`` per replica, but only disk and computed
    points wait for it: memo hits are answered on each replica's event
    loop, so warm throughput is bounded by the CPU the gateway and
    replica event loops get, and more replicas raise it only when there
    are cores to run them on.
    """
    from repro.service.gateway import launch_local_gateway

    own_tempdir = None
    if cache_dir is None:
        own_tempdir = tempfile.TemporaryDirectory(prefix="repro-shard-")
        cache_dir = own_tempdir.name
    report = ShardReport(
        replica_counts=list(replica_counts), levels=list(levels),
        requests_per_client=requests_per_client,
        points=[tuple(p) for p in points],
        cold_points=[tuple(p) for p in cold_points],
        cold_every=cold_every, mode=replica_mode, scale=scale,
        batch_window=batch_window, max_batch=max_batch)
    try:
        for count in replica_counts:
            print(f"shard sweep: spawning gateway with {count} "
                  f"{replica_mode} replica(s)", flush=True)
            gateway = launch_local_gateway(
                count, mode=replica_mode, cache_dir=cache_dir, scale=scale,
                jobs=jobs, batch_window=batch_window, max_batch=max_batch)
            try:
                report.reports[count] = run(
                    gateway.host, gateway.port, levels=levels,
                    requests_per_client=requests_per_client, points=points,
                    cold_points=cold_points, cold_every=cold_every)
            finally:
                gateway.shutdown()
            best = report.best_throughput(count)
            print(f"shard sweep: {count} replica(s) -> {best:.1f} req/s",
                  flush=True)
    finally:
        if own_tempdir is not None:
            own_tempdir.cleanup()
    return report


def main(
    target: Optional[str] = None,
    levels: Sequence[int] = DEFAULT_LEVELS,
    requests_per_client: int = 8,
    points: Sequence[Tuple[str, str]] = DEFAULT_POINTS,
    scale: Optional[float] = None,
    jobs: int = 1,
    out: Optional[str] = None,
    replica_counts: Optional[Sequence[int]] = None,
    cold_points: Sequence[Tuple[str, str]] = (),
    cold_every: int = 0,
    batch_window: Optional[float] = None,
    max_batch: Optional[int] = None,
) -> int:
    """CLI entry (``repro-experiment loadtest``); returns an exit code.

    Without ``target`` (``host:port``), a private in-process service is
    spawned on a free port with a throwaway cache directory and drained
    afterwards, so the load test is fully self-contained.  With
    ``replica_counts``, the sweep instead runs :func:`shard_sweep`
    against locally spawned gateways (mutually exclusive with
    ``target``).  Exit codes: 0 success, 1 the test ran but failed
    (including an unreachable target), 2 bad arguments.
    """
    if replica_counts:
        if target is not None:
            print("repro-experiment: error: --lt-replicas and --lt-target "
                  "are mutually exclusive (the shard sweep spawns its own "
                  "gateways)")
            return 2
        sweep_points = (SHARD_HOT_POINTS
                        if tuple(tuple(p) for p in points) == DEFAULT_POINTS
                        else points)
        try:
            report = shard_sweep(
                replica_counts=replica_counts, levels=levels,
                requests_per_client=requests_per_client, points=sweep_points,
                cold_points=tuple(cold_points) or SHARD_COLD_POINTS,
                cold_every=cold_every or 8,
                scale=scale if scale is not None else 0.05, jobs=jobs,
                batch_window=(batch_window
                              if batch_window is not None else 0.04),
                max_batch=max_batch if max_batch is not None else 4)
        except (ServiceError, OSError) as exc:
            print(f"repro-experiment: error: shard sweep failed: {exc}")
            return 1
        print(report.render())
        if out is not None:
            path = Path(out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
            print(f"wrote {out}")
        return 0 if report.ok else 1

    service = None
    tempdir = None
    if target is None:
        from repro.service.server import ExperimentService

        tempdir = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
        service = ExperimentService(
            port=0, jobs=jobs, scale=scale if scale is not None else 0.05,
            cache_dir=tempdir.name,
            batch_window=(batch_window
                          if batch_window is not None else 0.002),
            max_batch=max_batch if max_batch is not None else 64)
        host, port = service.start_in_thread()
        print(f"loadtest: spawned in-process service on {host}:{port}")
    else:
        try:
            host, port = parse_target(target)
        except ValueError as exc:
            print(f"repro-experiment: error: --lt-target {exc}")
            return 2
    try:
        report = run(host, port, levels=levels,
                     requests_per_client=requests_per_client, points=points,
                     cold_points=cold_points, cold_every=cold_every)
    except (ServiceError, OSError) as exc:
        # A dead target (connection refused, reset, HTTP error on the
        # warm-up request) is a *result*, not a crash: report it
        # cleanly with the documented non-zero exit.
        print(f"repro-experiment: error: load test against "
              f"{_format_target(host, port)} failed: {exc}")
        return 1
    finally:
        if service is not None:
            service.shutdown()
        if tempdir is not None:
            tempdir.cleanup()
    print(report.render())
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0 if report.ok else 1
