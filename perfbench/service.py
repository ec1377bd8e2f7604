"""The service workload: ``service_mixed``.

An open loop at one fixed offered rate, sent from this process over at
most two keep-alive connections to ``repro-experiment serve --replicas
2`` (a sharding gateway in front of two replica subprocesses that share
one ``--cache-dir``).  Each request is timed from its scheduled send
time, so a stall also counts against the requests queued behind it.

Set-up warms the compiled trace store and precomputes the disk-tier
points in a separate process, starts the gateway, and touches every
hot point once so it is memo-resident in its home replica.  The stream
is then mostly single-point memo hits, plus figure-row requests the
gateway splits across replicas, first touches of disk-tier points, a
few never-computed points and a few ``/v1/sweep`` jobs polled until
done.  The service's traces keep their default seeds; the run seed
sets the schedule and the mix.

``python3 -m perfbench.service SETUP.json`` is the set-up process.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.disk_cache import DiskCache
from repro.experiments.sweepspec import OutputSpec, SweepSpec
from repro.obs.trace_context import TraceContext
from repro.service.client import ServiceClient
from repro.system.run import simulate
from repro.workloads import registry

from perfbench import points, promtext
from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    WORK,
    child_pids,
    median,
    nworkers,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    self_maxrss_mb,
    write_spans,
)

#: Cold points: one physical, one full-VC and one L1-only design on one
#: small workload, so every computing wave is short and costs about the
#: same.
COLD_WORKLOAD = "pagerank"
COLD_DESIGNS = ("Baseline 512", "VC With OPT", "L1-Only VC (128)")
DESIGNS = ("IDEAL MMU", "Baseline 512", "Baseline 16K", "VC W/O OPT",
           "VC With OPT", "L1-Only VC (128)")
#: Share of each request kind in the stream; the rest are memo hits.
#: Every gateway reply probes both replicas' ``/healthz``, so a hot
#: request in flight while either replica computes a wave can wait for
#: it.  A run prints two shares of hot requests: those in flight beside
#: a request that computed (3.7-5.7% over twenty 30 s runs on a 2-vCPU
#: host) and those slower than twice the median (0.25-1.4%).  The second
#: sits near 1%, so ``hot_p99_ms`` can move between delayed and
#: undelayed requests from seed to seed.  The cold share is chosen to
#: give ``cold_p50_ms`` about 70 samples in a 30 s run, not for the p99.
MIX = {"row": 0.06, "disk": 0.03, "cold": 0.08, "job": 0.04}
#: Workloads in one ``/v1/sweep`` job's grid (every design of each).
JOB_WORKLOADS = 3
POLL_INTERVAL = 0.002

#: DRAM latencies that make disk-tier and never-computed points distinct
#: fingerprints (fractional parts .75 and .25, so the two never collide).
DISK_DRAM = 160.75
COLD_DRAM = 120.25

Point = Tuple[str, str, Optional[float]]  # workload, design, dram_latency


@dataclass(frozen=True)
class ServiceShape:
    scale: float
    rate: float  # offered requests per second
    workloads: Tuple[str, ...]


SHAPE = ServiceShape(0.02, 30.0, ("bfs", "mis", "pagerank", "kmeans",
                                  "hotspot", "backprop"))
TINY_SHAPE = ServiceShape(0.02, 20.0, ("bfs", "kmeans"))


@dataclass(frozen=True)
class Request:
    offset: float  # scheduled send time, seconds after the phase starts
    kind: str  # memo | row | disk | cold | job
    points: Tuple[Point, ...]


def schedule(seed: int, seconds: float, shape: ServiceShape = SHAPE
             ) -> List[Request]:
    """The timed phase's requests: a pure function of the seed.

    The phase is cut into one slot per request at ``shape.rate``; each
    request is sent at a uniformly drawn time inside its slot.  The
    number of requests of each kind is fixed, and each non-memo kind
    gets one slot per equal stretch of the phase (drawn by the seed), so
    the interference cold waves cause is spread evenly over the phase
    instead of depending on how the seed clusters them.
    """
    rng = random.Random(f"perfbench-service:{seed}")
    n = max(len(MIX) + 1, round(shape.rate * seconds))
    counts = {kind: max(1, round(n * share)) for kind, share in MIX.items()}
    kinds: List[Optional[str]] = [None] * n
    for kind, count in counts.items():
        for j in range(count):
            lo, hi = j * n // count, max(j * n // count + 1, (j + 1) * n // count)
            free = [i for i in range(lo, hi) if kinds[i] is None] or [
                i for i in range(n) if kinds[i] is None]
            kinds[rng.choice(free)] = kind
    kinds = [kind or "memo" for kind in kinds]
    offsets = [(i + rng.random()) * seconds / n for i in range(n)]
    hot = hot_points(shape)
    disk_cells = [rng.choice(hot) for _ in range(counts["disk"])]
    out = []
    disk = cold = 0
    for offset, kind in zip(offsets, kinds):
        if kind == "memo":
            pts: Tuple[Point, ...] = (rng.choice(hot),)
        elif kind == "row":
            workload = rng.choice(shape.workloads)
            pts = tuple((workload, d, None) for d in DESIGNS)
        elif kind == "disk":
            workload, design, _ = disk_cells[disk]
            pts = ((workload, design, DISK_DRAM + disk),)
            disk += 1
        elif kind == "cold":
            pts = ((COLD_WORKLOAD, COLD_DESIGNS[cold % len(COLD_DESIGNS)],
                    COLD_DRAM + cold),)
            cold += 1
        else:
            chosen = rng.sample(shape.workloads,
                                min(JOB_WORKLOADS, len(shape.workloads)))
            pts = tuple((w, d, None) for w in chosen for d in DESIGNS)
        out.append(Request(offset, kind, pts))
    return out


def hot_points(shape: ServiceShape) -> List[Point]:
    return [(w, d, None) for w in shape.workloads for d in DESIGNS]


def self_cpu_s() -> float:
    """CPU time this process (every thread) has used so far."""
    times = os.times()
    return times.user + times.system


def _body_config(point: Point) -> Optional[Dict[str, float]]:
    return None if point[2] is None else {"dram_latency": point[2]}


# -- set-up process ----------------------------------------------------------

def setup_main(spec_path: str) -> int:
    """Warm the trace store and precompute points into the shared cache dir."""
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    cache_dir = Path(spec["cache_dir"])
    scale = spec["scale"]
    registry.set_trace_cache(cache_dir / "traces")
    disk = DiskCache(cache_dir)
    for workload in spec["workloads"]:
        registry.load(workload, scale=scale)
    for workload, design_name, dram in spec["points"]:
        design = points.design_named(design_name)
        config = points.soc_config(dram)
        trace = registry.load(workload, scale=scale)
        hierarchy = design.build(config, {0: trace.address_space.page_table})
        result = simulate(trace, hierarchy, design.soc_config(config),
                          design=design.name)
        disk.store(points.fingerprint(workload, scale, None, design, config),
                   result)
    print(json.dumps({"maxrss_mb": self_maxrss_mb()}), flush=True)
    return 0


# -- the gateway -------------------------------------------------------------

class Gateway:
    """``repro-experiment serve --replicas 2`` as a subprocess of this run."""

    def __init__(self, cache_dir: Path, scale: float, env: Dict[str, str],
                 cwd: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--replicas", "2", "--port", "0", "--cache-dir", str(cache_dir),
             "--scale", repr(scale)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(cwd))
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._await_banner(timeout=120.0)
        self.replica_pids = child_pids(self.process.pid)

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _await_banner(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("gateway did not start: "
                                   + "".join(self.output)[-2000:])
            self.output.append(line)
            if "listening on http://" in line:
                return int(line.strip().rsplit(":", 1)[1])

    def pids(self) -> List[int]:
        return [self.process.pid] + child_pids(self.process.pid)

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(pid) for pid in self.pids())

    def cpu_s(self) -> float:
        """CPU time the gateway and its replicas have used so far."""
        return sum(proc_cpu_s(pid) for pid in self.pids())

    def stop(self) -> None:
        """SIGTERM drains the gateway and its replicas; kill what outlives it."""
        pids = child_pids(self.process.pid) + self.replica_pids
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        for pid in set(pids):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"repro.experiments.cli" not in handle.read():
                        continue  # exited; the pid may belong to someone else
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self._reader.join(timeout=10)


# -- the load generator ------------------------------------------------------

@dataclass
class Outcome:
    request: Request
    traced: bool
    latency: float = 0.0  # from the scheduled send time to the reply
    lag: float = 0.0  # how late the send started against its schedule
    sent: float = 0.0  # perf_counter at the send and at the reply
    done: float = 0.0
    tiers: List[str] = field(default_factory=list)
    error: Optional[str] = None
    wrong: List[str] = field(default_factory=list)
    summaries: Dict[Point, Dict[str, object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.wrong

    @property
    def computed(self) -> bool:
        return "computed" in self.tiers


def overlaps(outcome: Outcome, others: List[Outcome]) -> bool:
    """Whether ``outcome`` was in flight at the same time as any of ``others``."""
    return any(o is not outcome and o.sent < outcome.done
               and outcome.sent < o.done for o in others)


def check_reply(request: Request, reply_points, refs: Dict[Point, Dict]
                ) -> Tuple[List[str], List[str], Dict[Point, Dict[str, object]]]:
    """Compare every point of a reply with the oracle.

    Returns the tiers, the disagreements and the replied summaries.
    ``reply_points`` are :class:`~repro.service.client.PointReply`
    objects in request order.
    """
    tiers, wrong, seen = [], [], {}
    if len(reply_points) != len(request.points):
        return tiers, [f"{len(reply_points)} points for a "
                       f"{len(request.points)}-point request"], seen
    for point, reply in zip(request.points, reply_points):
        if reply is None:
            wrong.append(f"{point[0]}/{point[1]}/{point[2]}: not in the reply")
            continue
        tiers.append(reply.tier)
        got = {"cycles": reply.cycles, "instructions": reply.instructions,
               "requests": reply.requests, "counters": reply.counters}
        why = points.mismatch(refs[point], got)
        if why is not None:
            wrong.append(f"{point[0]}/{point[1]}/{point[2]}: {why}")
        seen[point] = got
    return tiers, wrong, seen


def _send(client, request: Request, shape: ServiceShape) -> list:
    """Send one request; returns its point replies in request order."""
    if request.kind != "job":
        return client.simulate(
            [{"workload": w, "design": d} for w, d, _ in request.points],
            config=_body_config(request.points[0]),
            include_counters=True).points
    spec = SweepSpec.grid(
        sorted({p[0] for p in request.points}), DESIGNS,
        scale=shape.scale, output=OutputSpec(include_counters=True))
    job_id = client.sweep(spec)
    reply = client.poll(job_id)
    while not reply.done:
        time.sleep(POLL_INTERVAL)
        reply = client.poll(job_id)
    if reply.status != "done" or reply.result is None:
        raise RuntimeError(f"job {job_id} {reply.status}")
    by_key = {(p.workload, p.design): p for p in reply.result.points}
    return [by_key.get((w, d)) for w, d, _ in request.points]


def drive(port: int, requests: List[Request], shape: ServiceShape, refs,
          traced_every: int = 0, connections: int = 1
          ) -> Tuple[List[Outcome], List[Dict[str, object]]]:
    """Send ``requests`` on schedule over ``connections`` keep-alive clients.

    With ``traced_every`` = k > 0, every k-th request carries a trace
    context and gets a client span; the rest run untraced.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    spans: List[Dict[str, object]] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker() -> None:
        client = ServiceClient("127.0.0.1", port, timeout=120.0)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                request = requests[index]
                traced = traced_every > 0 and index % traced_every == 0
                client.trace_ctx = TraceContext.new() if traced else None
                due = start + request.offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                outcome = Outcome(request, traced)
                try:
                    replies = _send(client, request, shape)
                except Exception as exc:  # counted as a failed request
                    outcome.error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                outcome.latency = done - due
                outcome.lag = sent - due
                outcome.sent, outcome.done = sent, done
                if outcome.error is None:
                    outcome.tiers, outcome.wrong, outcome.summaries = \
                        check_reply(request, replies, refs)
                outcomes[index] = outcome
                if traced:
                    with lock:
                        spans.append({
                            "name": "client.request", "kind": request.kind,
                            "trace_id": client.trace_ctx.trace_id,
                            "start": sent, "end": done, "parent": None,
                            "tiers": outcome.tiers})
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [o if o is not None
            else Outcome(r, False, error="never sent: load generator failed")
            for r, o in zip(requests, outcomes)], spans


# -- the run -----------------------------------------------------------------

class ServiceBench:
    """One run of ``service_mixed``: oracle, set-up, timed stream, metrics."""

    def __init__(self, seed: int, seconds: float, trace: bool, run_dir: Path,
                 shape: ServiceShape = SHAPE) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.shape = shape
        self.requests = schedule(seed, seconds, shape)
        self.setup_times: List[float] = []
        self.setup_peak_mb = 0.0
        self.report: List[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])

    def all_points(self) -> List[Point]:
        seen = dict.fromkeys(hot_points(self.shape))
        for request in self.requests:
            seen.update(dict.fromkeys(request.points))
        return list(seen)

    def record_oracle(self) -> Dict[Point, Dict[str, object]]:
        keys = self.all_points()
        tasks = [(w, self.shape.scale, None, d, dram) for w, d, dram in keys]
        pool = points.make_pool()
        try:
            refs = points.record_references(
                pool, points.OracleStore(WORK / "oracle"), tasks)
        finally:
            pool.shutdown(wait=True)
        return {key: refs[task] for key, task in zip(keys, tasks)}

    def setup_once(self, index: int, refs) -> Tuple[Gateway, List[Outcome]]:
        """Set-up process, gateway start, and one touch of every hot point."""
        started = time.perf_counter()
        cache_dir = self.run_dir / f"setup{index}" / "cache"
        cache_dir.mkdir(parents=True)
        precompute = hot_points(self.shape) + [
            r.points[0] for r in self.requests if r.kind == "disk"]
        spec_path = cache_dir.parent / "setup.json"
        spec_path.write_text(json.dumps({
            "cache_dir": str(cache_dir), "scale": self.shape.scale,
            "workloads": sorted(set(self.shape.workloads) | {COLD_WORKLOAD}),
            "points": [list(p) for p in precompute]}))
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.service", str(spec_path)],
            env=self.env, cwd=str(self.run_dir), capture_output=True,
            text=True, timeout=170, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"service set-up failed: {done.stderr[-2000:]}")
        self.setup_peak_mb = max(self.setup_peak_mb, json.loads(
            done.stdout.strip().splitlines()[-1])["maxrss_mb"])
        gateway = Gateway(cache_dir, self.shape.scale, self.env, self.run_dir)
        try:
            warm = [Request(0.0, "memo", (p,)) for p in hot_points(self.shape)]
            warm += [Request(0.0, "row", tuple((w, d, None) for d in DESIGNS))
                     for w in self.shape.workloads]
            outcomes, _ = drive(gateway.port, warm, self.shape, refs)
        except BaseException:
            gateway.stop()
            raise
        self.setup_times.append(time.perf_counter() - started)
        return gateway, outcomes

    def run(self) -> Tuple[bool, int, int, Dict[str, float]]:
        refs = self.record_oracle()
        gateway = None
        warm_outcomes: List[Outcome] = []
        try:
            for index in range(SETUP_REPEATS):
                if gateway is not None:
                    gateway.stop()
                    gateway = None
                gateway, outcomes = self.setup_once(index, refs)
                warm_outcomes.extend(outcomes)
            with ServiceClient("127.0.0.1", gateway.port, timeout=60.0) as client:
                before = promtext.parse(client.metrics_text())
                cpu = (time.perf_counter(), self_cpu_s(), gateway.cpu_s())
                outcomes, spans = drive(
                    gateway.port, self.requests, self.shape, refs,
                    traced_every=2 if self.trace else 0,
                    connections=nworkers())
                wall, client_cpu, tree_cpu = (
                    b - a for a, b in zip(cpu, (time.perf_counter(), self_cpu_s(),
                                                gateway.cpu_s())))
                after = promtext.parse(client.metrics_text())
            self.report.append(
                f"CPU over the {wall:.2f}s phase: client {client_cpu:.2f}s, "
                f"gateway + replicas {tree_cpu:.2f}s "
                f"({(client_cpu + tree_cpu) / wall:.2f} of "
                f"{len(os.sched_getaffinity(0))} CPUs on average)")
            tree_peak = gateway.peak_rss_mb()
        finally:
            if gateway is not None:
                gateway.stop()
        return self._results(warm_outcomes, outcomes, spans, before, after,
                             tree_peak)

    def _results(self, warm, outcomes, spans, before, after, tree_peak
                 ) -> Tuple[bool, int, int, Dict[str, float]]:
        everything = warm + outcomes
        failed = [o for o in everything if not o.ok]
        wrong = [w for o in everything for w in o.wrong]
        for o in failed[:10]:
            self.report.append(f"FAILED {o.request.kind}: "
                               f"{o.error or '; '.join(o.wrong)}")
        plain = [o for o in outcomes if o.ok and not o.traced]
        hot = [o.latency for o in plain if o.request.kind != "job"
               and not o.computed]
        cold = [o.latency for o in plain if o.request.kind != "job"
                and o.computed]
        jobs = [o.latency for o in outcomes if o.ok and o.request.kind == "job"]
        kinds: Dict[str, int] = {}
        for o in outcomes:
            kinds[o.request.kind] = kinds.get(o.request.kind, 0) + 1
        hot_p50 = median(hot)
        computing = [o for o in outcomes if o.ok and o.computed]
        overlapped = sum(1 for o in plain if o.request.kind != "job"
                         and not o.computed and overlaps(o, computing))
        self.report.append(
            "hot latency ms: " + ", ".join(
                f"p{q:g} {1000 * percentile(hot, q):.1f}"
                for q in (50, 90, 95, 98, 99)) + f", max {1000 * max(hot):.1f}"
            + f"; send lag ms: p50 {1000 * median([o.lag for o in outcomes]):.1f}"
            f", p99 {1000 * percentile([o.lag for o in outcomes], 99):.1f}")
        self.report.append(
            f"service_mixed: scale {self.shape.scale}, {len(outcomes)} requests "
            f"at {self.shape.rate:g}/s over {nworkers()} connection(s) "
            + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
            + f"; hot {len(hot)} (in flight beside a computing request: "
            f"{overlapped / len(hot):.2%}; slower than 2x p50: "
            f"{sum(1 for t in hot if t > 2 * hot_p50) / len(hot):.2%}), "
            f"cold {len(cold)}, jobs {len(jobs)}; set-ups "
            + ", ".join(f"{t:.3f}s" for t in self.setup_times)
            + "; every point starts with empty modelled caches and TLBs")
        metrics = {
            "setup_time": median(self.setup_times),
            "sweep_s": median(jobs),
            "hot_p50_ms": 1000.0 * hot_p50,
            "cold_p50_ms": 1000.0 * median(cold),
            "peak_rss_mb": self_maxrss_mb() + max(self.setup_peak_mb, tree_peak),
        }
        if self.trace:
            write_spans(WORK / "spans" / f"service_mixed-seed{self.seed}.jsonl",
                        spans)
            metrics.update(self._layer_metrics(outcomes, before, after, hot_p50))
        return not wrong, len(everything), len(failed), metrics

    def _layer_metrics(self, outcomes, before, after, hot_p50
                       ) -> Dict[str, float]:
        def ms(instrument: str, q: float) -> float:
            value = promtext.delta_percentile(before, after, instrument, q)
            return 0.0 if value is None else 1000.0 * value

        def count(instrument: str) -> float:
            return promtext.counter(after, instrument) - promtext.counter(
                before, instrument)

        out = {
            "gateway.request_ms.p50": ms("gateway.request_seconds", 50),
            "gateway.request_ms.p99": ms("gateway.request_seconds", 99),
            "gateway.forward_ms.p50": ms("gateway.forward_seconds", 50),
            "gateway.forward_ms.p99": ms("gateway.forward_seconds", 99),
            "service.request_ms.p50": ms("service.request_seconds", 50),
            "service.request_ms.p99": ms("service.request_seconds", 99),
            "service.tier_ms.memo.p50": ms("service.latency.memo", 50),
            "service.tier_ms.memo.p99": ms("service.latency.memo", 99),
            "service.tier_ms.computed.p50": ms("service.latency.computed", 50),
            "service.tier_ms.computed.p99": ms("service.latency.computed", 99),
            "service.tier_ms.disk.p50": ms("service.latency.disk", 50),
            "service.simulations_run": (
                promtext.gauge(after, "service.simulations_run")
                - promtext.gauge(before, "service.simulations_run")),
            "service.job_ms.p50": 1000.0 * median(
                [o.latency for o in outcomes if o.request.kind == "job"]),
            "loadgen.lag_ms.p99": 1000.0 * percentile(
                [o.lag for o in outcomes], 99.0),
        }
        for instrument in ("service.tier.memo", "service.tier.disk",
                           "service.tier.computed", "service.points.coalesced",
                           "gateway.route.single", "gateway.route.split",
                           "gateway.hedged_points", "gateway.sheds",
                           "service.points.failed"):
            out[instrument] = count(instrument)
        replied: Dict[Point, Dict[str, object]] = {}
        for o in outcomes:
            for key, summary in o.summaries.items():
                replied.setdefault(key, summary)
        out.update(points.model_counts(list(replied.values())))
        hot = [o for o in outcomes
               if o.ok and o.request.kind != "job" and not o.computed]
        # Client spans cost microseconds, so traced and untraced hot
        # requests together give the tail.
        out["hot_p99_ms"] = 1000.0 * percentile([o.latency for o in hot], 99.0)
        out["obs.overhead_frac"] = median(
            [o.latency for o in hot if o.traced]) / hot_p50 - 1.0
        return out


if __name__ == "__main__":
    sys.exit(setup_main(sys.argv[1]))
