"""Network-chaos resilience suite: seeded faults between gateway and replicas.

``repro-experiment chaos`` (PR 4) proves the *simulator* survives
hostile VM events; this suite (``repro-experiment chaos --net``) proves
the *service* survives a hostile network.  It builds the full sharded
topology in one process::

    client ──> ShardGateway ──> ChaosProxy ──> replica r0
                          └───> ChaosProxy ──> replica r1 ...

with a seeded :class:`~repro.service.chaosnet.NetFaultPlan` per proxy
injecting resets, black-holes, slow-loris trickles, corruption,
truncation, and latency into the gateway↔replica hop, then drives a
closed-loop client through the gateway and checks two invariants:

* **zero wrong results** — every successful response for a point must
  carry exactly the same cycle count as the clean baseline computed
  before chaos starts.  Corruption in transit must surface as the
  ``X-Content-Digest`` check failing (a retryable transport error),
  never as silently wrong data.
* **bounded error rate** — with the gateway's evict/hedge/readmit
  machinery and the client's budgeted retries absorbing faults, at
  most ``max_error_rate`` of requests may fail outright.

The gateway forwards with ``Connection: close`` here and keeps its
point memo out of the path, so every request draws a fresh proxied
connection and therefore a fresh fault decision —
maximal fault exposure per request, and the fault sequence is exactly
the seeded plan's, independent of connection pooling.

Exit status is nonzero on any wrong result or an error rate over the
bound, with a per-fault-kind injection tally in the report so a
failing run says what it actually faced.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.chaosnet import NET_KINDS, ChaosProxy, NetFaultPlan
from repro.service.client import ServiceClient, ServiceError, TransportError
from repro.service.gateway import Replica, ShardGateway, spawn_thread_replicas

__all__ = [
    "DEFAULT_NET_RATES",
    "DEFAULT_POINTS",
    "NetChaosReport",
    "main",
    "parse_net_rates",
    "run",
]

#: Default per-connection fault rates: every kind in play, ~45% of
#: connections faulted in total.
DEFAULT_NET_RATES: Dict[str, float] = {
    "latency": 0.10, "reset": 0.10, "blackhole": 0.05,
    "slowloris": 0.05, "corrupt": 0.10, "truncate": 0.05,
}

#: Distinct points so both replicas own a share of the stream.
DEFAULT_POINTS: Tuple[Tuple[str, str], ...] = (
    ("bfs", "baseline-512"),
    ("bfs", "vc-with-opt"),
    ("kmeans", "baseline-512"),
    ("kmeans", "l1-only-vc-32"),
)


def parse_net_rates(text: str) -> Dict[str, float]:
    """Parse ``kind=rate,kind=rate`` (e.g. ``reset=0.2,corrupt=0.1``).

    Raises ``ValueError`` on unknown kinds or malformed entries; the
    rate-sum and range checks live in :class:`NetFaultPlan`.
    """
    rates: Dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, sep, value = chunk.partition("=")
        kind = kind.strip()
        if not sep or kind not in NET_KINDS:
            raise ValueError(
                f"bad --net-rates entry {chunk!r}; expected KIND=RATE with "
                f"KIND one of {', '.join(NET_KINDS)}")
        try:
            rates[kind] = float(value)
        except ValueError:
            raise ValueError(
                f"bad --net-rates entry {chunk!r}: {value!r} is not a number")
    if not rates:
        raise ValueError("--net-rates named no faults")
    return rates


class _ClosingGateway(ShardGateway):
    """A gateway that forwards every point with ``Connection: close``.

    One request = one proxied connection = one fault decision, which
    pins the suite's fault sequence to the seeded plan instead of to
    connection-pool reuse patterns.  It never answers from its point
    memo, so a repeated point still crosses the faulty hop.
    """

    def _forward_headers(self, ctx, accept="application/json"):
        headers = super()._forward_headers(ctx, accept)
        headers["Connection"] = "close"
        return headers

    def _memo_answer(self, fingerprint, counters):
        return None


@dataclass
class NetChaosReport:
    """Outcome of one network-chaos run against the sharded service."""

    seed: int
    rates: Dict[str, float]
    replicas: int
    requests: int
    succeeded: int = 0
    wrong_results: int = 0
    retries: int = 0
    failure_classes: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    max_error_rate: float = 0.2
    wall_seconds: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failure_classes.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.requests if self.requests else 0.0

    @property
    def ok(self) -> bool:
        return (self.wrong_results == 0
                and self.error_rate <= self.max_error_rate)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "rates": dict(self.rates),
            "replicas": self.replicas,
            "requests": self.requests,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "failure_classes": dict(self.failure_classes),
            "wrong_results": self.wrong_results,
            "retries": self.retries,
            "injected": dict(self.injected),
            "error_rate": round(self.error_rate, 4),
            "max_error_rate": self.max_error_rate,
            "wall_seconds": round(self.wall_seconds, 3),
            "ok": self.ok,
        }

    def render(self) -> str:
        injected = ", ".join(
            f"{kind}={self.injected.get(kind, 0)}"
            for kind in (*NET_KINDS, "clean"))
        lines = [
            f"Network chaos: {self.requests} requests through "
            f"{self.replicas} proxied replica(s), seed {self.seed}",
            f"  injected per connection: {injected}",
            f"  succeeded: {self.succeeded}  failed: {self.failed} "
            f"({self.error_rate:.1%}, bound {self.max_error_rate:.0%})  "
            f"client retries: {self.retries}",
        ]
        if self.failure_classes:
            lines.append("  failure breakdown: " + ", ".join(
                f"{count} {cls}"
                for cls, count in sorted(self.failure_classes.items())))
        lines.append(
            f"  wrong results (digest-checked): {self.wrong_results} "
            f"(must be 0)")
        lines.append(
            "verdict: " + ("resilient — zero wrong results, error rate "
                           "within bound" if self.ok else "FAILED"))
        return "\n".join(lines)


def _classify(exc: BaseException) -> str:
    if isinstance(exc, TransportError):
        return "connection"
    if isinstance(exc, ServiceError):
        if exc.status == 429:
            return "shed"
        if exc.status == 504:
            return "deadline"
        return f"status_{exc.status}"
    return "other"


def run(
    rates: Optional[Dict[str, float]] = None,
    seed: int = 0,
    replicas: int = 2,
    requests: int = 32,
    points: Sequence[Tuple[str, str]] = DEFAULT_POINTS,
    scale: float = 0.02,
    max_error_rate: float = 0.2,
    retries: int = 4,
    deadline_ms: Optional[float] = None,
) -> NetChaosReport:
    """One seeded network-chaos run; returns the report (never raises
    on a fault-induced failure — that is the report's verdict).
    """
    rates = dict(DEFAULT_NET_RATES if rates is None else rates)
    plan_check = NetFaultPlan(rates, seed=seed)  # validate rates up front
    del plan_check
    report = NetChaosReport(
        seed=seed, rates=rates, replicas=replicas, requests=requests,
        max_error_rate=max_error_rate)
    points = [tuple(p) for p in points]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-netchaos-") as cache_dir:
        workers = spawn_thread_replicas(replicas, cache_dir, scale=scale,
                                        batch_window=0.005)
        proxies: List[ChaosProxy] = []
        gateway = None
        try:
            # Clean baseline: the ground truth every chaos-era response
            # must match, computed before any fault can fire.
            expected: Dict[Tuple[str, str], float] = {}
            with ServiceClient(workers[0].host, workers[0].port,
                               timeout=120.0) as direct:
                reply = direct.simulate([
                    {"workload": w, "design": d} for w, d in points])
                for (w, d), point in zip(points, reply.points):
                    expected[(w, d)] = point.cycles

            # Interpose one seeded proxy per replica (seed varies by
            # index so the replicas see different fault sequences).
            front: List[Replica] = []
            for index, worker in enumerate(workers):
                proxy = ChaosProxy(
                    worker.host, worker.port,
                    NetFaultPlan(rates, seed=seed + index))
                proxy.start_in_thread()
                proxies.append(proxy)
                front.append(Replica(worker.id, proxy.host, proxy.port,
                                     service=worker.service))
            gateway = _ClosingGateway(
                front, health_interval=0.25, connect_timeout=2.0,
                forward_timeout=20.0, probe_failure_threshold=3)
            gateway.start_in_thread()

            with ServiceClient(
                    gateway.host, gateway.port, timeout=30.0,
                    retries=retries, retry_budget_s=20.0,
                    retry_seed=seed, deadline_ms=deadline_ms) as client:
                for i in range(requests):
                    workload, design = points[i % len(points)]
                    try:
                        reply = client.simulate(
                            [{"workload": workload, "design": design}])
                    except (ServiceError, OSError, TimeoutError) as exc:
                        cls = _classify(exc)
                        report.failure_classes[cls] = (
                            report.failure_classes.get(cls, 0) + 1)
                        continue
                    if reply.points[0].cycles != expected[(workload,
                                                           design)]:
                        report.wrong_results += 1
                    else:
                        report.succeeded += 1
                report.retries = client.retries_performed
        finally:
            if gateway is not None:
                gateway.shutdown()
            else:
                for worker in workers:
                    worker.service.shutdown()
            for proxy in proxies:
                proxy.shutdown()
    for proxy in proxies:
        for kind, count in proxy.counts.items():
            report.injected[kind] = report.injected.get(kind, 0) + count
    report.wall_seconds = time.perf_counter() - started
    return report


def main(
    rates_text: Optional[str] = None,
    seed: int = 0,
    replicas: int = 2,
    requests: int = 32,
    scale: Optional[float] = None,
    max_error_rate: float = 0.2,
    out: Optional[str] = None,
) -> int:
    """CLI entry (``repro-experiment chaos --net``); returns exit code."""
    try:
        rates = (parse_net_rates(rates_text)
                 if rates_text is not None else None)
    except ValueError as exc:
        print(f"repro-experiment: error: {exc}")
        return 2
    report = run(rates=rates, seed=seed, replicas=replicas,
                 requests=requests,
                 scale=scale if scale is not None else 0.02,
                 max_error_rate=max_error_rate)
    print(report.render())
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
