"""A consistent-hash sharding gateway in front of experiment replicas.

PR 5 built one batching :class:`~repro.service.server.ExperimentService`
over one process pool; this module scales it *out* the same way the
paper scales translation bandwidth: partition the request stream before
the shared resource.  The gateway consistent-hashes each point's disk
cache fingerprint (the identity already shared by the memo, the disk
tier, checkpoints, and single-flight coalescing) across N worker
replicas, so every fingerprint has exactly one home replica whose
in-memory memo stays hot for it — while a *shared* disk-cache directory
lets any replica serve any point after one pickle read when the ring
moves.

Request life through the gateway::

    client ──POST /v1/simulate──> gateway
        │ parse + fingerprint (route memo caches body → plan)
        ▼
    HashRing.lookup(fingerprint) per point ──> owner replica groups
        │ one owner group per replica (often just one): forward its
        │ sub-request, decode the reply's point payloads
        ▼
    pooled keep-alive connection to each replica (X-Trace-Id flows
    through, so the client → gateway → replica → worker spans stitch
    into one tree)
        │
        ▼
    rebuild the payload: points in request order, plus
    ``simulations_run_total`` summed from the per-replica counts each
    forwarded reply and each health probe refreshes

Replica management: a background health loop (interval jittered ±20%
so probes never fall into lockstep) probes every replica's
``/healthz``; K consecutive probe failures, a dead managed subprocess,
or a connection-level forward failure **evicts** the replica (the ring
is rebuilt without it) and in-flight points **hedge** to their new
owner on the rebuilt ring, so a killed replica costs zero
client-visible failures.  A replica whose probe recovers is
**re-admitted** and the ring takes it back.  With ``supervise=True``
(the CLI default) a dead *managed* replica is **respawned** in place
with capped exponential backoff, and a flap detector gives up (and
raises the ``gateway.alarms.flapping`` metric) on a replica that keeps
dying right after each respawn.  Deterministic per-point simulation
failures (HTTP 500 from a healthy replica) pass through unhedged —
retrying those would just fail again; so do a replica's 429 shed
(hedging an overloaded pool amplifies the overload) and 504 deadline
verdicts.  Every replica reply is verified against its
``X-Content-Digest`` before the gateway will forward it.

Replicas come from three sources: :func:`spawn_thread_replicas`
(in-process services on their own event-loop threads — tests and
embedding), :func:`spawn_subprocess_replicas` (``repro-experiment
serve`` children — real CPU isolation, the ``--replicas N`` CLI path),
or :func:`replicas_from_urls` (externally managed services via
``--replica-urls``).  ``/metrics`` merges the gateway's own labelled
counters with every healthy replica's scrape re-exported under a
``replica="..."`` label (see :func:`repro.obs.promexp.merge_expositions`);
``/healthz`` reports per-replica health and the ring membership;
``/v1/drain`` (or SIGTERM under the CLI) drains the gateway *and* every
managed replica, exiting 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from bisect import bisect_right
from collections import OrderedDict
from hashlib import sha256
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.sweepspec import design_to_wire
from repro.obs import Observability
from repro.obs.promexp import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.promexp import merge_expositions, render_prometheus
from repro.obs.trace_context import TraceContext
from repro.service import http11, protocol
from repro.service.client import parse_target
from repro.service.http11 import Raw
from repro.service.protocol import ProtocolError
from repro.system.config import SoCConfig
from repro.workloads import registry

__all__ = [
    "HashRing",
    "Replica",
    "ReplicaError",
    "ShardGateway",
    "launch_local_gateway",
    "replicas_from_urls",
    "run_gateway",
    "spawn_subprocess_replicas",
    "spawn_thread_replicas",
]

#: Virtual nodes per replica: enough for ~±10% key balance at 3
#: replicas without making ring rebuilds expensive.
DEFAULT_VNODES = 64

#: Completed gateway job records kept for polling before eviction.
_MAX_JOBS = 1024

#: Idle keep-alive connections pooled per replica.
_MAX_POOL_PER_REPLICA = 32

#: Largest request body the route memo will cache a plan for.
_MAX_MEMO_BODY = 64 * 1024


class HashRing:
    """An immutable consistent-hash ring with virtual nodes.

    Each member contributes ``vnodes`` tokens (SHA-256 of
    ``"member#i"``); a key maps to the member owning the first token
    clockwise of the key's own hash.  Adding or removing one member
    therefore moves only ~1/N of the keyspace — the property the
    gateway's memo locality depends on, and what the ring-stability
    tests assert.  Topology changes build a *new* ring, so lookups
    never observe a half-updated table.
    """

    __slots__ = ("members", "vnodes", "_tokens", "_owners")

    def __init__(self, members: Sequence[str],
                 vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.members: Tuple[str, ...] = tuple(sorted(set(members)))
        self.vnodes = vnodes
        pairs = sorted(
            (sha256(f"{member}#{i}".encode("utf-8")).hexdigest(), member)
            for member in self.members for i in range(vnodes))
        self._tokens: List[str] = [token for token, _ in pairs]
        self._owners: List[str] = [owner for _, owner in pairs]

    def __len__(self) -> int:
        return len(self.members)

    def lookup(self, key: str) -> str:
        """The member owning ``key``; raises ``LookupError`` when empty."""
        if not self._tokens:
            raise LookupError("hash ring has no members")
        point = sha256(key.encode("utf-8")).hexdigest()
        index = bisect_right(self._tokens, point)
        if index == len(self._tokens):
            index = 0
        return self._owners[index]


class Replica:
    """One worker replica: its address plus the gateway's view of it.

    The supervision fields track the respawn state machine (see
    :meth:`ShardGateway._supervise`): ``respawn`` is a factory that
    re-creates the worker in place (set by the spawn helpers, ``None``
    for externally managed URLs), ``backoff_s`` the current capped
    exponential respawn delay, and ``rapid_deaths`` counts deaths that
    struck within the flap window of a (re)spawn — the flap detector
    gives up on the replica after too many of those.
    """

    __slots__ = ("id", "host", "port", "service", "process", "healthy",
                 "evictions", "last_error", "pool", "respawn",
                 "probe_failures", "respawns", "backoff_s", "backoff_until",
                 "spawned_at", "death_at", "rapid_deaths", "given_up",
                 "respawning", "simulations_run")

    def __init__(self, replica_id: str, host: str, port: int,
                 service: Optional[Any] = None,
                 process: Optional["subprocess.Popen"] = None,
                 respawn: Optional[Callable[[], None]] = None) -> None:
        self.id = replica_id
        self.host = host
        self.port = port
        #: An in-thread :class:`ExperimentService` the gateway manages.
        self.service = service
        #: A ``repro-experiment serve`` child the gateway manages.
        self.process = process
        #: Rebuilds this worker in place (new service/process + port).
        self.respawn = respawn
        self.healthy = True
        self.evictions = 0
        self.last_error: Optional[str] = None
        #: Consecutive failed health probes (reset by any success).
        self.probe_failures = 0
        self.respawns = 0
        self.backoff_s = 0.0  # armed by the gateway's supervision config
        self.backoff_until = 0.0
        self.spawned_at = time.monotonic()
        self.death_at: Optional[float] = None
        self.rapid_deaths = 0
        self.given_up = False
        self.respawning = False
        #: The replica's lifetime simulation count as last reported by a
        #: forwarded reply or a ``/healthz`` probe.
        self.simulations_run = 0
        #: Idle keep-alive ``(reader, writer)`` pairs to this replica.
        self.pool: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    @property
    def managed(self) -> bool:
        return self.service is not None or self.process is not None

    def describe(self) -> Dict[str, Any]:
        mode = ("thread" if self.service is not None
                else "subprocess" if self.process is not None else "url")
        return {
            "host": self.host, "port": self.port, "mode": mode,
            "healthy": self.healthy, "evictions": self.evictions,
            "last_error": self.last_error,
            "respawns": self.respawns,
            "rapid_deaths": self.rapid_deaths,
            "given_up": self.given_up,
        }


class ReplicaError(RuntimeError):
    """A connection-level failure talking to one replica (hedgeable)."""


def spawn_thread_replicas(
    count: int,
    cache_dir: Optional[str],
    scale: Optional[float] = None,
    jobs: int = 1,
    batch_window: float = 0.01,
    max_batch: int = 64,
    check_invariants: bool = False,
    obs_factory: Optional[Callable[[int], Observability]] = None,
    max_inflight: Optional[int] = None,
) -> List[Replica]:
    """Start ``count`` in-process services sharing one disk cache dir.

    Each replica carries a ``respawn`` factory that rebuilds the
    service in place (fresh thread, fresh port) — the hook the
    gateway's supervisor uses when ``supervise=True``.
    """
    from repro.service.server import ExperimentService

    def _start(index: int) -> Tuple[Any, str, int]:
        service = ExperimentService(
            port=0, jobs=jobs, scale=scale, cache_dir=cache_dir,
            batch_window=batch_window, max_batch=max_batch,
            check_invariants=check_invariants, max_inflight=max_inflight,
            obs=obs_factory(index) if obs_factory is not None else None)
        host, port = service.start_in_thread()
        return service, host, port

    replicas: List[Replica] = []
    try:
        for index in range(count):
            service, host, port = _start(index)
            replica = Replica(f"r{index}", host, port, service=service)

            def _respawn(replica: Replica = replica,
                         index: int = index) -> None:
                service, host, port = _start(index)
                replica.service = service
                replica.host, replica.port = host, port

            replica.respawn = _respawn
            replicas.append(replica)
    except BaseException:
        for replica in replicas:
            replica.service.shutdown()
        raise
    return replicas


def spawn_subprocess_replicas(
    count: int,
    cache_dir: Optional[str],
    scale: Optional[float] = None,
    jobs: int = 1,
    batch_window: float = 0.01,
    max_batch: int = 64,
    check_invariants: bool = False,
    max_inflight: Optional[int] = None,
) -> List[Replica]:
    """Start ``count`` ``repro-experiment serve`` children on free ports.

    Each child prints its listen banner on stdout; the port is parsed
    from it.  The children share ``cache_dir`` (the shared disk tier)
    and are SIGTERM-drained by the gateway at shutdown.  Each replica
    carries a ``respawn`` factory that starts a fresh child in place,
    used by the gateway supervisor when ``supervise=True``.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def _start(index: int) -> Tuple["subprocess.Popen", int]:
        cmd = [
            sys.executable, "-u", "-c",
            "from repro.experiments.cli import main; "
            "raise SystemExit(main())",
            "serve", "--port", "0", "--jobs", str(jobs),
            "--batch-window", str(batch_window),
            "--max-batch", str(max_batch),
        ]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        if scale is not None:
            cmd += ["--scale", str(scale)]
        if check_invariants:
            cmd += ["--check-invariants"]
        if max_inflight is not None:
            cmd += ["--max-inflight", str(max_inflight)]
        process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        banner = process.stdout.readline()
        if "listening on http://" not in banner:
            tail = banner + (process.stdout.read() or "")
            process.kill()
            process.wait(10)
            raise RuntimeError(
                f"replica r{index} failed to start: {tail.strip()!r}")
        return process, int(banner.strip().rsplit(":", 1)[1])

    replicas: List[Replica] = []
    try:
        for index in range(count):
            process, port = _start(index)
            replica = Replica(f"r{index}", "127.0.0.1", port, process=process)

            def _respawn(replica: Replica = replica,
                         index: int = index) -> None:
                process, port = _start(index)
                replica.process = process
                replica.port = port

            replica.respawn = _respawn
            replicas.append(replica)
    except BaseException:
        for replica in replicas:
            replica.process.terminate()
        raise
    return replicas


def replicas_from_urls(urls: Sequence[str]) -> List[Replica]:
    """Wrap externally managed services (``--replica-urls``) as replicas.

    The gateway health-checks, routes to, and hedges across these, but
    never starts or stops them.  Raises ``ValueError`` on a malformed
    ``HOST:PORT`` entry (IPv6 bracketed, ``http://`` prefix allowed).
    """
    replicas = []
    for index, url in enumerate(urls):
        host, port = parse_target(url)
        replicas.append(Replica(f"r{index}", host, port))
    return replicas


class _RoutePlan:
    """A parsed+fingerprinted request body, cached by the route memo."""

    __slots__ = ("fingerprints", "raw_points", "extras")

    def __init__(self, fingerprints: List[str], raw_points: List[Dict],
                 extras: Dict[str, Any]) -> None:
        self.fingerprints = fingerprints
        self.raw_points = raw_points
        self.extras = extras

    def sub_body(self, indices: Sequence[int]) -> bytes:
        """The forwardable body for a subset of this plan's points."""
        body = dict(self.extras)
        body["points"] = [self.raw_points[i] for i in indices]
        return json.dumps(body).encode("utf-8")


class ShardGateway:
    """The consistent-hash front door over a set of experiment replicas.

    Speaks the exact :mod:`repro.service.protocol` dialect the plain
    service does (``/v1/simulate``, ``/v1/jobs``, ``/healthz``,
    ``/metrics``, ``/v1/drain``), so :class:`ServiceClient` and the
    loadtest drive it unchanged.  ``scale`` must match the replicas'
    default scale — fingerprints are computed gateway-side for routing
    and replica-side for memoization, and they must agree.

    Lifecycle mirrors :class:`ExperimentService`: ``await start()``,
    :meth:`start_in_thread`/:meth:`shutdown`, or :meth:`serve_forever`
    (CLI; SIGTERM drains the gateway and every managed replica).
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        host: str = "127.0.0.1",
        port: int = 0,
        scale: Optional[float] = None,
        config: Optional[SoCConfig] = None,
        check_invariants: bool = False,
        vnodes: int = DEFAULT_VNODES,
        health_interval: float = 0.5,
        connect_timeout: float = 5.0,
        forward_timeout: float = 600.0,
        route_memo_size: int = 1024,
        obs: Optional[Observability] = None,
        supervise: bool = False,
        probe_failure_threshold: int = 3,
        respawn_backoff_base: float = 0.5,
        respawn_backoff_max: float = 30.0,
        flap_window: float = 5.0,
        flap_threshold: int = 3,
        health_jitter: float = 0.2,
    ) -> None:
        if not replicas:
            raise ValueError("gateway needs at least one replica")
        ids = [replica.id for replica in replicas]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate replica ids: {ids}")
        if probe_failure_threshold < 1:
            raise ValueError("probe_failure_threshold must be >= 1")
        self.replicas = list(replicas)
        self._by_id = {replica.id: replica for replica in self.replicas}
        self.host = host
        self.port = port
        self.vnodes = vnodes
        self.ring = HashRing(ids, vnodes=vnodes)
        self.health_interval = health_interval
        self.connect_timeout = connect_timeout
        self.forward_timeout = forward_timeout
        #: Respawn dead managed replicas (the CLI path turns this on;
        #: it stays off by default so embedders and fault-injection
        #: tests can kill a replica and have it *stay* dead).
        self.supervise = supervise
        self.probe_failure_threshold = probe_failure_threshold
        self.respawn_backoff_base = respawn_backoff_base
        self.respawn_backoff_max = respawn_backoff_max
        self.flap_window = flap_window
        self.flap_threshold = flap_threshold
        self.health_jitter = health_jitter
        self._health_rng = random.Random(
            f"gateway-health:{len(self.replicas)}:{vnodes}")
        for replica in self.replicas:
            replica.backoff_s = respawn_backoff_base
        self.obs = obs if obs is not None else Observability()
        # Parsing defaults — must mirror the replicas' so the gateway
        # fingerprints exactly what they memoize under.
        self._base_scale = (scale if scale is not None
                            else registry.default_scale())
        self._base_config = config if config is not None else SoCConfig()
        self._check_invariants = check_invariants

        self._route_memo: "OrderedDict[bytes, _RoutePlan]" = OrderedDict()
        self._route_memo_size = route_memo_size
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._health_task: Optional[asyncio.Task] = None
        self._drained_event: Optional[asyncio.Event] = None
        self._jobs: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._writers: set = set()
        self._busy_requests = 0
        self._draining = False
        self._started_at = time.time()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the health loop; returns (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._drained_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._health_task = self._loop.create_task(self._health_loop())
        self._started_at = time.time()
        return self.host, self.port

    def request_drain(self) -> None:
        """Begin graceful shutdown of the gateway and managed replicas."""
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
        while (self._busy_requests
               or any(record["status"] == "running"
                      for record in self._jobs.values())):
            await asyncio.sleep(0.01)
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        # Stop the replicas this gateway owns (thread services join
        # their loops; subprocesses get SIGTERM and drain themselves).
        await asyncio.get_running_loop().run_in_executor(
            None, self._stop_managed_replicas)
        for replica in self.replicas:
            self._drop_pool(replica)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._server is not None:
            await self._server.wait_closed()
        self._drained_event.set()

    def _stop_managed_replicas(self) -> None:
        for replica in self.replicas:
            if replica.service is not None:
                try:
                    replica.service.shutdown()
                except Exception:
                    pass
            elif replica.process is not None:
                process = replica.process
                try:
                    if process.poll() is None:
                        process.send_signal(signal.SIGTERM)
                    process.wait(60)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(10)
                except Exception:
                    pass

    async def serve_until_drained(self) -> None:
        """Block until a drain (SIGTERM, /v1/drain, or shutdown()) finishes."""
        await self._drained_event.wait()

    def start_in_thread(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Run the gateway on a dedicated event-loop thread."""
        started = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            try:
                asyncio.set_event_loop(loop)
                loop.run_until_complete(self.start())
            except BaseException as exc:
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_until_complete(self.serve_until_drained())
                loop.run_until_complete(loop.shutdown_default_executor())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-gateway", daemon=True)
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("gateway did not start in time")
        if failure:
            raise failure[0]
        return self.host, self.port

    def shutdown(self, timeout: float = 120.0) -> None:
        """Drain a :meth:`start_in_thread` gateway and join its thread."""
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.request_drain)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    async def _amain(self) -> None:
        await self.start()
        print(f"repro-gateway listening on http://{self.host}:{self.port}",
              flush=True)
        for replica in self.replicas:
            mode = replica.describe()["mode"]
            print(f"repro-gateway replica {replica.id} -> "
                  f"{replica.host}:{replica.port} ({mode})", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self.serve_until_drained()
        print("repro-gateway drained cleanly", flush=True)

    def serve_forever(self) -> int:
        """The CLI entry: serve until SIGTERM/SIGINT drains the tree."""
        asyncio.run(self._amain())
        return 0

    # -- ring + replica health --------------------------------------------
    def _rebuild_ring(self) -> None:
        self.ring = HashRing(
            [replica.id for replica in self.replicas if replica.healthy],
            vnodes=self.vnodes)

    def _evict(self, replica: Replica, reason: str) -> None:
        """Take a replica out of the ring (idempotent)."""
        replica.last_error = reason
        if not replica.healthy:
            return
        replica.healthy = False
        replica.evictions += 1
        self._drop_pool(replica)
        self._rebuild_ring()
        metrics = self.obs.metrics
        metrics.add("gateway.evictions")
        metrics.add(f"gateway.evictions[replica={replica.id}]")
        if self.obs.tracing:
            self.obs.tracer.emit("event", time.time(), name="gateway.evict",
                                 replica=replica.id, reason=reason)

    def _readmit(self, replica: Replica) -> None:
        if replica.healthy:
            return
        replica.healthy = True
        replica.last_error = None
        self._rebuild_ring()
        self.obs.metrics.add("gateway.readmissions")
        if self.obs.tracing:
            self.obs.tracer.emit("event", time.time(),
                                 name="gateway.readmit", replica=replica.id)

    async def _health_loop(self) -> None:
        while True:
            # ±health_jitter: N gateways (or one gateway's many probes)
            # must not fall into lockstep and thundering-herd the
            # replicas at a fixed cadence.
            jitter = 1.0 + self.health_jitter * (
                2.0 * self._health_rng.random() - 1.0)
            await asyncio.sleep(self.health_interval * max(0.0, jitter))
            if self._draining:
                return
            await self._probe_replicas()

    async def _probe_replicas(self) -> None:
        for replica in list(self.replicas):
            if self._draining:
                return
            if (replica.process is not None
                    and replica.process.poll() is not None):
                # A reaped child is unambiguous death: evict now, no
                # probe-failure grace.
                self._evict(replica, f"process exited with code "
                                     f"{replica.process.returncode}")
                if self.supervise:
                    await self._supervise(replica)
                continue
            try:
                status, _headers, raw = await self._replica_request(
                    replica, "GET", "/healthz", b"", {})
                payload = json.loads(raw.decode("utf-8"))
                healthy = status == 200 and payload.get("status") == "ok"
                reason = (f"healthz reported status={status} "
                          f"state={payload.get('status')!r}")
            except (ReplicaError, ValueError, UnicodeDecodeError) as exc:
                healthy = False
                reason = f"healthz probe failed: {exc}"
            if healthy:
                # A probe's count is authoritative: it also catches a
                # replica that restarted (and so counts from 0 again).
                sims = payload.get("simulations_run")
                if isinstance(sims, int):
                    replica.simulations_run = sims
                replica.probe_failures = 0
                if (time.monotonic() - replica.spawned_at >= self.flap_window
                        and (replica.rapid_deaths
                             or replica.backoff_s
                             != self.respawn_backoff_base)):
                    # Stable for a full flap window: forgive its past.
                    replica.rapid_deaths = 0
                    replica.backoff_s = self.respawn_backoff_base
                self._readmit(replica)
                continue
            replica.probe_failures += 1
            self.obs.metrics.add("gateway.probe_failures")
            if (replica.healthy and replica.probe_failures
                    < self.probe_failure_threshold):
                # One flaky probe is not a verdict: a *healthy* replica
                # is only evicted after K consecutive failures.  Dead
                # subprocesses and forward failures still evict at once.
                continue
            self._evict(replica, reason)
            if self.supervise:
                await self._supervise(replica)

    async def _supervise(self, replica: Replica) -> None:
        """Respawn a dead managed replica: capped backoff + flap detector.

        First tick after a death classifies it (a death within
        ``flap_window`` of the last spawn is "rapid"; ``flap_threshold``
        rapid deaths in a row trips the give-up alarm) and arms the
        backoff timer; later ticks respawn once the timer expires.
        Re-admission then happens through the normal probe path once
        the fresh worker answers ``/healthz``.
        """
        if (replica.respawn is None or replica.given_up
                or replica.respawning or self._draining):
            return
        now = time.monotonic()
        if replica.death_at is None:
            replica.death_at = now
            if now - replica.spawned_at < self.flap_window:
                replica.rapid_deaths += 1
                if replica.rapid_deaths >= self.flap_threshold:
                    replica.given_up = True
                    replica.last_error = (
                        f"flapping: {replica.rapid_deaths} rapid deaths; "
                        f"supervisor gave up")
                    metrics = self.obs.metrics
                    metrics.add("gateway.alarms.flapping")
                    metrics.add(
                        f"gateway.alarms.flapping[replica={replica.id}]")
                    if self.obs.tracing:
                        self.obs.tracer.emit(
                            "event", time.time(), name="gateway.flap_alarm",
                            replica=replica.id,
                            rapid_deaths=replica.rapid_deaths)
                    return
            else:
                replica.rapid_deaths = 0
            replica.backoff_until = now + replica.backoff_s
            replica.backoff_s = min(replica.backoff_s * 2,
                                    self.respawn_backoff_max)
            return
        if now < replica.backoff_until:
            return
        replica.respawning = True
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, replica.respawn)
        except Exception as exc:
            replica.last_error = f"respawn failed: {exc}"
            replica.backoff_until = time.monotonic() + replica.backoff_s
            replica.backoff_s = min(replica.backoff_s * 2,
                                    self.respawn_backoff_max)
            self.obs.metrics.add("gateway.respawn_failures")
            return
        finally:
            replica.respawning = False
        replica.respawns += 1
        replica.spawned_at = time.monotonic()
        replica.death_at = None
        replica.probe_failures = 0
        metrics = self.obs.metrics
        metrics.add("gateway.respawns")
        metrics.add(f"gateway.respawns[replica={replica.id}]")
        if self.obs.tracing:
            self.obs.tracer.emit(
                "event", time.time(), name="gateway.respawn",
                replica=replica.id, respawns=replica.respawns)

    # -- replica HTTP (pooled keep-alive connections) ---------------------
    def _drop_pool(self, replica: Replica) -> None:
        while replica.pool:
            _reader, writer = replica.pool.pop()
            try:
                writer.close()
            except Exception:
                pass

    async def _replica_request(
        self, replica: Replica, method: str, path: str, body: bytes,
        headers: Dict[str, str], timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One exchange with a replica; raises :class:`ReplicaError`.

        Idle pooled connections are tried first; a stale one (the
        replica closed it between requests) falls through to the next,
        and finally to a fresh connection whose failure is the real
        verdict.  ``timeout`` overrides ``forward_timeout`` (deadline
        clamping).
        """
        request = http11.format_request(
            method, path, replica.host, replica.port, body, headers)
        while replica.pool:
            reader, writer = replica.pool.pop()
            try:
                return await self._exchange(replica, reader, writer, request,
                                            timeout)
            except (OSError, ValueError, EOFError, asyncio.TimeoutError):
                try:
                    writer.close()
                except Exception:
                    pass
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(replica.host, replica.port),
                self.connect_timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ReplicaError(
                f"{replica.id}: connect to {replica.host}:{replica.port} "
                f"failed: {type(exc).__name__}: {exc}")
        try:
            return await self._exchange(replica, reader, writer, request,
                                        timeout)
        except (OSError, ValueError, EOFError, asyncio.TimeoutError) as exc:
            try:
                writer.close()
            except Exception:
                pass
            raise ReplicaError(
                f"{replica.id}: request failed: {type(exc).__name__}: {exc}")

    async def _exchange(
        self, replica: Replica, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter, request: bytes,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        writer.write(request)
        await writer.drain()
        status, headers, raw = await asyncio.wait_for(
            http11.read_response(reader),
            self.forward_timeout if timeout is None else timeout)
        if not http11.verify_body_digest(headers, raw):
            # Bytes got mangled between the replica and us: treat the
            # connection as poisoned, never forward the payload.
            self.obs.metrics.add("gateway.digest_failures")
            raise ValueError(
                "replica response failed the X-Content-Digest check "
                "(corrupted in transit)")
        if (headers.get("connection", "").lower() == "close"
                or len(replica.pool) >= _MAX_POOL_PER_REPLICA):
            try:
                writer.close()
            except Exception:
                pass
        else:
            replica.pool.append((reader, writer))
        return status, headers, raw

    # -- routing ----------------------------------------------------------
    def _plan(self, body: bytes) -> _RoutePlan:
        """Parse+fingerprint a request body, memoized on the raw bytes."""
        plan = self._route_memo.get(body)
        if plan is not None:
            self._route_memo.move_to_end(body)
            self.obs.metrics.add("gateway.route_memo.hits")
            return plan
        decoded = self._decode(body)
        if "sweep" in decoded:
            # A sweep is expanded gateway-side into plain simulate
            # points, so each lands on its fingerprint's home replica;
            # non-preset designs travel inline in their wire form.
            spec, specs = protocol.parse_sweep_request(
                decoded, self._base_scale, self._base_config,
                check_invariants=self._check_invariants)
            raw_points: List[Dict] = [
                {"workload": workload, "design": design_to_wire(design),
                 "track_lifetimes": track}
                for workload, design, track in spec.resolved_points()]
            extras: Dict[str, Any] = {}
            if spec.scale is not None:
                extras["scale"] = spec.scale
            if spec.config:
                extras["config"] = dict(spec.config)
            if spec.output.include_counters:
                extras["include_counters"] = True
        else:
            specs = protocol.parse_simulate_request(
                decoded, self._base_scale, self._base_config,
                check_invariants=self._check_invariants)
            if "points" in decoded:
                raw_points = list(decoded["points"])
            else:
                raw_points = [decoded]
            extras = {key: decoded[key]
                      for key in ("scale", "config", "include_counters")
                      if key in decoded}
        plan = _RoutePlan([spec.fingerprint for spec in specs],
                          raw_points, extras)
        self.obs.metrics.add("gateway.route_memo.misses")
        if len(body) <= _MAX_MEMO_BODY:
            self._route_memo[body] = plan
            while len(self._route_memo) > self._route_memo_size:
                self._route_memo.popitem(last=False)
        return plan

    @staticmethod
    def _decode(body: bytes) -> Any:
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                400, protocol.ERROR_BAD_REQUEST,
                f"request body is not valid JSON: {exc}")
        if not isinstance(decoded, dict):
            raise ProtocolError(
                400, protocol.ERROR_BAD_REQUEST,
                f"request body must be a JSON object, "
                f"got {type(decoded).__name__}")
        return decoded

    def _owner(self, fingerprint: str) -> Replica:
        try:
            return self._by_id[self.ring.lookup(fingerprint)]
        except LookupError:
            raise ProtocolError(
                503, protocol.ERROR_NO_REPLICAS,
                "no healthy replicas left in the ring")

    def _forward_headers(self, ctx: TraceContext,
                         accept: str = "application/json") -> Dict[str, str]:
        child = ctx.child()
        headers = {"Content-Type": "application/json", "Accept": accept}
        headers.update(child.headers())
        return headers

    async def _forward(self, replica: Replica, body: bytes,
                       ctx: TraceContext,
                       deadline: Optional[float] = None) -> Tuple[int, bytes]:
        """POST one simulate sub-request to a replica, with telemetry.

        With a deadline, the remaining budget is decremented into the
        forwarded ``X-Deadline-Ms`` (each hop sees only what is left)
        and the forward timeout is clamped to it — plus a grace second
        so the replica gets to answer 504 itself with a useful message.
        """
        headers = self._forward_headers(ctx)
        timeout = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(
                    504, protocol.ERROR_DEADLINE,
                    "deadline exhausted before the gateway could forward")
            headers["X-Deadline-Ms"] = format(remaining * 1000.0, ".3f")
            timeout = min(self.forward_timeout, remaining + 1.0)
        started = time.perf_counter()
        status, _headers, raw = await self._replica_request(
            replica, "POST", "/v1/simulate", body, headers, timeout=timeout)
        duration = time.perf_counter() - started
        metrics = self.obs.metrics
        metrics.add(f"gateway.forwarded[replica={replica.id}]")
        metrics.histogram(
            f"gateway.forward_seconds[replica={replica.id}]").record(duration)
        if self.obs.tracing:
            self.obs.tracer.emit(
                "span", time.time(), name="gateway.forward", dur=duration,
                replica=replica.id, status=status, **ctx.span_fields())
        return status, raw

    async def _forward_group(
        self, replica: Replica, indices: List[int], plan: _RoutePlan,
        ctx: TraceContext, attempts: int,
        deadline: Optional[float] = None,
    ) -> Dict[int, Dict[str, Any]]:
        """Resolve one owner group, hedging to the rebuilt ring on failure.

        Connection-level failures and 503-draining replies evict the
        replica and re-shard the group's points over the surviving
        ring (they may now split across several owners).  A 429 shed
        and a 504 deadline pass through *without* hedging — the
        replica is healthy, it is the load (or the clock) that is the
        problem, and piling the same points onto its peers would make
        both worse.  Anything else — including per-point simulation
        failures — is the replica's answer and passes through.
        """
        body = plan.sub_body(indices)
        try:
            status, raw = await self._forward(replica, body, ctx, deadline)
        except ReplicaError as exc:
            self._evict(replica, str(exc))
            return await self._hedge(indices, plan, ctx, attempts, str(exc),
                                     deadline)
        if status == 503:
            self._evict(replica, "replica is draining (503)")
            return await self._hedge(indices, plan, ctx, attempts,
                                     f"{replica.id} draining", deadline)
        if status == 429:
            metrics = self.obs.metrics
            metrics.add("gateway.sheds")
            metrics.add(f"gateway.sheds[replica={replica.id}]")
            retry_after: Optional[float] = None
            try:
                hint = json.loads(raw.decode("utf-8")).get("retry_after")
                if isinstance(hint, (int, float)):
                    retry_after = float(hint)
            except (UnicodeDecodeError, ValueError):
                pass
            raise ProtocolError(
                429, protocol.ERROR_OVERLOADED,
                f"replica {replica.id} shed the request (overloaded)",
                retry_after=retry_after)
        if status == 504:
            self.obs.metrics.add("gateway.deadline_exceeded")
            raise ProtocolError(
                504, protocol.ERROR_DEADLINE,
                f"replica {replica.id} gave up: deadline exceeded")
        try:
            payload = json.loads(raw.decode("utf-8"))
            points = payload["points"]
            if not isinstance(points, list) or len(points) != len(indices):
                raise ValueError(f"expected {len(indices)} points, "
                                 f"got {len(points)}")
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(
                502, protocol.ERROR_INTERNAL,
                f"replica {replica.id} returned an undecodable reply: {exc}")
        sims = payload.get("simulations_run_total")
        if isinstance(sims, int):
            # Concurrent replies can land out of order; within one
            # replica process the count only grows.
            replica.simulations_run = max(replica.simulations_run, sims)
        return dict(zip(indices, points))

    async def _hedge(self, indices: List[int], plan: _RoutePlan,
                     ctx: TraceContext, attempts: int, reason: str,
                     deadline: Optional[float] = None,
                     ) -> Dict[int, Dict[str, Any]]:
        if attempts >= len(self.replicas):
            raise ProtocolError(
                503, protocol.ERROR_NO_REPLICAS,
                f"every replica failed this request (last: {reason})")
        self.obs.metrics.add("gateway.hedged_points", len(indices))
        return await self._shard_and_forward(indices, plan, ctx, attempts + 1,
                                             deadline)

    async def _shard_and_forward(
        self, indices: Sequence[int], plan: _RoutePlan, ctx: TraceContext,
        attempts: int = 0, deadline: Optional[float] = None,
    ) -> Dict[int, Dict[str, Any]]:
        """Group ``indices`` by ring owner and forward the groups."""
        groups: "OrderedDict[str, List[int]]" = OrderedDict()
        for index in indices:
            owner = self._owner(plan.fingerprints[index])
            groups.setdefault(owner.id, []).append(index)
        results = await asyncio.gather(*(
            self._forward_group(self._by_id[owner_id], group, plan, ctx,
                                attempts, deadline)
            for owner_id, group in groups.items()))
        merged: Dict[int, Dict[str, Any]] = {}
        for result in results:
            merged.update(result)
        return merged

    # -- endpoints --------------------------------------------------------
    async def _simulate(self, body: bytes, ctx: TraceContext,
                        deadline: Optional[float] = None) -> Tuple[int, Any]:
        plan = self._plan(body)
        started = time.perf_counter()
        indices = list(range(len(plan.fingerprints)))
        owners = {self._owner(fp).id for fp in plan.fingerprints}
        metrics = self.obs.metrics
        if len(owners) == 1:
            # Single-owner request (the common case for a sharded hot
            # stream): one forward, no fan-out.
            metrics.add("gateway.route.single")
            replica = self._by_id[next(iter(owners))]
            result = await self._forward_group(replica, indices, plan, ctx,
                                               0, deadline)
        else:
            metrics.add("gateway.route.split")
            result = await self._shard_and_forward(indices, plan, ctx,
                                                   deadline=deadline)
        points = [result[index] for index in indices]
        failures = [
            {"workload": point.get("workload"), "design": point.get("design"),
             "fingerprint": point.get("fingerprint"),
             "reason": point["error"]}
            for point in points if "error" in point]
        payload: Dict[str, Any] = {
            "trace_id": ctx.trace_id,
            "points": points,
            "wall_seconds": time.perf_counter() - started,
            "simulations_run_total": sum(
                replica.simulations_run for replica in self.replicas
                if replica.healthy),
        }
        if failures:
            payload["error"] = protocol.ERROR_SWEEP_FAILED
            payload["message"] = (
                f"{len(failures)} of {len(points)} point(s) failed")
            payload["failures"] = failures
            return 500, payload
        return 200, payload

    def _submit_job(self, body: bytes,
                    ctx: TraceContext) -> Tuple[int, Dict[str, Any]]:
        plan = self._plan(body)  # validate before accepting
        job_id = uuid.uuid4().hex
        record: Dict[str, Any] = {
            "job_id": job_id,
            "status": "running",
            "trace_id": ctx.trace_id,
            "submitted_unix": time.time(),
            "n_points": len(plan.fingerprints),
            "result": None,
        }
        self._jobs[job_id] = record
        while len(self._jobs) > _MAX_JOBS:
            self._evict_one_job()
        self._loop.create_task(self._run_job(record, body, ctx))
        self.obs.metrics.add("gateway.jobs.submitted")
        return 202, {"job_id": job_id, "status": "running",
                     "n_points": len(plan.fingerprints),
                     "trace_id": ctx.trace_id}

    def _evict_one_job(self) -> None:
        for job_id, record in self._jobs.items():
            if record["status"] != "running":
                del self._jobs[job_id]
                return
        self._jobs.popitem(last=False)

    async def _run_job(self, record: Dict[str, Any], body: bytes,
                       ctx: TraceContext) -> None:
        try:
            status, payload = await self._simulate(body, ctx)
        except ProtocolError as exc:
            status, payload = exc.status, exc.body()
        except Exception as exc:  # the job must always settle
            status, payload = 500, {"error": protocol.ERROR_INTERNAL,
                                    "message": f"{type(exc).__name__}: {exc}"}
        record["result"] = payload
        record["status"] = "done" if status == 200 else "failed"
        record["completed_unix"] = time.time()

    def _job_status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self._jobs.get(job_id)
        if record is None:
            raise ProtocolError(404, protocol.ERROR_NOT_FOUND,
                                f"unknown job {job_id!r}")
        payload = {key: record[key] for key in
                   ("job_id", "status", "n_points", "submitted_unix")}
        if record["status"] != "running":
            payload["result"] = record["result"]
            payload["completed_unix"] = record["completed_unix"]
        return 200, payload

    def _health_payload(self) -> Dict[str, Any]:
        healthy = sum(1 for replica in self.replicas if replica.healthy)
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.time() - self._started_at,
            "busy_requests": self._busy_requests,
            "jobs_running": sum(1 for r in self._jobs.values()
                                if r["status"] == "running"),
            # ServiceClient.healthz() compatibility — the gateway holds
            # no queue or simulator of its own.
            "queue_depth": 0,
            "inflight_points": 0,
            "simulations_run": 0,
            "pool": {"replicas_healthy": healthy,
                     "replicas_total": len(self.replicas)},
            "supervise": self.supervise,
            "replicas": {replica.id: replica.describe()
                         for replica in self.replicas},
            "ring": {"members": list(self.ring.members),
                     "vnodes": self.vnodes},
            "scale": self._base_scale,
        }

    async def _metrics_response(self, headers: Dict[str, str]
                                ) -> Tuple[int, Any]:
        metrics = self.obs.metrics
        metrics.set_gauge("gateway.replicas_total", len(self.replicas))
        metrics.set_gauge(
            "gateway.replicas_healthy",
            sum(1 for replica in self.replicas if replica.healthy))
        metrics.set_gauge("gateway.uptime_seconds",
                          time.time() - self._started_at)
        if "application/json" in headers.get("accept", ""):
            replicas: Dict[str, Any] = {}
            for replica in self.replicas:
                if not replica.healthy:
                    replicas[replica.id] = None
                    continue
                try:
                    status, _h, raw = await self._replica_request(
                        replica, "GET", "/metrics", b"",
                        {"Accept": "application/json"})
                    replicas[replica.id] = (json.loads(raw)
                                            if status == 200 else None)
                except (ReplicaError, ValueError):
                    replicas[replica.id] = None
            return 200, {"gateway": metrics.snapshot(), "replicas": replicas}
        # Prometheus text: the gateway's own families plus every healthy
        # replica's scrape re-labelled with replica="...".
        parts: List[Tuple[str, Dict[str, str]]] = [
            (render_prometheus(metrics), {})]
        for replica in self.replicas:
            if not replica.healthy:
                continue
            try:
                status, _h, raw = await self._replica_request(
                    replica, "GET", "/metrics", b"", {"Accept": "text/plain"})
                if status == 200:
                    parts.append((raw.decode("utf-8"),
                                  {"replica": replica.id}))
            except (ReplicaError, UnicodeDecodeError):
                pass  # an unscrapable replica is simply absent
        text = merge_expositions(parts)
        return 200, Raw(text.encode("utf-8"), _PROM_CONTENT_TYPE)

    # -- HTTP layer -------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await http11.read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                self._busy_requests += 1
                try:
                    status, payload, trace_id, extra = await self._route(
                        method, path, headers, body)
                    keep_alive = (headers.get("connection", "").lower()
                                  != "close")
                    await http11.write_response(
                        writer, status, payload, keep_alive, trace_id,
                        extra_headers=extra)
                finally:
                    self._busy_requests -= 1
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     body: bytes) -> Tuple[int, Any, str, Dict[str, str]]:
        ctx = TraceContext.from_headers(headers)
        metrics = self.obs.metrics
        metrics.add("gateway.requests")
        started = time.perf_counter()
        extra: Dict[str, str] = {}
        try:
            status, payload = await self._dispatch(
                method, path, headers, body, ctx)
        except ProtocolError as exc:
            status, payload, extra = exc.status, exc.body(), exc.headers()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            metrics.add("gateway.errors.internal")
            status, payload = 500, {
                "error": protocol.ERROR_INTERNAL,
                "message": f"{type(exc).__name__}: {exc}",
            }
        if isinstance(payload, dict):
            payload.setdefault("trace_id", ctx.trace_id)
        metrics.add(f"gateway.http.{status}")
        duration = time.perf_counter() - started
        metrics.histogram("gateway.request_seconds").record(duration)
        if self.obs.tracing:
            self.obs.tracer.emit(
                "span", time.time(), name="gateway.request", dur=duration,
                method=method, path=path, status=status,
                **ctx.span_fields())
        return status, payload, ctx.trace_id, extra

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes,
                        ctx: TraceContext) -> Tuple[int, Any]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self._health_payload()
        if path == "/metrics":
            self._require(method, "GET")
            return await self._metrics_response(headers)
        if path == "/v1/simulate":
            self._require(method, "POST")
            self._reject_if_draining()
            return await self._simulate(
                body, ctx, deadline=protocol.parse_deadline_header(headers))
        if path == "/v1/jobs":
            self._require(method, "POST")
            self._reject_if_draining()
            return self._submit_job(body, ctx)
        if path == "/v1/sweep":
            self._require(method, "POST")
            self._reject_if_draining()
            decoded = self._decode(body)
            if "sweep" not in decoded:
                raise ProtocolError(
                    400, protocol.ERROR_BAD_REQUEST,
                    "request needs a 'sweep' object (a SweepSpec)")
            return self._submit_job(body, ctx)
        if path.startswith("/v1/jobs/"):
            self._require(method, "GET")
            return self._job_status(path[len("/v1/jobs/"):])
        if path == "/v1/drain":
            self._require(method, "POST")
            self.request_drain()
            return 202, {"status": "draining"}
        raise ProtocolError(404, protocol.ERROR_NOT_FOUND,
                            f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ProtocolError(
                405, protocol.ERROR_BAD_REQUEST,
                f"method {method} not allowed here (use {expected})")

    def _reject_if_draining(self) -> None:
        if self._draining:
            self.obs.metrics.add("gateway.rejected.draining")
            raise ProtocolError(
                503, protocol.ERROR_DRAINING,
                "gateway is draining; no new work accepted")


def launch_local_gateway(
    replica_count: int,
    mode: str = "thread",
    cache_dir: Optional[str] = None,
    scale: Optional[float] = None,
    jobs: int = 1,
    batch_window: float = 0.01,
    max_batch: int = 64,
    host: str = "127.0.0.1",
    port: int = 0,
    health_interval: float = 0.5,
    check_invariants: bool = False,
    vnodes: int = DEFAULT_VNODES,
    obs: Optional[Observability] = None,
    max_inflight: Optional[int] = None,
    supervise: bool = False,
    **gateway_kwargs: Any,
) -> ShardGateway:
    """Spawn ``replica_count`` local replicas and a running gateway.

    ``mode`` is ``"thread"`` (in-process services — tests, notebooks)
    or ``"subprocess"`` (``repro-experiment serve`` children — real
    isolation).  The returned gateway is already serving on its own
    thread; :meth:`ShardGateway.shutdown` drains the whole tree.
    Extra keyword arguments (``flap_window``, ``respawn_backoff_base``,
    …) pass straight to :class:`ShardGateway`.
    """
    if mode == "thread":
        replicas = spawn_thread_replicas(
            replica_count, cache_dir, scale=scale, jobs=jobs,
            batch_window=batch_window, max_batch=max_batch,
            check_invariants=check_invariants, max_inflight=max_inflight)
    elif mode == "subprocess":
        replicas = spawn_subprocess_replicas(
            replica_count, cache_dir, scale=scale, jobs=jobs,
            batch_window=batch_window, max_batch=max_batch,
            check_invariants=check_invariants, max_inflight=max_inflight)
    else:
        raise ValueError(f"unknown replica mode {mode!r} "
                         f"(use 'thread' or 'subprocess')")
    gateway = ShardGateway(
        replicas, host=host, port=port, scale=scale,
        check_invariants=check_invariants, vnodes=vnodes,
        health_interval=health_interval, obs=obs, supervise=supervise,
        **gateway_kwargs)
    try:
        gateway.start_in_thread()
    except BaseException:
        gateway._stop_managed_replicas()
        raise
    return gateway


def run_gateway(
    host: str = "127.0.0.1",
    port: int = 8000,
    replicas: int = 2,
    replica_urls: Optional[Sequence[str]] = None,
    jobs: int = 1,
    scale: Optional[float] = None,
    cache_dir: Optional[str] = None,
    check_invariants: bool = False,
    batch_window: float = 0.01,
    max_batch: int = 64,
    health_interval: float = 0.5,
    max_inflight: Optional[int] = None,
    supervise: bool = True,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> int:
    """Build and run a sharded service until SIGTERM drains it (CLI path).

    With ``replica_urls`` the gateway fronts externally managed
    services; otherwise it spawns ``replicas`` ``repro-experiment
    serve`` subprocesses sharing ``cache_dir`` (a throwaway temporary
    directory when unset) and SIGTERM-drains them on exit.  Managed
    replicas are supervised by default: a dead child is respawned with
    capped exponential backoff, and a flapping one trips the give-up
    alarm (``--no-supervise`` turns this off).
    """
    obs = None
    if trace_out or metrics_out:
        from repro.obs import JsonLinesTracer

        tracer = JsonLinesTracer(trace_out) if trace_out else None
        obs = Observability(tracer=tracer)
    own_cache = None
    if replica_urls:
        replica_list = replicas_from_urls(replica_urls)
    else:
        if replicas < 1:
            raise ValueError("--replicas must be >= 1")
        if cache_dir is None:
            own_cache = tempfile.TemporaryDirectory(prefix="repro-gateway-")
            cache_dir = own_cache.name
            print(f"repro-gateway: shared disk cache at {cache_dir} "
                  f"(temporary)", flush=True)
        replica_list = spawn_subprocess_replicas(
            replicas, cache_dir, scale=scale, jobs=jobs,
            batch_window=batch_window, max_batch=max_batch,
            check_invariants=check_invariants, max_inflight=max_inflight)
    gateway = ShardGateway(
        replica_list, host=host, port=port, scale=scale,
        check_invariants=check_invariants, health_interval=health_interval,
        obs=obs, supervise=supervise)
    try:
        return gateway.serve_forever()
    finally:
        if obs is not None:
            obs.close()
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(gateway.obs.metrics.snapshot(), handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
        if own_cache is not None:
            own_cache.cleanup()
