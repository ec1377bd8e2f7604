"""The experiment service: an asyncio HTTP server over :class:`ResultCache`.

Architecture (one request's life)::

    HTTP request ──> parse/validate (protocol.py)
        │                 │ 400 on unknown workload/design/config
        ▼
    memo (fingerprint → result), on the event loop
        │ a memo-resident point that is not in flight is answered
        │ here, tier ``memo`` (0 work, no batch window); it never
        │ counts against ``max_inflight``
        ▼
    admission ──> 429 if the remaining points exceed ``max_inflight``
        ▼
    single-flight map (fingerprint → in-flight point)
        │ duplicate concurrent points join the existing future
        ▼
    batch queue ──> batcher task: collects points for ``batch_window``
        │           seconds (or ``max_batch``), then runs one *wave*;
        │           at most one wave is admitted per ``batch_window``,
        │           so ``max_batch / batch_window`` is the service's
        │           steady-state admission budget under backlog
        ▼
    wave (executor thread): each point resolved through the cache tiers
        disk  — loaded from the persistent DiskCache     (1 pickle read)
        computed — batched into ``ResultCache.run_many`` (simulated, with
                   the PR 4 timeout/retry/checkpoint machinery)
        │
        ▼
    futures resolve ──> JSON response with per-point tier provenance

This is the paper's bandwidth-filtering argument applied to the
simulation fleet itself: the two cache tiers filter repeated experiment
traffic so only genuine misses reach the expensive shared resource (the
process pool), exactly as virtual-cache hits filter translations before
the shared IOMMU TLB.

The HTTP side — endpoints, jobs and their journal, ``/healthz``,
``/metrics`` and graceful drain — is the shared
:class:`~repro.service.frontend.Frontend`; this module adds the memo
fast path, admission, single-flight and the wave batcher behind it.
On drain the batcher finishes every in-flight wave, and the crash-safe
checkpoint is left flushed (appends are fsync'd per point).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import ResultCache, SweepError
from repro.experiments.disk_cache import config_fingerprint
from repro.obs import Observability
from repro.obs.promexp import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.promexp import render_prometheus
from repro.obs.trace_context import TraceContext
from repro.service import protocol
from repro.service.frontend import Frontend, run_frontend
from repro.service.http11 import Raw as _Raw
from repro.service.protocol import PointSpec, ProtocolError
from repro.workloads import registry

__all__ = [
    "ExperimentService",
    "TIER_COMPUTED",
    "TIER_DISK",
    "TIER_MEMO",
    "run_server",
]

TIER_MEMO = "memo"
TIER_DISK = "disk"
TIER_COMPUTED = "computed"


class _InflightPoint:
    """One unique point travelling from the queue through a wave.

    ``deadline`` is an absolute :func:`time.monotonic` instant after
    which nobody is waiting for this point any more (``None`` = someone
    will wait forever).  Coalescing keeps the *most patient* joiner's
    deadline, so an impatient duplicate can never cancel work another
    client still wants.
    """

    __slots__ = ("spec", "future", "enqueued_at", "ctx", "deadline")

    def __init__(self, spec: PointSpec, future: "asyncio.Future",
                 ctx: Optional[TraceContext] = None,
                 deadline: Optional[float] = None) -> None:
        self.spec = spec
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.ctx = ctx
        self.deadline = deadline


class _PointFailed(RuntimeError):
    """A computed point that did not survive its wave."""

    def __init__(self, spec: PointSpec, reason: str) -> None:
        super().__init__(reason)
        self.spec = spec
        self.reason = reason


class _PointDeadline(_PointFailed):
    """A point abandoned because its caller's deadline budget ran out."""


class ExperimentService(Frontend):
    """A long-lived batching simulation server over one :class:`ResultCache`.

    The service owns (or adopts) a cache configured exactly like the
    CLI's: ``jobs`` workers per wave, optional ``cache_dir`` disk
    persistence, optional crash-safe ``checkpoint``, per-point
    timeout/retries, and invariant auditing.  ``scale`` fixes the
    default workload scale (requests may override per request).
    ``max_inflight`` bounds admitted points (shed with 429 beyond it);
    ``jobs_journal`` persists ``/v1/jobs`` across restarts.  The
    lifecycle is :class:`~repro.service.frontend.Frontend`'s.
    """

    NAME = "repro-service"
    PREFIX = "service"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        scale: Optional[float] = None,
        cache_dir: Optional[str] = None,
        checkpoint: Optional[str] = None,
        check_invariants: bool = False,
        point_timeout: Optional[float] = None,
        point_retries: int = 2,
        batch_window: float = 0.01,
        max_batch: int = 64,
        max_inflight: Optional[int] = None,
        jobs_journal: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        if cache is None:
            cache = ResultCache(
                jobs=jobs, cache_dir=cache_dir, checkpoint=checkpoint,
                check_invariants=check_invariants,
                point_timeout=point_timeout, point_retries=point_retries)
        if scale is not None:
            cache.scale = scale
        if cache.obs is None:
            cache.obs = obs if obs is not None else Observability()
        super().__init__(host, port, cache.obs, jobs_journal)
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.cache = cache
        # Snapshots the request parser validates against; waves restore
        # the cache to these after any per-request override.
        self._base_scale = cache.effective_scale()
        self._base_config = cache.config

        self._queue: "asyncio.Queue[Optional[_InflightPoint]]" = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._inflight: Dict[str, _InflightPoint] = {}
        self._shed_total = 0
        self._active_points = 0
        self._wave_active = False
        self._waves_run = 0
        self._last_wave_error: Optional[str] = None

    # -- backend lifecycle ------------------------------------------------
    def _start_backend(self) -> None:
        self._queue = asyncio.Queue()
        self._batcher_task = self._loop.create_task(self._batch_loop())

    def _idle(self) -> bool:
        return not self._active_points and self._queue.empty()

    async def _stop_backend(self) -> None:
        await self._queue.put(None)  # stop the batcher
        await self._batcher_task

    # -- admission + single-flight + batching -----------------------------
    def _admit(self, specs: List[PointSpec]) -> None:
        """Shed the request with 429 if its pool-bound points exceed the budget.

        Only points that need the pool count against ``max_inflight``:
        memo-resident points are answered on the event loop without
        touching it, duplicates of in-flight points coalesce for free,
        and duplicate fingerprints within one request are one point.
        None of those is ever shed.  The ``Retry-After`` hint is how
        long the wave pipeline needs to drain back under the budget at
        its steady-state rate of ``max_batch`` points per
        ``batch_window``.
        """
        if self.max_inflight is None:
            return
        fresh = {spec.fingerprint for spec in specs
                 if spec.fingerprint not in self._inflight
                 and self.cache.memoized(spec.fingerprint) is None}
        # Accepted jobs bypass admission, so _active_points can exceed
        # the budget; a request adding no pool work still passes.
        if not fresh or self._active_points + len(fresh) <= self.max_inflight:
            return
        excess = self._active_points + len(fresh) - self.max_inflight
        window = max(self.batch_window, 0.01)
        waves_needed = (excess + self.max_batch - 1) // self.max_batch
        retry_after = max(0.05, waves_needed * window)
        self._shed_total += 1
        self.obs.metrics.add("service.requests.shed")
        self.obs.metrics.add("service.points.shed", len(fresh))
        raise ProtocolError(
            429, protocol.ERROR_OVERLOADED,
            f"overloaded: {self._active_points} point(s) in flight "
            f"+ {len(fresh)} new > max_inflight={self.max_inflight}",
            retry_after=retry_after)

    def _enqueue(self, spec: PointSpec,
                 ctx: Optional[TraceContext] = None,
                 deadline: Optional[float] = None,
                 ) -> Tuple[_InflightPoint, bool]:
        """Get the in-flight entry for a point, creating one if needed.

        Returns ``(entry, coalesced)``; ``coalesced`` is True when the
        point joined a computation another request already started.
        """
        entry = self._inflight.get(spec.fingerprint)
        if entry is not None:
            # Keep the most patient deadline: a short-deadline duplicate
            # must not shorten the budget of whoever got here first.
            if deadline is None:
                entry.deadline = None
            elif entry.deadline is not None:
                entry.deadline = max(entry.deadline, deadline)
            self.obs.metrics.add("service.points.coalesced")
            return entry, True
        point_ctx = (ctx.child()
                     if ctx is not None and self.obs.tracing else None)
        entry = _InflightPoint(spec, self._loop.create_future(), point_ctx,
                               deadline)
        self._inflight[spec.fingerprint] = entry
        self._active_points += 1
        self._queue.put_nowait(entry)
        self.obs.metrics.add("service.points.enqueued")
        return entry, False

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._queue.get()
            if entry is None:
                return
            wave_started = loop.time()
            batch = [entry]
            deadline = wave_started + self.batch_window
            # Fire the wave before the earliest caller deadline in the
            # batch: batching latency comes out of their budget too.
            if entry.deadline is not None:
                deadline = min(deadline, entry.deadline)
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is None:
                    self._queue.put_nowait(None)  # re-arm the stop sentinel
                    break
                batch.append(nxt)
                if nxt.deadline is not None:
                    deadline = min(deadline, nxt.deadline)
            self._wave_active = True
            try:
                await loop.run_in_executor(None, self._execute_wave, batch)
            except BaseException as exc:  # defensive: _execute_wave catches
                self._last_wave_error = f"{type(exc).__name__}: {exc}"
                for item in batch:
                    self._finish_point(
                        item, None, None,
                        _PointFailed(item.spec, self._last_wave_error))
            finally:
                self._wave_active = False
                self._waves_run += 1
            # Pace wave admission: a backlog that fills batches
            # instantly used to fire waves back-to-back, so the
            # configured window never actually bounded admitted load
            # and the server saturated on per-request overhead instead
            # of its wave budget.  Holding the next wave until the
            # window elapses makes max_batch/batch_window a real
            # admission cap (what the sharded loadtest measures);
            # an idle server is unaffected.
            cooldown = wave_started + self.batch_window - loop.time()
            if cooldown > 0:
                await asyncio.sleep(cooldown)

    # -- wave execution (runs on an executor thread) ----------------------
    def _execute_wave(self, batch: List[_InflightPoint]) -> None:
        """Resolve one batch of unique points through the cache tiers."""
        groups: "OrderedDict[Tuple[float, str], List[_InflightPoint]]" = \
            OrderedDict()
        for entry in batch:
            key = (entry.spec.scale, config_fingerprint(entry.spec.config))
            groups.setdefault(key, []).append(entry)
        for (scale, _), entries in groups.items():
            self._run_group(scale, entries)

    def _run_group(self, scale: float, entries: List[_InflightPoint]) -> None:
        cache = self.cache
        saved_scale, saved_config = cache.scale, cache.config
        saved_timeout = cache.point_timeout
        now = time.monotonic()
        expired = [e for e in entries
                   if e.deadline is not None and e.deadline <= now]
        entries = [e for e in entries
                   if e.deadline is None or e.deadline > now]
        for entry in expired:
            # Nobody is waiting any more: answer 504 without paying for
            # even a cache probe.
            self._resolve(entry, None, None, _PointDeadline(
                entry.spec, "deadline exceeded before the wave ran"))
        if not entries:
            return
        try:
            cache.scale = scale
            cache.config = entries[0].spec.config
            # Never compute longer than the most patient caller in this
            # group will wait: clamp the per-point timeout to the widest
            # remaining deadline budget.
            budgets = [e.deadline - now for e in entries
                       if e.deadline is not None]
            if len(budgets) == len(entries):
                clamp = max(budgets)
                cache.point_timeout = (clamp if saved_timeout is None
                                       else min(saved_timeout, clamp))
            tiers: Dict[str, str] = {}
            to_compute: List[_InflightPoint] = []
            disk = cache._disk_cache()
            for entry in entries:
                spec = entry.spec
                if cache.memoized(spec.fingerprint) is not None:
                    tiers[spec.fingerprint] = TIER_MEMO
                    continue
                cached = disk.load(spec.fingerprint) if disk is not None \
                    else None
                if cached is not None:
                    cache._results[spec.fingerprint] = cached
                    tiers[spec.fingerprint] = TIER_DISK
                else:
                    tiers[spec.fingerprint] = TIER_COMPUTED
                    to_compute.append(entry)
            sweep_failures: Dict[Tuple[str, str], str] = {}
            wave_error: Optional[str] = None
            if to_compute:
                # One wave-level span context: the pool workers' spans
                # nest under the first traced point's span.
                wave_ctx = next(
                    (e.ctx for e in to_compute if e.ctx is not None), None)
                try:
                    cache.run_many(
                        [(e.spec.workload, e.spec.design,
                          e.spec.track_lifetimes) for e in to_compute],
                        trace_ctx=(wave_ctx.child()
                                   if wave_ctx is not None else None))
                except SweepError as exc:
                    self._last_wave_error = str(exc)
                    sweep_failures = {
                        (f.workload, f.design): str(f) for f in exc.failures}
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    wave_error = f"{type(exc).__name__}: {exc}"
                    self._last_wave_error = wave_error
            for entry in entries:
                spec = entry.spec
                result = cache.memoized(spec.fingerprint)
                if result is not None:
                    self._resolve(entry, tiers[spec.fingerprint], result)
                    continue
                reason = (sweep_failures.get((spec.workload, spec.design.name))
                          or wave_error
                          or "point did not complete")
                if entry.deadline is not None \
                        and time.monotonic() >= entry.deadline:
                    self._resolve(entry, None, None, _PointDeadline(
                        spec, f"deadline exceeded during compute: {reason}"))
                else:
                    self._resolve(entry, None, None,
                                  _PointFailed(spec, reason))
        finally:
            cache.scale, cache.config = saved_scale, saved_config
            cache.point_timeout = saved_timeout

    def _resolve(self, entry: _InflightPoint, tier: Optional[str],
                 result, exc: Optional[BaseException] = None) -> None:
        self._loop.call_soon_threadsafe(
            self._finish_point, entry, tier, result, exc)

    def _finish_point(self, entry: _InflightPoint, tier: Optional[str],
                      result, exc: Optional[BaseException]) -> None:
        """Settle one point's future (always on the event-loop thread)."""
        if self._inflight.pop(entry.spec.fingerprint, None) is not None:
            self._active_points -= 1
        latency = time.perf_counter() - entry.enqueued_at
        if entry.future.done():
            return
        if exc is not None:
            entry.future.set_exception(exc)
        else:
            entry.future.set_result((result, tier))
        self._record_point(entry.spec, entry.ctx,
                           tier if exc is None else None, latency)

    def _record_point(self, spec: PointSpec, ctx: Optional[TraceContext],
                      tier: Optional[str], latency: float) -> None:
        """Count one settled point and emit its ``service.point`` span.

        ``tier=None`` marks a failed point.
        """
        metrics = self.obs.metrics
        if tier is None:
            metrics.add("service.points.failed")
        else:
            metrics.add(f"service.tier.{tier}")
            metrics.histogram(f"service.latency.{tier}").record(latency)
        if ctx is not None and self.obs.tracing:
            self.obs.tracer.emit(
                "span", time.time(), name="service.point", dur=latency,
                workload=spec.workload, design=spec.design.name,
                tier=tier or "failed", **ctx.span_fields())

    # -- endpoints --------------------------------------------------------
    def _parse_points(self, body: Any) -> List[PointSpec]:
        if isinstance(body, dict) and "sweep" in body:
            _spec, specs = protocol.parse_sweep_request(
                body, self._base_scale, self._base_config,
                check_invariants=self.cache.check_invariants)
            return specs
        return protocol.parse_simulate_request(
            body, self._base_scale, self._base_config,
            check_invariants=self.cache.check_invariants)

    def _accept_job(self, body: bytes, admit: bool = True) -> int:
        specs = self._parse_points(self._decode(body))
        if admit:
            self._admit(specs)  # shed at the door, never after journaling
        return len(specs)

    async def _simulate(self, body: bytes, ctx: TraceContext,
                        deadline: Optional[float] = None,
                        admitted: bool = False,
                        ) -> Tuple[int, Dict[str, Any]]:
        request = self._decode(body)
        specs = self._parse_points(request)
        include_counters = bool(isinstance(request, dict)
                                and request.get("include_counters"))
        if (isinstance(request, dict)
                and isinstance(request.get("sweep"), dict)):
            output = request["sweep"].get("output")
            include_counters = include_counters or bool(
                isinstance(output, dict) and output.get("include_counters"))
        started = time.perf_counter()
        # A memo-resident point that is not in flight is answered here,
        # on the event loop: like a virtual-cache hit that never reaches
        # the shared IOMMU, it skips admission, the single-flight map
        # and the batch window.  Only disk and computed points go on.
        hits: Dict[int, Any] = {}
        for index, spec in enumerate(specs):
            if spec.fingerprint not in self._inflight:
                result = self.cache.memoized(spec.fingerprint)
                if result is not None:
                    hits[index] = result
        pending = [spec for index, spec in enumerate(specs)
                   if index not in hits]
        if not admitted:
            self._admit(pending)
        for index, result in hits.items():
            self._record_point(
                specs[index],
                ctx.child() if self.obs.tracing else None,
                TIER_MEMO, time.perf_counter() - started)
        entries = [self._enqueue(spec, ctx, deadline) for spec in pending]
        settled = await asyncio.gather(
            *(entry.future for entry, _ in entries), return_exceptions=True)
        answers = iter(zip(entries, settled))
        points: List[Dict[str, Any]] = []
        failures: List[Dict[str, Any]] = []
        all_deadline = True
        for index, spec in enumerate(specs):
            if index in hits:
                coalesced, outcome = False, (hits[index], TIER_MEMO)
            else:
                (_entry, coalesced), outcome = next(answers)
            if isinstance(outcome, BaseException):
                reason = getattr(outcome, "reason", None) or str(outcome)
                is_deadline = isinstance(outcome, _PointDeadline)
                all_deadline = all_deadline and is_deadline
                failures.append({
                    "workload": spec.workload,
                    "design": spec.design.name,
                    "fingerprint": spec.fingerprint,
                    "reason": reason,
                    "deadline_exceeded": is_deadline,
                })
                points.append({
                    "workload": spec.workload,
                    "design": spec.design.name,
                    "fingerprint": spec.fingerprint,
                    "error": reason,
                })
            else:
                result, tier = outcome
                points.append(protocol.result_payload(
                    spec, result, tier, coalesced,
                    include_counters=include_counters))
        payload: Dict[str, Any] = {
            "trace_id": ctx.trace_id,
            "points": points,
            "wall_seconds": time.perf_counter() - started,
            "simulations_run_total": self.cache.simulations_run,
        }
        if failures:
            if all_deadline:
                # Every failure was the caller's budget running out: the
                # honest answer is 504, not a sweep failure.
                self.obs.metrics.add("service.requests.deadline")
                payload["error"] = protocol.ERROR_DEADLINE
                payload["message"] = (
                    f"{len(failures)} of {len(specs)} point(s) exceeded "
                    f"the request deadline")
                payload["failures"] = failures
                return 504, payload
            payload["error"] = protocol.ERROR_SWEEP_FAILED
            payload["message"] = (
                f"{len(failures)} of {len(specs)} point(s) failed")
            payload["failures"] = failures
            return 500, payload
        return 200, payload

    def _health(self) -> Dict[str, Any]:
        cache = self.cache
        return {
            "queue_depth": self._queue.qsize(),
            "inflight_points": self._active_points,
            "max_inflight": self.max_inflight,
            "shed_total": self._shed_total,
            "jobs_journal": (self._journal.path
                             if self._journal is not None else None),
            "pool": {
                "jobs": cache.jobs,
                "wave_active": self._wave_active,
                "waves_run": self._waves_run,
                "last_wave_error": self._last_wave_error,
            },
            "simulations_run": cache.simulations_run,
            "scale": self._base_scale,
            "cache_dir": cache.cache_dir,
            "checkpoint": cache.checkpoint,
            "workloads": sorted(registry.WORKLOADS),
            "designs": sorted({protocol.design_slug(name)
                               for name in protocol.DESIGNS_BY_NAME}),
        }

    async def _metrics(self, headers: Dict[str, str]) -> Tuple[int, Any]:
        metrics = self.obs.metrics
        metrics.set_gauge("service.queue_depth", self._queue.qsize())
        metrics.set_gauge("service.inflight_points", self._active_points)
        metrics.set_gauge("service.shed_total", self._shed_total)
        metrics.set_gauge("service.simulations_run",
                          self.cache.simulations_run)
        metrics.set_gauge("service.waves_run", self._waves_run)
        if "application/json" in headers.get("accept", ""):
            return 200, metrics.snapshot()
        text = render_prometheus(metrics)
        return 200, _Raw(text.encode("utf-8"), _PROM_CONTENT_TYPE)


def run_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    jobs: int = 1,
    scale: Optional[float] = None,
    cache_dir: Optional[str] = None,
    checkpoint: Optional[str] = None,
    check_invariants: bool = False,
    point_timeout: Optional[float] = None,
    point_retries: int = 2,
    batch_window: float = 0.01,
    max_batch: int = 64,
    max_inflight: Optional[int] = None,
    jobs_journal: Optional[str] = None,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> int:
    """Build and run a service until SIGTERM/SIGINT drains it (CLI path).

    The arguments are :class:`ExperimentService`'s; ``trace_out`` and
    ``metrics_out`` are :func:`~repro.service.frontend.run_frontend`'s.
    """
    return run_frontend(
        lambda obs: ExperimentService(
            host=host, port=port, jobs=jobs, scale=scale,
            cache_dir=cache_dir, checkpoint=checkpoint,
            check_invariants=check_invariants, point_timeout=point_timeout,
            point_retries=point_retries, batch_window=batch_window,
            max_batch=max_batch, max_inflight=max_inflight,
            jobs_journal=jobs_journal, obs=obs),
        trace_out, metrics_out)
