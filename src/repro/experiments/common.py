"""Shared experiment machinery.

Experiments run (workload × MMU design) simulations; many figures share
the same runs (the IDEAL MMU baseline appears in Figures 4, 5, and 9,
for example), so results are memoized per process in a
:class:`ResultCache`.  Each run builds a *fresh* hierarchy — simulator
state never leaks between design points — but reuses the memoized trace
from :mod:`repro.workloads.registry`.

Two opt-in layers sit on top of the in-process memo:

* **Parallelism** — :meth:`ResultCache.run_many` fans missing design
  points out over a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``jobs`` workers).  Each worker builds a fresh trace/hierarchy pair
  exactly as the serial path does, so results are bit-identical to
  ``jobs=1``; per-worker metrics registries are merged back into the
  parent's :class:`~repro.obs.Observability` bundle.
* **Persistence** — ``cache_dir`` names an on-disk
  :class:`~repro.experiments.disk_cache.DiskCache` keyed by a complete
  fingerprint (workload, scale, full design, ``track_lifetimes``, and a
  content hash of the ``SoCConfig``), so a warm rerun of a figure costs
  zero simulations.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.experiments.disk_cache import DiskCache, point_fingerprint
from repro.obs import Observability, TraceContext
from repro.system.config import SoCConfig
from repro.system.designs import MMUDesign
from repro.system.run import SimulationResult, simulate
from repro.workloads import registry
from repro.workloads.compiled import CompiledTrace

__all__ = [
    "ALL_WORKLOADS",
    "GLOBAL_CACHE",
    "HIGH_BANDWIDTH",
    "LOW_BANDWIDTH",
    "Point",
    "PointFailure",
    "ResultCache",
    "SweepError",
    "resolve_workloads",
]

#: A design point: (workload, design) or (workload, design, track_lifetimes).
Point = Tuple

#: One missing design point, carried through the fault-tolerant runner:
#: (fingerprint, workload, design, track_lifetimes).
_Missing = Tuple[str, str, MMUDesign, bool]


@dataclass(frozen=True)
class PointFailure:
    """One design point that kept failing after all retries."""

    workload: str
    design: str
    attempts: int
    reason: str

    def __str__(self) -> str:
        return (f"({self.workload}, {self.design}) failed "
                f"{self.attempts}x: {self.reason}")


class SweepError(RuntimeError):
    """A sweep gave up on one or more points after bounded retries."""

    def __init__(self, failures: List[PointFailure]) -> None:
        self.failures = list(failures)
        lines = "\n  ".join(str(f) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} design point(s) failed permanently:\n"
            f"  {lines}")


def _simulate_point(
    config: SoCConfig,
    scale: float,
    workload: str,
    design: MMUDesign,
    track_lifetimes: bool,
    collect_metrics: bool,
    check_invariants: bool = False,
    trace_ctx: Optional[Dict[str, object]] = None,
) -> Tuple[SimulationResult, Optional[object], List[Dict[str, object]]]:
    """Run one design point from scratch (executes inside a pool worker).

    Module-level so ``ProcessPoolExecutor`` can pickle it.  Builds the
    same fresh trace/hierarchy the serial path builds, so the result is
    bit-identical to an in-process run.  Returns the slim result, the
    worker's metrics registry (for parent-side merging) when the parent
    had observability attached, and — when ``trace_ctx`` (a
    :meth:`~repro.obs.TraceContext.to_wire` dict) is given — the span
    records the worker produced, for the parent to re-emit into its
    own trace stream.  Only coarse span records cross the process
    boundary; per-request events stay worker-local (streaming millions
    of events through pickling would dwarf the simulation itself).
    """
    obs = Observability() if collect_metrics else None
    wall_start = _time.perf_counter()
    trace = registry.load(workload, scale=scale)
    page_tables = {0: trace.address_space.page_table}
    hierarchy = design.build(config, page_tables,
                             track_lifetimes=track_lifetimes, obs=obs)
    result = simulate(trace, hierarchy, design.soc_config(config),
                      design=design.name, obs=obs,
                      check_invariants=check_invariants)
    spans: List[Dict[str, object]] = []
    if trace_ctx is not None:
        ctx = TraceContext.from_wire(trace_ctx)
        span: Dict[str, object] = {
            "ev": "span", "t": _time.time(), "name": "worker.simulate",
            "workload": workload, "design": design.name,
            "dur": _time.perf_counter() - wall_start,
            "cycles": result.cycles, "pid": os.getpid(), "mode": "pool",
        }
        span.update(ctx.span_fields())
        spans.append(span)
    return result, (obs.metrics if obs is not None else None), spans


@dataclass
class ResultCache:
    """Memoizes simulation results keyed by the point fingerprint.

    The memo key is :func:`~repro.experiments.disk_cache.point_fingerprint`
    — workload, scale, the full design, ``track_lifetimes``,
    ``check_invariants`` and the ``SoCConfig`` — the identity the disk
    tier, checkpoints and the service's single-flight map and hash ring
    already share.  Two designs that share a name but differ in any
    field are two points, and a caller holding a fingerprint can read
    the memo (:meth:`memoized`) without the cache's current ``scale``
    or ``config``.

    An :class:`~repro.obs.Observability` bundle attached as ``obs`` is
    threaded through every hierarchy built and every ``simulate()``
    call (and so selects the instrumented method paths).  A tracer
    attached as ``profiler`` (the CLI's ``--profile`` attaches a
    :class:`~repro.obs.RecordingTracer`) receives one wall-clock
    ``span`` record per pipeline stage — trace synthesis, each
    simulation — without changing which path runs.

    ``jobs`` sets the default process fan-out for :meth:`run_many` /
    :meth:`run_designs`; ``cache_dir`` (a directory path) persists slim
    results across processes and invocations.
    """

    config: SoCConfig = field(default_factory=SoCConfig)
    scale: Optional[float] = None
    obs: object = None
    profiler: object = None
    jobs: int = 1
    cache_dir: Optional[str] = None
    #: Audit simulator invariants during every run (see
    #: :mod:`repro.robustness.invariants`).  Keyed into the memo/disk
    #: fingerprints: audited results carry an extra counter.
    check_invariants: bool = False
    #: Path of a crash-safe checkpoint file for :meth:`run_many`; a
    #: killed sweep restarted with the same checkpoint recomputes
    #: nothing that already completed.
    checkpoint: Optional[str] = None
    #: Fault tolerance for the parallel runner: per-point timeout in
    #: seconds (None = wait forever), bounded retries per point, and the
    #: base of the exponential inter-round backoff.
    point_timeout: Optional[float] = None
    point_retries: int = 2
    retry_backoff: float = 0.5
    #: The memo: point fingerprint → result.  The fingerprint covers the
    #: config and scale, so mutating ``config`` or ``scale`` between runs
    #: never serves a stale result, and the full design, so an inline
    #: design that reuses a preset's name is a point of its own.
    _results: Dict[str, SimulationResult] = field(default_factory=dict)
    # Strong refs to the hierarchies behind memoized results; results
    # themselves hold only weak refs, so clear() genuinely frees them.
    _hierarchies: Dict[str, object] = field(default_factory=dict)
    _disk: Optional[DiskCache] = field(default=None, repr=False)
    #: The open pipeline stage's span; the next stage is its child.
    _stage: Optional[TraceContext] = field(default=None, init=False,
                                           repr=False)
    #: Simulations actually executed (memo/disk hits excluded).
    simulations_run: int = 0

    def effective_scale(self) -> float:
        return self.scale if self.scale is not None else registry.default_scale()

    def trace(self, workload: str) -> CompiledTrace:
        with self._span(f"load:{workload}"):
            return registry.load(workload, scale=self.effective_scale())

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        """Emit a ``span`` record timing the block to ``profiler``, if any.

        The record carries ``name``, ``dur`` in wall-clock seconds and
        the ids of a :class:`~repro.obs.TraceContext` that is a child of
        the enclosing stage's (a new trace at top level), so
        :func:`~repro.obs.trace_view.render_traces` draws one tree per
        top-level stage.
        """
        tracer = self.profiler
        if tracer is None:
            yield
            return
        parent = self._stage
        self._stage = ctx = (parent.child() if parent is not None
                             else TraceContext.new())
        started_at = _time.time()
        started = _time.perf_counter()
        try:
            yield
        finally:
            self._stage = parent
            tracer.emit("span", started_at, name=name,
                        dur=_time.perf_counter() - started,
                        **ctx.span_fields())

    # -- cache keys -------------------------------------------------------
    def _fingerprint(self, workload: str, design: MMUDesign,
                     track_lifetimes: bool) -> str:
        return point_fingerprint(workload, self.effective_scale(), design,
                                 track_lifetimes, self.config,
                                 check_invariants=self.check_invariants)

    def memoized(self, fingerprint: str) -> Optional[SimulationResult]:
        """The memo entry for a point fingerprint, or ``None``.

        One dict read: safe from a thread other than the one running
        the cache, and independent of the cache's current ``scale`` and
        ``config``.
        """
        return self._results.get(fingerprint)

    def _disk_cache(self) -> Optional[DiskCache]:
        if self.cache_dir is None:
            return None
        if self._disk is None or self._disk.root != Path(self.cache_dir):
            metrics = getattr(self.obs, "metrics", None)
            self._disk = DiskCache(
                self.cache_dir,
                counters=getattr(metrics, "counters", None))
            # A persistent result cache implies a persistent trace
            # cache: cache misses regenerate workloads, and those
            # compilations should be shared across processes too.
            # (Idempotent; respects an explicit earlier set_trace_cache
            # to the same directory, and exports REPRO_TRACE_CACHE so
            # spawned pool workers resolve the same store.)
            if os.environ.get("REPRO_TRACE_CACHE") is None:
                registry.set_trace_cache(Path(self.cache_dir) / "traces")
        return self._disk

    # -- running ----------------------------------------------------------
    def run(
        self,
        workload: str,
        design: MMUDesign,
        track_lifetimes: bool = False,
        need_hierarchy: bool = False,
    ) -> SimulationResult:
        """Run (or fetch) one simulation.

        ``need_hierarchy=True`` guarantees ``result.hierarchy`` is a
        live in-process hierarchy (Figure 12 and the coherence probe
        experiment inspect it) — a slim memo/disk record without one is
        re-simulated rather than served.
        """
        fingerprint = self._fingerprint(workload, design, track_lifetimes)
        result = self._results.get(fingerprint)
        if result is not None:
            if (not need_hierarchy
                    or self._hierarchies.get(fingerprint) is not None):
                return result
        elif not need_hierarchy:
            disk = self._disk_cache()
            if disk is not None:
                cached = disk.load(fingerprint)
                if cached is not None:
                    self._results[fingerprint] = cached
                    return cached
        return self._simulate_into_cache(
            fingerprint, workload, design, track_lifetimes)

    def _simulate_into_cache(
        self, fingerprint: str, workload: str, design: MMUDesign,
        track_lifetimes: bool,
    ) -> SimulationResult:
        trace = self.trace(workload)
        page_tables = {0: trace.address_space.page_table}
        hierarchy = design.build(self.config, page_tables,
                                 track_lifetimes=track_lifetimes,
                                 obs=self.obs)
        with self._span(f"sim:{workload}:{design.name}"):
            result = simulate(
                trace, hierarchy, design.soc_config(self.config),
                design=design.name, obs=self.obs,
                check_invariants=self.check_invariants,
            )
        self.simulations_run += 1
        self._results[fingerprint] = result
        self._hierarchies[fingerprint] = hierarchy
        disk = self._disk_cache()
        if disk is not None:
            disk.store(fingerprint, result)
        return result

    @staticmethod
    def _normalize(points: Iterable[Point]) -> List[Tuple[str, MMUDesign, bool]]:
        normalized = []
        for point in points:
            if len(point) == 2:
                workload, design = point
                track_lifetimes = False
            else:
                workload, design, track_lifetimes = point
            normalized.append((workload, design, bool(track_lifetimes)))
        return normalized

    def run_many(
        self, points: Iterable[Point], jobs: Optional[int] = None,
        trace_ctx=None,
    ) -> List[SimulationResult]:
        """Run (or fetch) many design points, fanning misses out over processes.

        ``points`` is an iterable of ``(workload, design)`` or
        ``(workload, design, track_lifetimes)`` tuples; the returned
        list matches their order.  ``jobs`` defaults to ``self.jobs``;
        with one job (or at most one miss) everything runs serially
        in-process, exactly as :meth:`run`.

        ``trace_ctx`` (a :class:`~repro.obs.TraceContext`) threads a
        caller's trace through the sweep: every simulated point gets a
        child span (``worker.simulate``), and in the serial path the
        per-request events a traced hierarchy emits are bound to that
        span too, so one service request stitches into a single trace.

        Per-request tracing *without* a trace context forces the serial
        path — a worker process cannot stream fine-grained events into
        the parent's trace file.  With a context attached the parallel
        path stays parallel: workers return coarse span records (not
        event streams) and the parent re-emits them in deterministic
        submission order.

        The parallel path is fault tolerant: a point whose worker
        crashes, is killed, or exceeds ``point_timeout`` is retried (in
        a fresh pool, after exponential backoff) up to ``point_retries``
        times before the sweep raises :class:`SweepError`.  With
        ``checkpoint`` set, every completed point is durably appended to
        the checkpoint file and a restarted sweep resumes from it with
        zero lost work.
        """
        normalized = self._normalize(points)
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        tracing = self.obs is not None and getattr(self.obs, "tracing", False)
        use_ctx = trace_ctx if tracing else None
        if tracing and use_ctx is None:
            jobs = 1

        store = None
        completed: Dict[str, object] = {}
        if self.checkpoint is not None:
            from repro.robustness.checkpoint import CheckpointStore

            store = CheckpointStore(self.checkpoint)
            completed = store.load()

        # Collect points not already memoized (deduplicated, in order),
        # serving checkpointed and disk-cached results along the way.
        disk = self._disk_cache()
        fingerprints = [self._fingerprint(w, d, tl) for w, d, tl in normalized]
        missing: List[_Missing] = []
        seen = set()
        for fingerprint, (workload, design, track_lifetimes) in zip(
                fingerprints, normalized):
            if fingerprint in self._results or fingerprint in seen:
                continue
            resumed = completed.get(fingerprint)
            if isinstance(resumed, SimulationResult):
                self._results[fingerprint] = resumed
                continue
            if disk is not None:
                cached = disk.load(fingerprint)
                if cached is not None:
                    self._results[fingerprint] = cached
                    if store is not None:
                        store.append(fingerprint, cached)
                    continue
            seen.add(fingerprint)
            missing.append((fingerprint, workload, design, track_lifetimes))

        if jobs == 1 or len(missing) <= 1:
            for fingerprint, workload, design, track_lifetimes in missing:
                if use_ctx is not None:
                    result = self._simulate_traced(
                        fingerprint, workload, design, track_lifetimes,
                        use_ctx)
                else:
                    result = self._simulate_into_cache(
                        fingerprint, workload, design, track_lifetimes)
                if store is not None:
                    store.append(fingerprint, result)
        elif missing:
            self._run_missing_parallel(missing, jobs, store, use_ctx)
        if use_ctx is not None and missing:
            self.obs.tracer.emit(
                "span", _time.time(), name="cache.run_many",
                n_points=len(missing), **use_ctx.span_fields())
        return [self._results[fingerprint] for fingerprint in fingerprints]

    def _simulate_traced(
        self, fingerprint: str, workload: str, design: MMUDesign,
        track_lifetimes: bool, ctx,
    ) -> SimulationResult:
        """Serial simulation under a child span of ``ctx``.

        The cache's obs bundle is temporarily swapped for a view whose
        tracer binds the child span's identity, so every per-request
        event the hierarchy emits joins the caller's trace; the span
        record itself is emitted afterwards with wall-clock timing.
        """
        point_ctx = ctx.child()
        saved_obs = self.obs
        self.obs = saved_obs.with_fields(**point_ctx.fields())
        wall_start = _time.perf_counter()
        try:
            result = self._simulate_into_cache(
                fingerprint, workload, design, track_lifetimes)
        finally:
            self.obs = saved_obs
        saved_obs.tracer.emit(
            "span", _time.time(), name="worker.simulate",
            workload=workload, design=design.name,
            dur=_time.perf_counter() - wall_start,
            cycles=result.cycles, pid=os.getpid(), mode="serial",
            **point_ctx.span_fields())
        return result

    #: How long to wait for stragglers once the pool has been torn down
    #: after a timeout (completed futures return instantly; running ones
    #: fail with BrokenProcessPool as soon as the executor notices).
    _POOL_DRAIN_TIMEOUT = 30.0
    #: Cap on the exponential inter-round retry backoff.
    _MAX_BACKOFF = 30.0

    def _run_missing_parallel(
        self, missing: List[_Missing], jobs: int, store=None, trace_ctx=None,
    ) -> None:
        # Generate traces in the parent first: forked workers then
        # inherit the memoized traces instead of regenerating one per
        # process (and spawn-based platforms still regenerate the same
        # deterministic trace from (name, scale)).
        for workload in dict.fromkeys(w for _, w, _, _ in missing):
            self.trace(workload)
        collect_metrics = self.obs is not None
        scale = self.effective_scale()
        disk = self._disk_cache()
        workers = min(jobs, len(missing))
        metrics_by_key: Dict[str, object] = {}
        # One child span per point, minted up front so a retried point
        # keeps its span identity across rounds.
        ctx_by_key: Dict[str, object] = {}
        if trace_ctx is not None:
            ctx_by_key = {entry[0]: trace_ctx.child() for entry in missing}
        attempts: Dict[str, int] = {entry[0]: 0 for entry in missing}
        pending: List[_Missing] = list(missing)
        round_number = 0
        with self._span(f"run_many:{len(missing)}points:{workers}jobs"):
            while pending:
                round_number += 1
                if round_number > 1:
                    delay = min(self.retry_backoff * 2 ** (round_number - 2),
                                self._MAX_BACKOFF)
                    if delay > 0:
                        _time.sleep(delay)
                pending = self._run_one_round(
                    pending, min(jobs, len(pending)), collect_metrics, scale,
                    disk, store, metrics_by_key, attempts, ctx_by_key)
        # Merge worker metrics in the original submission order so
        # parent-side aggregation is deterministic run to run, no matter
        # which retry round completed each point.
        if self.obs is not None:
            for entry in missing:
                metrics = metrics_by_key.get(entry[0])
                if metrics is not None:
                    self.obs.metrics.merge(metrics)

    def _run_one_round(
        self,
        pending: List[_Missing],
        workers: int,
        collect_metrics: bool,
        scale: float,
        disk,
        store,
        metrics_by_key: Dict[str, object],
        attempts: Dict[str, int],
        ctx_by_key: Optional[Dict[str, object]] = None,
    ) -> List[_Missing]:
        """Run one retry round in a fresh pool; return the points to retry.

        Raises :class:`SweepError` once any point exhausts its retries.
        A per-point timeout tears the whole pool down (the stuck worker
        cannot be targeted individually); already-completed futures are
        still harvested, everything else fails this round and is
        retried in the next pool.
        """
        failures: List[Tuple[_Missing, str]] = []
        ctx_by_key = ctx_by_key or {}
        pool = ProcessPoolExecutor(max_workers=workers)
        pool_killed = False
        try:
            futures = [
                (entry,
                 pool.submit(_simulate_point, self.config, scale, entry[1],
                             entry[2], entry[3], collect_metrics,
                             self.check_invariants,
                             (ctx_by_key[entry[0]].to_wire()
                              if entry[0] in ctx_by_key else None)))
                for entry in pending
            ]
            for entry, future in futures:
                fingerprint = entry[0]
                timeout = (self._POOL_DRAIN_TIMEOUT if pool_killed
                           else self.point_timeout)
                try:
                    result, metrics, spans = future.result(timeout=timeout)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except FuturesTimeout:
                    failures.append((entry, (
                        f"no result within {timeout}s"
                        + ("" if pool_killed else " (worker killed)"))))
                    if not pool_killed:
                        self._terminate_pool(pool)
                        pool_killed = True
                    continue
                except BaseException as exc:
                    failures.append((entry, f"{type(exc).__name__}: {exc}"))
                    continue
                self.simulations_run += 1
                self._results[fingerprint] = result
                if metrics is not None:
                    metrics_by_key[fingerprint] = metrics
                if spans and self.obs is not None:
                    # Harvested in submission order, so the re-emitted
                    # worker spans land deterministically in the trace.
                    tracer = self.obs.tracer
                    for span in spans:
                        fields = dict(span)
                        tracer.emit(fields.pop("ev"), fields.pop("t"),
                                    **fields)
                if disk is not None:
                    disk.store(fingerprint, result)
                if store is not None:
                    store.append(fingerprint, result)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        retry: List[_Missing] = []
        exhausted: List[PointFailure] = []
        for entry, reason in failures:
            fingerprint = entry[0]
            attempts[fingerprint] += 1
            if attempts[fingerprint] > self.point_retries:
                exhausted.append(PointFailure(
                    workload=entry[1], design=entry[2].name,
                    attempts=attempts[fingerprint], reason=reason))
            else:
                retry.append(entry)
        if exhausted:
            raise SweepError(exhausted)
        return retry

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-kill a pool whose worker blew the per-point timeout."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass

    def run_designs(
        self, workload: str, designs: Iterable[MMUDesign]
    ) -> Dict[str, SimulationResult]:
        designs = list(designs)
        results = self.run_many([(workload, d) for d in designs])
        return {d.name: r for d, r in zip(designs, results)}

    def clear(self) -> None:
        """Drop memoized results *and* release their hierarchies."""
        self._results.clear()
        self._hierarchies.clear()


# A process-wide cache shared by all experiment drivers (and by the
# pytest-benchmark harness, which regenerates every figure in one run).
GLOBAL_CACHE = ResultCache()


def resolve_workloads(names: Optional[Iterable[str]], default: Iterable[str]) -> List[str]:
    """Validate a workload-name list against the registry."""
    chosen = list(names) if names is not None else list(default)
    for name in chosen:
        if name not in registry.WORKLOADS:
            raise KeyError(f"unknown workload {name!r}")
    return chosen


ALL_WORKLOADS: Tuple[str, ...] = tuple(registry.WORKLOADS)
HIGH_BANDWIDTH = registry.HIGH_BANDWIDTH
LOW_BANDWIDTH = registry.LOW_BANDWIDTH
