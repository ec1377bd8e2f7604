"""Top-level trace-driven simulation driver.

Drives a trace through a memory hierarchy (physical baseline, L1-only
VC, or full virtual hierarchy).  The trace is replayed from its
compiled request arrays (:mod:`repro.workloads.compiled`), so a
request reaches the hierarchy as two plain values, its virtual line
address and its write flag.  The dict
:class:`~repro.gpu.coalescer.Coalescer` is only the reference the tests
check the compiled coalescing against.

CUs issue coalesced requests in globally nondecreasing time order (a
lazy-reinsertion heap over CUs), so the shared-resource queues — the
IOMMU TLB port above all — see arrivals in order and their queueing
delays are exactly the paper's serialization overhead.

Execution time is the cycle at which the last CU drains its outstanding
requests; all relative-performance figures (4, 5, 9, 10, 11) are ratios
of this quantity across MMU designs.
"""

from __future__ import annotations

import heapq
import time
import weakref
from typing import Dict, Optional, List

from repro.engine.stats import RateStats
from repro.gpu.scratchpad import Scratchpad
from repro.system.config import SoCConfig
from repro.workloads.compiled import CompiledTrace

__all__ = ["SimulationResult", "simulate"]

_TIME_EPS = 1e-9


class SimulationResult:
    """Outcome of one simulated run.

    The record itself is *slim* — plain numbers, the counter dict, and
    the IOMMU rate samples — so it pickles cheaply across process
    boundaries (the parallel sweep runner) and onto disk (the
    ``--cache-dir`` result cache).  Two in-process handles ride along
    outside the serialized state:

    * ``metrics`` — the :class:`~repro.obs.MetricsRegistry` the run
      recorded into (``None`` when no observability was attached);
    * ``hierarchy`` — a *weak* reference to the memory hierarchy the
      run drove.  Whoever built the hierarchy owns it; once they drop
      it (e.g. :meth:`ResultCache.clear`), ``result.hierarchy`` becomes
      ``None`` instead of silently pinning every server and counter the
      run ever touched.

    Both handles are dropped by pickling: an unpickled result carries
    only the slim record.
    """

    _SLIM_FIELDS = (
        "workload", "design", "cycles", "instructions", "requests",
        "counters", "iommu_rate", "wall_clock_seconds",
    )
    # Equality is about simulated outcomes.  Wall-clock time is host
    # noise — two bit-identical runs never take exactly as long — so it
    # is serialized (it feeds the perf reports) but not compared.
    _EQ_FIELDS = tuple(f for f in _SLIM_FIELDS if f != "wall_clock_seconds")

    def __init__(
        self,
        workload: str,
        design: str,
        cycles: float,
        instructions: int,
        requests: int,
        counters: Dict[str, int],
        iommu_rate: Optional[RateStats] = None,
        wall_clock_seconds: float = 0.0,
        metrics: object = None,
        hierarchy: object = None,
    ) -> None:
        self.workload = workload
        self.design = design
        self.cycles = cycles
        self.instructions = instructions
        self.requests = requests
        self.counters = counters
        self.iommu_rate = iommu_rate
        self.wall_clock_seconds = wall_clock_seconds
        self.metrics = metrics
        self._hierarchy_ref = (
            weakref.ref(hierarchy) if hierarchy is not None else None
        )

    @property
    def hierarchy(self):
        """The hierarchy this run drove, or ``None`` once released."""
        ref = self._hierarchy_ref
        return ref() if ref is not None else None

    # -- serialization: only the slim record crosses process/disk ---------
    def __getstate__(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self._SLIM_FIELDS}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.metrics = None
        self._hierarchy_ref = None

    def __repr__(self) -> str:
        return (
            f"SimulationResult(workload={self.workload!r}, "
            f"design={self.design!r}, cycles={self.cycles!r}, "
            f"instructions={self.instructions!r}, requests={self.requests!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._EQ_FIELDS
        )

    __hash__ = None  # mutable record, same as the former dataclass

    # -- derived metrics ---------------------------------------------------
    def relative_time(self, baseline: "SimulationResult") -> float:
        """Execution time relative to ``baseline`` (1.0 = equal)."""
        if baseline.cycles == 0:
            raise ValueError("baseline run has zero cycles")
        return self.cycles / baseline.cycles

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """How much faster this run is than ``baseline``."""
        if self.cycles == 0:
            raise ValueError("run has zero cycles")
        return baseline.cycles / self.cycles

    def per_cu_tlb_miss_ratio(self) -> float:
        accesses = self.counters.get("tlb.accesses", 0)
        if accesses == 0:
            return 0.0
        return self.counters.get("tlb.misses", 0) / accesses

    def tlb_miss_breakdown(self) -> Dict[str, float]:
        """Figure 2 fractions of per-CU TLB misses by data residence."""
        misses = self.counters.get("tlb.misses", 0)
        if misses == 0:
            return {"l1_hit": 0.0, "l2_hit": 0.0, "l2_miss": 0.0}
        return {
            "l1_hit": self.counters.get("tlb.miss_l1_hit", 0) / misses,
            "l2_hit": self.counters.get("tlb.miss_l2_hit", 0) / misses,
            "l2_miss": self.counters.get("tlb.miss_l2_miss", 0) / misses,
        }

    def iommu_accesses_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.counters.get("iommu.accesses", 0) / self.cycles


def simulate(
    trace: CompiledTrace,
    hierarchy,
    config: SoCConfig,
    design: str = "unnamed",
    asid: int = 0,
    max_instructions_per_cu: Optional[int] = None,
    start_time: float = 0.0,
    obs=None,
    manifest_out=None,
    check_invariants: bool = False,
    invariant_interval: int = 2048,
) -> SimulationResult:
    """Run ``trace`` through ``hierarchy`` and collect statistics.

    ``trace`` is a :class:`~repro.workloads.compiled.CompiledTrace`
    coalesced at ``config.line_size`` (``ValueError`` otherwise: the
    hierarchies derive page numbers from the config's line size).
    ``hierarchy`` is any object with ``access(cu_id, line, is_write,
    now, asid) → completion_time`` (``line`` is the request's virtual
    line address, ``is_write`` a bool), a ``counters`` bag, and a
    ``finish(now)`` hook (the three hierarchy classes in this package
    all qualify).  ``max_instructions_per_cu`` replays only the first N
    instructions of each CU's stream.

    ``start_time`` continues the clock of a previous run on the *same*
    hierarchy — the time-sharing case (context switches) — so shared
    resource servers never see time run backwards.  The reported
    ``cycles`` are relative to ``start_time``.

    ``obs`` attaches an :class:`~repro.obs.Observability` bundle: the
    tracer receives ``request.issue`` / ``request.complete`` events per
    coalesced request and the metrics registry an end-to-end
    ``request.latency`` histogram.  When None, the hierarchy's own
    ``obs`` (if it was built with one) is used, so a single bundle
    passed at construction time covers the whole stack.  Observability
    never changes simulated timing.

    ``manifest_out``, if given, is a path where a JSON run manifest
    (config, workload, design, git SHA, wall-clock, all metrics) is
    written after the run.

    ``check_invariants`` audits the hierarchy's structural invariants
    (FT↔BT bijection, inclusion bit vectors, filter counts — see
    :mod:`repro.robustness.invariants`) every ``invariant_interval``
    instructions and once at end of run, raising
    :class:`~repro.robustness.invariants.InvariantViolation` with a
    diagnostic dump on the first inconsistency.  Off by default: the
    only hot-path cost when disabled is one ``is not None`` test per
    instruction.
    """
    if start_time < 0:
        raise ValueError("start_time must be nonnegative")
    if trace.line_size != config.line_size:
        raise ValueError(
            f"trace {trace.name!r} is coalesced at {trace.line_size}-byte "
            f"lines but the SoC's caches use {config.line_size}-byte lines")
    auditor = None
    if check_invariants:
        from repro.robustness.invariants import InvariantAuditor

        auditor = InvariantAuditor(interval=invariant_interval)
    wall_start = time.perf_counter()
    if obs is None:
        obs = getattr(hierarchy, "obs", None)
    tracer = obs.tracer if obs is not None else None
    tracing = tracer is not None and tracer.enabled
    if tracing:
        tracer.emit("run.start", start_time, workload=trace.name, design=design)
    # The issue loop replays the compiled request arrays as plain lists:
    # each CU walks its own contiguous run of ``lines`` instruction by
    # instruction, and ``inst_end`` marks where each instruction's
    # requests stop (a scratchpad instruction has none).  No request
    # object is built.
    lines, inst_end, inst_flags, cu_bounds = trace.coalesced_per_cu()
    n_cus = len(cu_bounds) - 1
    hierarchy_cus = len(getattr(hierarchy, "l1s", ()) or ())
    if hierarchy_cus and n_cus > hierarchy_cus:
        raise ValueError(
            f"trace {trace.name!r} has {n_cus} CU streams but the hierarchy "
            f"models only {hierarchy_cus} CUs — build it from a SoCConfig "
            f"with n_cus >= {n_cus}"
        )

    # Per-CU replay state: the next instruction to start and where the
    # CU's instructions stop; the next request in ``lines``, the end of
    # the current instruction's requests, and its write flag.
    next_inst = cu_bounds[:-1]
    inst_stop = cu_bounds[1:]
    if max_instructions_per_cu is not None:
        inst_stop = [min(stop, start + max_instructions_per_cu)
                     for start, stop in zip(next_inst, inst_stop)]
    req_pos = [inst_end[i - 1] if i else 0 for i in next_inst]
    req_end = list(req_pos)
    writing = [False] * n_cus
    # Per-CU issue-window state, as parallel arrays: a CU issues while
    # fewer than ``cu_window`` requests are in flight, and otherwise
    # stalls until its oldest one completes.  The issue loop runs once per
    # coalesced request (plus window retries) and dominates end-to-end
    # simulation time, so the per-CU bookkeeping lives in plain lists
    # and the loop's bindings — heap ops, the hierarchy's access method,
    # stream bounds — in locals rather than attribute lookups.
    outstanding: List[List[float]] = [[] for _ in range(n_cus)]
    next_issue = [start_time] * n_cus
    last_completion = [0.0] * n_cus
    cu_window = config.cu_window
    issue_interval = trace.issue_interval
    scratch_access = Scratchpad().access  # fixed latency, shared by all CUs

    heap = [(start_time, cu_id) for cu_id in range(n_cus)
            if next_inst[cu_id] < inst_stop[cu_id]]
    heapq.heapify(heap)
    total_requests = 0
    total_instructions = 0

    heappush = heapq.heappush
    heappop = heapq.heappop
    # Re-inserting the current CU and extracting the global minimum is
    # one fused sift (``heappushpop``); when the current CU stays the
    # earliest — long same-CU request runs — it is a single compare.
    heappushpop = heapq.heappushpop
    access = hierarchy.access
    if obs is not None:
        # Per-request instrumentation wraps the access call once, here,
        # so the loop below is the same for every run.
        access = _observed_access(access, tracer if tracing else None,
                                  obs.metrics)

    # The loop keeps the earliest (candidate, cu_id) in locals; the heap
    # holds every *other* runnable CU.  It terminates when a CU drains
    # its stream with no other CU left (the only way work runs out).
    candidate, cu_id = heappop(heap) if heap else (0.0, -1)
    while cu_id >= 0:
        # Earliest cycle a new request can issue, given the window.
        t = next_issue[cu_id]
        issue = candidate if candidate > t else t
        out = outstanding[cu_id]
        if len(out) >= cu_window and out[0] > issue:
            issue = out[0]
        if issue > candidate + _TIME_EPS:
            # The outstanding-request window is full: retry at the time
            # the oldest request completes (keeps global time order).
            candidate, cu_id = heappushpop(heap, (issue, cu_id))
            continue

        pos = req_pos[cu_id]
        end = req_end[cu_id]
        if pos == end:
            # The CU's previous instruction is done: start its next one.
            inst = next_inst[cu_id]
            next_inst[cu_id] = inst + 1
            total_instructions += 1
            if auditor is not None and total_instructions % auditor.interval == 0:
                auditor.audit(hierarchy, f"instruction {total_instructions}")
            end = req_end[cu_id] = inst_end[inst]
            writing[cu_id] = (inst_flags[inst] & 1) == 1

        if pos == end:  # scratchpad instruction: no requests
            completion = scratch_access(issue)
            gap = issue_interval
            self_done = True
        else:
            completion = access(cu_id, lines[pos], writing[cu_id], issue, asid)
            total_requests += 1
            pos += 1
            req_pos[cu_id] = pos
            self_done = pos == end
            gap = issue_interval if self_done else 1.0

        # Record the issued request: retire completed ones, track the
        # new completion, and set the next issue slot (pipeline gap).
        while out and out[0] <= issue:
            heappop(out)
        heappush(out, completion)
        if completion > last_completion[cu_id]:
            last_completion[cu_id] = completion
        nxt = issue + gap
        next_issue[cu_id] = nxt

        if self_done and next_inst[cu_id] >= inst_stop[cu_id]:
            # This CU is finished; move to the next-earliest one.
            if not heap:
                break
            candidate, cu_id = heappop(heap)
            continue
        candidate, cu_id = heappushpop(heap, (nxt, cu_id))

    # A CU's drain time is its last outstanding completion.
    end_time = start_time
    for cu_id in range(n_cus):
        out = outstanding[cu_id]
        drain = max(out) if out else last_completion[cu_id]
        if drain > end_time:
            end_time = drain
    hierarchy.finish(end_time)
    if auditor is not None:
        auditor.audit(hierarchy, "end of run")

    counters = dict(hierarchy.counters.as_dict())
    if auditor is not None:
        counters["invariants.audits"] = auditor.audits
    iommu = getattr(hierarchy, "iommu", None)
    iommu_rate = None
    if iommu is not None:
        counters.update(iommu.counters.as_dict())
        iommu_rate = iommu.access_sampler.rate_stats(end_time)
    _merge_cache_counters(hierarchy, counters)
    if obs is not None:
        # Aggregate this run's counters into the shared registry so an
        # experiment-level manifest sees totals across all runs.
        obs.metrics.counters.merge(counters)

    if tracing:
        tracer.emit("run.end", end_time, workload=trace.name, design=design,
                    cycles=end_time - start_time)

    result = SimulationResult(
        workload=trace.name,
        design=design,
        cycles=end_time - start_time,
        instructions=total_instructions,
        requests=total_requests,
        counters=counters,
        iommu_rate=iommu_rate,
        wall_clock_seconds=time.perf_counter() - wall_start,
        metrics=obs.metrics if obs is not None else None,
        hierarchy=hierarchy,
    )
    if manifest_out is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        write_manifest(manifest_out, build_manifest(
            result=result, config=config, metrics=result.metrics))
    return result


def _observed_access(access, tracer, metrics):
    """``access`` with the per-request events, histogram and timeline.

    ``tracer`` (None when it does not record) receives
    ``request.issue`` / ``request.complete`` around each call; the
    ``request.latency`` histogram and, when enabled, the
    ``requests.*`` timeline series record each request's latency.
    """
    req_hist = metrics.histogram("request.latency")
    timeline = metrics.timeline

    def observed(cu_id, line, is_write, issue, asid):
        if tracer is not None:
            tracer.emit("request.issue", issue, cu=cu_id,
                        line=line, write=is_write)
        completion = access(cu_id, line, is_write, issue, asid)
        req_hist.record(completion - issue)
        if timeline is not None:
            timeline.record("requests.issued", issue)
            timeline.record("requests.latency", issue, completion - issue)
        if tracer is not None:
            tracer.emit("request.complete", completion, cu=cu_id,
                        line=line, latency=completion - issue)
        return completion

    return observed


def _merge_cache_counters(hierarchy, counters: Dict[str, int]) -> None:
    l1s = getattr(hierarchy, "l1s", None)
    if l1s:
        counters["l1.hits"] = sum(c.hits for c in l1s)
        counters["l1.misses"] = sum(c.misses for c in l1s)
    l2 = getattr(hierarchy, "l2", None)
    if l2 is not None:
        counters["l2.hits"] = counters.get("l2.hits", 0) + l2.hits
        counters["l2.misses"] = counters.get("l2.misses", 0) + l2.misses
    tlbs = getattr(hierarchy, "per_cu_tlbs", None)
    if tlbs:
        counters.setdefault("tlb.accesses", sum(t.accesses for t in tlbs))
        counters.setdefault("tlb.misses", sum(t.misses for t in tlbs))
