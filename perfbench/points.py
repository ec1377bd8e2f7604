"""One grid point through its five stages, the method-path oracle, the sampler.

A point's stages are the public calls a pool worker makes::

    registry.load(name, scale, seed)   workloads  (generate/compile/store or mmap)
    trace.coalesced_per_cu()           gpu        (the coalescer)
    MMUDesign.build(config, tables)    system
    simulate(trace, hierarchy, ...)    system     (memsys/core inside)
    DiskCache.store(fingerprint, r)    experiments

Every point starts from a freshly built hierarchy, so its modelled
caches and TLBs are empty.  The functions here run inside pool workers
(``spawn`` context), so they take and return plain picklable values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.disk_cache import DiskCache, point_fingerprint
from repro.obs import Observability
from repro.system.config import SoCConfig
from repro.system.designs import DESIGNS_BY_NAME, MMUDesign
from repro.system.run import simulate
from repro.workloads import registry
from repro.workloads.compiled import TraceStore

from perfbench.common import ROOT, Spans, nworkers

BASE_CONFIG = SoCConfig()

#: Host-time groups inside ``simulate()`` for the stack sampler.
SAMPLE_GROUPS = ("run", "fastpath", "memsys", "core", "engine", "other")


def design_named(name: str) -> MMUDesign:
    return DESIGNS_BY_NAME[name]


def soc_config(dram_latency: Optional[float] = None) -> SoCConfig:
    """The base SoC, with the one override the service stream varies."""
    if dram_latency is None:
        return BASE_CONFIG
    return dataclasses.replace(BASE_CONFIG, dram_latency=dram_latency)


def fingerprint(workload: str, scale: float, seed: Optional[int],
                design: MMUDesign, config: SoCConfig = BASE_CONFIG) -> str:
    """The result-cache key of a point; seeded traces get a seed-salted key.

    With ``seed=None`` this is exactly the service's point fingerprint,
    so precomputed entries are served by the replicas' disk tier.
    """
    base = point_fingerprint(workload, scale, design, False, config)
    if seed is None:
        return base
    return hashlib.sha256(f"{base}:seed={seed}".encode()).hexdigest()


def summary(result) -> Dict[str, object]:
    """The simulated outcome the oracle compares: exact counts and cycles."""
    return {"cycles": result.cycles, "instructions": result.instructions,
            "requests": result.requests,
            "counters": {k: result.counters[k] for k in sorted(result.counters)}}


def mismatch(reference: Dict[str, object], got: Dict[str, object]
             ) -> Optional[str]:
    """Why ``got`` disagrees with the oracle's ``reference`` (None if it agrees)."""
    for key in ("cycles", "instructions", "requests"):
        if got.get(key) != reference[key]:
            return f"{key} {got.get(key)!r} != reference {reference[key]!r}"
    counters = got.get("counters")
    if counters is not None and dict(counters) != reference["counters"]:
        diff = sorted(k for k in set(counters) | set(reference["counters"])
                      if counters.get(k) != reference["counters"].get(k))
        return f"counters differ: {', '.join(diff)}"
    if counters is None:
        return "reply carries no counters"
    return None


# -- the method-path oracle ------------------------------------------------

def oracle_group(tasks: List[Tuple]) -> List[Dict[str, object]]:
    """Reference outcomes on the instrumented (method) path.

    ``tasks`` share one ``(workload, scale, seed)``.  The trace is
    generated fresh (no compiled store, no memo), once for the group
    (simulation only reads it), and an ``Observability`` bundle is
    attached to each hierarchy, which disables the compiled fast path;
    the timed runs must agree with this exactly.
    """
    workload, scale, seed = tasks[0][:3]
    started = time.perf_counter()
    trace = registry.load_fresh(workload, scale=scale, seed=seed)
    generate = (time.perf_counter() - started) / len(tasks)
    out = []
    for task in tasks:
        if tuple(task[:3]) != (workload, scale, seed):
            raise ValueError(f"oracle group mixes traces: {task!r}")
        design = design_named(task[3])
        config = soc_config(task[4])
        started = time.perf_counter()
        obs = Observability()
        hierarchy = design.build(config, {0: trace.address_space.page_table},
                                 obs=obs)
        reference = summary(simulate(trace, hierarchy,
                                     design.soc_config(config),
                                     design=design.name, obs=obs))
        # Host time to record it (its share of the generation included):
        # a cost estimate for ordering work, never compared.
        reference["seconds"] = generate + time.perf_counter() - started
        out.append(reference)
    return out


def source_digest(src: Path = ROOT / "src" / "repro") -> str:
    """A digest of the program's sources: every ``.py`` file's path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class OracleStore:
    """Recorded references, one JSON file per point, reused by later runs.

    References live under a directory named by :func:`source_digest`,
    so a program change re-records them from its own method path
    instead of being checked against another version's.
    """

    def __init__(self, root: Path) -> None:
        self.root = root / source_digest()[:24]
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, task: Tuple) -> Path:
        key = hashlib.sha256(json.dumps(list(task)).encode()).hexdigest()
        return self.root / f"{key[:32]}.json"

    def get(self, task: Tuple) -> Optional[Dict[str, object]]:
        try:
            with open(self._path(task), encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def put(self, task: Tuple, reference: Dict[str, object]) -> None:
        path = self._path(task)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(reference, handle)
        os.replace(tmp, path)


def record_references(pool, store: OracleStore, tasks: List[Tuple]
                      ) -> Dict[Tuple, Dict[str, object]]:
    """References for every task: from ``store``, else computed on ``pool``."""
    refs = {task: store.get(task) for task in tasks}
    groups: Dict[Tuple, List[Tuple]] = {}
    for task, ref in refs.items():
        if ref is None:
            groups.setdefault(tuple(task[:3]), []).append(task)
    futures = [(group, pool.submit(oracle_group, group))
               for group in groups.values()]
    for group, future in futures:
        for task, ref in zip(group, future.result()):
            store.put(task, ref)
            refs[task] = ref
    return refs


# -- the stack sampler -----------------------------------------------------

def sample_group(filename: str) -> Optional[str]:
    """Module group of a source file inside ``src/repro`` (None outside it)."""
    path = filename.replace("\\", "/")
    cut = path.rfind("/repro/")
    if cut < 0:
        return None
    rel = path[cut + len("/repro/"):]
    if rel == "system/run.py":
        return "run"
    if rel == "system/fastpath.py":
        return "fastpath"
    for group in ("memsys", "core", "engine"):
        if rel.startswith(group + "/"):
            return group
    return "other"


class StackSampler:
    """A thread that polls ``sys._current_frames()`` for one target thread.

    Each sample walks from the innermost frame outwards to the first
    frame inside ``src/repro`` and counts its module group.  The
    compiled fast path runs unmodified; the cost is the sampling
    thread's turns on the interpreter lock.
    """

    def __init__(self, target: int, interval: float = 0.005) -> None:
        self.target = target
        self.interval = interval
        self.counts = dict.fromkeys(SAMPLE_GROUPS, 0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.target)
            while frame is not None:
                group = sample_group(frame.f_code.co_filename)
                if group is not None:
                    # Samples outside ``src/repro`` (entering or leaving
                    # simulate) are not counted.
                    self.counts[group] += 1
                    break
                frame = frame.f_back

    def __enter__(self) -> "StackSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# -- worker-side stage execution -------------------------------------------

@contextmanager
def _layer_spans(spans: Spans, parent: Dict[str, object]):
    """Child spans around the calls ``registry.load`` makes on a store miss.

    Wraps the workload generators and ``TraceStore.store`` for the
    duration of one traced point, then restores them, so untraced
    points run the unwrapped functions.
    """
    owners: List[Tuple[object, str, object]] = []

    def wrap(owner, attr, name, getter, setter):
        original = getter(owner, attr)

        def wrapped(*args, **kwargs):
            with spans.span(name, parent["id"]):
                return original(*args, **kwargs)

        owners.append((owner, attr, original))
        setter(owner, attr, wrapped)

    def get_item(owner, key):
        return owner[key]

    def set_item(owner, key, value):
        owner[key] = value

    for name in list(registry.WORKLOADS):
        wrap(registry.WORKLOADS, name, "workloads.generate", get_item, set_item)
    wrap(TraceStore, "store", "workloads.store", getattr, setattr)
    try:
        yield
    finally:
        for owner, attr, original in reversed(owners):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


class PointWorker:
    """Per-process state of a pool worker: the current round and its caches.

    A round names its trace store and result cache; the first task of
    a new round clears the registry's in-process memo, so every round
    starts as a fresh sweep process would.
    """

    def __init__(self) -> None:
        self.round: Optional[str] = None
        self.disk: Optional[DiskCache] = None
        self.spans = Spans(f"w{os.getpid()}")

    def begin_round(self, round_id: str, trace_root: str,
                    cache_dir: str) -> None:
        if self.round == round_id:
            return
        self.round = round_id
        registry.set_trace_cache(trace_root)
        registry.clear_cache()
        self.disk = DiskCache(cache_dir)

    def run(self, task: Dict[str, object]) -> Dict[str, object]:
        self.begin_round(task["round"], task["trace_root"], task["cache_dir"])
        workload, scale, seed = task["workload"], task["scale"], task["seed"]
        design = design_named(task["design"])
        traced = task["traced"]
        spans = self.spans
        spans.records = []
        point = (spans.open("point", task["parent"], workload=workload,
                            design=design.name) if traced else None)

        def stage(name: str, **attrs: object):
            return (spans.span(name, point["id"], **attrs) if traced
                    else nullcontext())

        stats_before = registry.trace_cache_stats()
        sampler = StackSampler(threading.get_ident()) if traced else None
        stamps = [time.perf_counter()]
        with stage("workloads.load") as load, (
                _layer_spans(spans, load) if traced else nullcontext()):
            trace = registry.load(workload, scale=scale, seed=seed)
        stamps.append(time.perf_counter())
        with stage("gpu.coalesce"):
            trace.coalesced_per_cu()
        stamps.append(time.perf_counter())
        with stage("system.build"):
            hierarchy = design.build(BASE_CONFIG,
                                     {0: trace.address_space.page_table})
        stamps.append(time.perf_counter())
        with stage("system.simulate", kind=design.kind), (
                sampler if traced else nullcontext()):
            result = simulate(trace, hierarchy, design.soc_config(BASE_CONFIG),
                              design=design.name)
        stamps.append(time.perf_counter())
        fp = fingerprint(workload, scale, seed, design)
        with stage("experiments.result_store"):
            self.disk.store(fp, result)
        stamps.append(time.perf_counter())
        if traced:
            spans.close(point)
        stats_after = registry.trace_cache_stats()
        return {
            "workload": workload, "design": design.name, "kind": design.kind,
            "fingerprint": fp, "summary": summary(result),
            "stages": [b - a for a, b in zip(stamps, stamps[1:])],
            "latency": stamps[-1] - stamps[0],
            "store_hits": stats_after["hits"] - stats_before["hits"],
            "store_misses": stats_after["misses"] - stats_before["misses"],
            "spans": list(spans.records),
            "samples": sampler.counts if traced else None,
            "pid": os.getpid(),
            "maxrss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


_WORKER: Optional[PointWorker] = None


def run_point(task: Dict[str, object]) -> Dict[str, object]:
    """Pool entry point: one grid point through its five stages."""
    global _WORKER
    if _WORKER is None:
        _WORKER = PointWorker()
    return _WORKER.run(task)


def warm_trace(task: Tuple[str, float, Optional[int], str]) -> None:
    """Pool entry point for set-up: compile one trace into a store."""
    workload, scale, seed, trace_root = task
    registry.set_trace_cache(trace_root)
    registry.load(workload, scale=scale, seed=seed)
    registry.clear_cache()


def worker_pid(delay: float) -> int:
    """Pool entry point that only reports its process, for starting workers."""
    time.sleep(delay)
    return os.getpid()


def make_pool() -> ProcessPoolExecutor:
    """A pool of fresh interpreter processes (``spawn``), every worker started."""
    pool = ProcessPoolExecutor(max_workers=nworkers(),
                               mp_context=multiprocessing.get_context("spawn"))
    pids = {f.result() for f in [pool.submit(worker_pid, 0.05)
                                 for _ in range(nworkers())]}
    while len(pids) < nworkers():
        pids.add(pool.submit(worker_pid, 0.05).result())
    return pool


# -- simulated counts ------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_counts(summaries: List[Dict[str, object]]) -> Dict[str, float]:
    """Deterministic simulated totals and ratios over a set of points."""
    def total(key: str, rows=None) -> float:
        rows = summaries if rows is None else rows
        return float(sum(row["counters"].get(key, 0) for row in rows))

    vc_rows = [s for s in summaries if "vc.accesses" in s["counters"]]
    fbt_rows = [s for s in summaries
                if "iommu.fbt_hits" in s["counters"]
                or "iommu.fbt_misses" in s["counters"]]
    return {
        "system.requests": float(sum(s["requests"] for s in summaries)),
        "system.instructions": float(sum(s["instructions"] for s in summaries)),
        "system.cycles": float(sum(s["cycles"] for s in summaries)),
        "memsys.tlb.miss_ratio": _ratio(total("tlb.misses"),
                                        total("tlb.accesses")),
        "memsys.iommu.accesses": total("iommu.accesses"),
        "memsys.iommu.queue_cycles": total("iommu.queue_cycles"),
        "memsys.iommu.walks": total("iommu.walks"),
        "memsys.l1.hit_ratio": _ratio(
            total("l1.hits"), total("l1.hits") + total("l1.misses")),
        "memsys.l2.hit_ratio": _ratio(
            total("l2.hits"), total("l2.hits") + total("l2.misses")),
        "core.vc.filter_ratio": (
            1.0 - _ratio(total("iommu.accesses", vc_rows),
                         total("vc.accesses", vc_rows)) if vc_rows else 0.0),
        "core.fbt.hit_fraction": _ratio(total("iommu.fbt_hits", fbt_rows),
                                        total("iommu.tlb_misses", fbt_rows)),
    }
