"""The sweep workloads: ``sweep_warm`` and ``sweep_cold``.

A round pushes every grid point through its five stages on a pool of
at most two worker processes.  Points go to the pool by size class,
largest first, in the seed's order inside a class, so a round ends on
small points and its wall does not depend on where the seed puts a
large one.  Meanwhile a thread of this process reads finished points'
results back from the result cache the round writes (the read a
figure re-render makes), one every 20 ms, so the timed reads are
spread over the whole run.  Rounds repeat while the next one would
still end within ``--seconds``.  In a traced run, rounds alternate
untraced / traced, so the tracing overhead is the ratio of the two.

* ``sweep_warm`` — figure regeneration: high- and
  low-translation-bandwidth workloads (all but three, see
  :data:`LEFT_OUT`) × six designs (the five Table 2
  designs plus L1-Only VC (128)) at scale 0.1.  Set-up compiles the
  traces into a store; each round starts with an empty result cache.
* ``sweep_cold`` — a first run at a new, larger scale (1.25): all 15
  workloads under the IDEAL MMU, each round with an empty trace store
  and an empty result cache.
"""

from __future__ import annotations

import math
import random
import shutil
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.paper_targets import TARGETS
from repro.experiments.disk_cache import DiskCache
from repro.system.designs import (
    FULL_VC,
    IDEAL_MMU,
    L1_ONLY_VC,
    L1_ONLY_VC_128,
    PHYSICAL,
    TABLE2_DESIGNS,
)
from repro.workloads.registry import HIGH_BANDWIDTH, LOW_BANDWIDTH, WORKLOADS

from perfbench import points
from perfbench.common import (
    SETUP_REPEATS,
    WORK,
    Spans,
    median,
    nworkers,
    percentile,
    self_maxrss_mb,
    self_times,
    write_spans,
)

#: Seconds between two timed result-cache reads during a round.
READ_INTERVAL = 0.02

WARM_DESIGNS = tuple(d.name for d in TABLE2_DESIGNS) + (L1_ONLY_VC_128.name,)
#: Workloads ``sweep_warm`` leaves to ``sweep_cold``.  fw and nw keep a
#: large footprint below scale 0.1 (103,424 and 27,648 requests, where
#: bfs has 9,140) and would take most of a round.  lud's footprint moves
#: with the trace seed (5,246 to 36,564 requests at scale 0.1), which
#: would make a round's work depend on the run seed.  fw_block (17,664,
#: fixed) stays: its VC With OPT points are the grid's FBT hits.
LEFT_OUT = ("fw", "lud", "nw")
WARM_WORKLOADS = tuple(w for w in HIGH_BANDWIDTH + LOW_BANDWIDTH
                       if w not in LEFT_OUT)


@dataclass(frozen=True)
class SweepShape:
    """What one sweep workload runs."""

    workloads: Tuple[str, ...]
    designs: Tuple[str, ...]
    scale: float
    #: Whether set-up compiles the traces (warm) or every round
    #: generates them into an empty store (cold).
    warm_store: bool


SHAPES: Dict[str, SweepShape] = {
    "sweep_warm": SweepShape(WARM_WORKLOADS, WARM_DESIGNS, 0.1, True),
    "sweep_cold": SweepShape(tuple(WORKLOADS), (IDEAL_MMU.name,), 1.25, False),
}

#: Small shapes for the benchmark's own tests (``--size tiny``).
TINY_SHAPES: Dict[str, SweepShape] = {
    "sweep_warm": SweepShape(("bfs", "kmeans"), WARM_DESIGNS, 0.02, True),
    "sweep_cold": SweepShape(("bfs", "kmeans"), (IDEAL_MMU.name,), 0.05,
                             False),
}


def trace_seed(seed: int) -> int:
    """The workload generators' seed for a run seed (kept non-negative)."""
    return seed % (2 ** 31)


def grid(shape: SweepShape, seed: int, round_index: int
         ) -> List[Tuple[str, str]]:
    """The grid points of one round, in an order drawn from the seed."""
    cells = [(w, d) for w in shape.workloads for d in shape.designs]
    random.Random(f"perfbench-grid:{seed}:{round_index}").shuffle(cells)
    return cells


def dispatch_order(shape: SweepShape, seed: int, round_index: int,
                   seconds: Dict[Tuple[str, str], float]
                   ) -> List[Tuple[str, str]]:
    """The order a round hands its points to the pool.

    Points go largest first by size class (a half power of two of the
    host seconds the oracle took to record them), and in :func:`grid`'s
    seeded order inside a class, so the last points to finish are small
    ones.
    """
    def size_class(cell: Tuple[str, str]) -> int:
        return round(2 * math.log2(max(seconds[cell], 1e-6)))

    return sorted(grid(shape, seed, round_index),
                  key=lambda cell: -size_class(cell))


def accuracy(summaries: Dict[Tuple[str, str], Dict[str, object]]
             ) -> Dict[str, float]:
    """Three deterministic model-accuracy counts (0 where the grid lacks them)."""
    def rel(workload: str, design: str) -> Optional[float]:
        ideal = summaries.get((workload, IDEAL_MMU.name))
        other = summaries.get((workload, design))
        if ideal is None or other is None:
            return None
        return ideal["cycles"] / other["cycles"]

    def mean(values) -> float:
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else 0.0

    workloads = sorted({w for w, _ in summaries})
    high = [w for w in workloads if w in HIGH_BANDWIDTH]
    miss_ratios = []
    for w in workloads:
        row = summaries.get((w, "Baseline 512"))
        if row is not None and row["counters"].get("tlb.accesses"):
            miss_ratios.append(row["counters"].get("tlb.misses", 0)
                               / row["counters"]["tlb.accesses"])
    return {
        "accuracy.fig9.baseline512_high_bw": mean(
            rel(w, "Baseline 512") for w in high),
        "accuracy.fig9.vc_opt_high_bw": mean(rel(w, "VC With OPT") for w in high),
        "accuracy.fig2.avg_miss_ratio_32": mean(miss_ratios),
    }


class ReadBack:
    """Reads finished points' results back from a round's result cache.

    A thread wakes every :data:`READ_INTERVAL`, reads the result of one
    point that has finished (drawn by the seed), times the read and
    checks the result against the oracle outside the timed part.  A
    read and its check take well under a millisecond, so the workers
    keep nearly all of both CPUs.
    """

    def __init__(self, cache_dir: Path, refs, oracle_task, seed: str) -> None:
        self.disk = DiskCache(cache_dir)
        self.refs = refs
        self.oracle_task = oracle_task
        self.finished: List[Dict[str, object]] = []
        self.times: List[float] = []
        self.wrong: List[str] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()  # guards ``finished``
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def finish(self, future) -> None:
        """Done-callback of a point's future: its result may now be read."""
        if future.exception() is None:
            with self._lock:
                self.finished.append(future.result())

    def _run(self) -> None:
        while not self._stop.wait(READ_INTERVAL):
            self._read_one()

    def _read_one(self) -> None:
        with self._lock:
            if not self.finished:
                return
            out = self._rng.choice(self.finished)
        started = time.perf_counter()
        result = self.disk.load(out["fingerprint"])
        self.times.append(time.perf_counter() - started)
        ref = self.refs[self.oracle_task(out["workload"], out["design"])]
        why = ("missing from the result cache" if result is None
               else points.mismatch(ref, points.summary(result)))
        if why is not None:
            self.wrong.append(f"{out['workload']}/{out['design']} "
                              f"read back: {why}")

    def stop(self) -> None:
        """Stop the thread; a round too short for any read still gets one."""
        self._stop.set()
        self._thread.join()
        if not self.times:
            self._read_one()


@dataclass
class Round:
    traced: bool
    wall: float
    outs: List[Dict[str, object]]
    reads: List[float]
    wrong: List[str]
    spans: List[Dict[str, object]]


class SweepBench:
    """One run of a sweep workload: oracle, set-up, timed rounds, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path, shape: SweepShape) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.shape = shape
        self.tseed = trace_seed(seed)
        self.setup_times: List[float] = []
        self.rounds: List[Round] = []
        self.refs: Dict[Tuple, Dict[str, object]] = {}
        self.worker_peaks: Dict[int, float] = {}
        self.report: List[str] = []
        self.round_spans = Spans("parent")

    def _oracle_task(self, workload: str, design: str) -> Tuple:
        return (workload, self.shape.scale, self.tseed, design, None)

    def record_oracle(self) -> None:
        """Method-path references for every grid point (before any timing)."""
        tasks = [self._oracle_task(w, d) for w, d in grid(self.shape, self.seed, 0)]
        pool = points.make_pool()
        try:
            self.refs = points.record_references(
                pool, points.OracleStore(WORK / "oracle"), tasks)
        finally:
            pool.shutdown(wait=True)

    def setup_once(self, index: int) -> Tuple[ProcessPoolExecutor, Path]:
        started = time.perf_counter()
        pool = points.make_pool()
        store = self.run_dir / f"setup{index}" / "traces"
        try:
            if self.shape.warm_store:
                list(pool.map(points.warm_trace, [
                    (w, self.shape.scale, self.tseed, str(store))
                    for w in self.shape.workloads]))
        except BaseException:
            pool.shutdown(wait=True)
            raise
        self.setup_times.append(time.perf_counter() - started)
        return pool, store

    def run_round(self, pool: ProcessPoolExecutor, index: int, traced: bool,
                  store: Path) -> Round:
        round_dir = self.run_dir / f"round{index}"
        trace_root = store if self.shape.warm_store else round_dir / "traces"
        cache_dir = round_dir / "results"
        record = (self.round_spans.open("sweep.round", None, round=index)
                  if traced else None)
        seconds = {(w, d): ref["seconds"] for (w, _, _, d, _), ref
                   in self.refs.items()}
        tasks = [{
            "round": str(index), "trace_root": str(trace_root),
            "cache_dir": str(cache_dir), "workload": w,
            "scale": self.shape.scale, "seed": self.tseed, "design": d,
            "traced": traced, "parent": record["id"] if traced else None,
        } for w, d in dispatch_order(self.shape, self.seed, index, seconds)]
        reader = ReadBack(cache_dir, self.refs, self._oracle_task,
                          f"perfbench-reads:{self.seed}:{index}")
        try:
            started = time.perf_counter()
            futures = [pool.submit(points.run_point, task) for task in tasks]
            for future in futures:
                future.add_done_callback(reader.finish)
            wait(futures)
            wall = time.perf_counter() - started
        finally:
            reader.stop()
        if traced:
            self.round_spans.close(record)
        outs = [f.result() for f in futures]
        wrong = list(reader.wrong)
        spans = [record] if traced else []
        for out in outs:
            ref = self.refs[self._oracle_task(out["workload"], out["design"])]
            why = points.mismatch(ref, out["summary"])
            if why is not None:
                wrong.append(f"{out['workload']}/{out['design']}: {why}")
            spans.extend(out["spans"])
            self.worker_peaks[out["pid"]] = max(
                self.worker_peaks.get(out["pid"], 0.0), out["maxrss_mb"])
        shutil.rmtree(round_dir, ignore_errors=True)
        return Round(traced, wall, outs, reader.times, wrong, spans)

    def run(self) -> Tuple[bool, int, int, Dict[str, float]]:
        self.record_oracle()
        pool = store = None
        for index in range(SETUP_REPEATS):
            if pool is not None:
                pool.shutdown(wait=True)
            pool, store = self.setup_once(index)
        try:
            started = time.perf_counter()
            index = 0
            while True:
                traced = self.trace and index % 2 == 1
                self.rounds.append(self.run_round(pool, index, traced, store))
                index += 1
                # Stop before a round that would end past ``--seconds``,
                # so a run measures about that long whatever a round takes.
                spent = time.perf_counter() - started
                if (spent + spent / index > self.seconds
                        and (not self.trace or index >= 2)):
                    break
        finally:
            pool.shutdown(wait=True)
        return self._results()

    def _results(self) -> Tuple[bool, int, int, Dict[str, float]]:
        attempted = sum(len(r.outs) + len(r.reads) for r in self.rounds)
        wrong = [w for r in self.rounds for w in r.wrong]
        for line in wrong[:10]:
            self.report.append(f"WRONG {line}")
        plain = [r for r in self.rounds if not r.traced]
        traced = [r for r in self.rounds if r.traced]
        self.report.append(
            f"{self.workload}: scale {self.shape.scale}, trace seed {self.tseed}, "
            f"{len(self.rounds[0].outs)} points/round, {len(self.rounds)} rounds "
            f"({len(traced)} traced), round walls "
            + ", ".join(f"{r.wall:.3f}s" for r in self.rounds)
            + " (worker busy " + ", ".join(
                f"{sum(o['latency'] for o in r.outs) / nworkers():.3f}s"
                for r in self.rounds) + ")"
            + f"; set-ups " + ", ".join(f"{t:.3f}s" for t in self.setup_times)
            + "; every point starts with empty modelled caches and TLBs")
        metrics = {
            "sweep_s": median([r.wall for r in plain]),
            "cold_p50_ms": 1000.0 * median(
                [o["latency"] for r in plain for o in r.outs]),
            "hot_p50_ms": 1000.0 * median([t for r in plain for t in r.reads]),
            "peak_rss_mb": self_maxrss_mb() + sum(self.worker_peaks.values()),
            "setup_time": median(self.setup_times),
        }
        if self.trace:
            metrics.update(self._layer_metrics(plain, traced))
        return not wrong, attempted, len(wrong), metrics

    def _layer_metrics(self, plain: Sequence[Round], traced: Sequence[Round]
                       ) -> Dict[str, float]:
        n = len(traced)
        spans = [s for r in traced for s in r.spans]
        write_spans(WORK / "spans" / f"{self.workload}-seed{self.seed}.jsonl",
                    spans)
        own = self_times(spans)
        out = {
            "workloads.load_s": own.get("workloads.load", 0.0) / n,
            "workloads.generate_s": own.get("workloads.generate", 0.0) / n,
            "workloads.store_s": own.get("workloads.store", 0.0) / n,
            "workloads.store_hits": sum(
                o["store_hits"] for r in traced for o in r.outs) / n,
            "workloads.store_misses": sum(
                o["store_misses"] for r in traced for o in r.outs) / n,
            "gpu.coalesce_s": own.get("gpu.coalesce", 0.0) / n,
            "system.build_s": own.get("system.build", 0.0) / n,
            "system.simulate_s": own.get("system.simulate", 0.0) / n,
            "experiments.result_store_s": own.get(
                "experiments.result_store", 0.0) / n,
        }
        # Fast-path speed per hierarchy class, from the untraced rounds'
        # stage timers (no sampler running).
        for kind, label in ((PHYSICAL, "physical"), (FULL_VC, "vc"),
                            (L1_ONLY_VC, "l1vc")):
            rows = [o for r in plain for o in r.outs if o["kind"] == kind]
            requests = sum(o["summary"]["requests"] for o in rows)
            seconds = sum(o["stages"][3] for o in rows)
            out[f"system.ns_per_req.{label}"] = (
                1e9 * seconds / requests if requests else 0.0)
        first = {(o["workload"], o["design"]): o["summary"]
                 for o in self.rounds[0].outs}
        out.update(points.model_counts(list(first.values())))
        counts = dict.fromkeys(points.SAMPLE_GROUPS, 0)
        for r in traced:
            for o in r.outs:
                for group, value in o["samples"].items():
                    counts[group] += value
        total = sum(counts.values())
        for group in points.SAMPLE_GROUPS:
            out[f"simulate.share.{group}"] = counts[group] / total if total else 0.0
        sim_traced = sum(o["stages"][3] for r in traced for o in r.outs) / n
        sim_plain = sum(o["stages"][3] for r in plain for o in r.outs) / len(plain)
        out["simulate.sampler_overhead_frac"] = sim_traced / sim_plain - 1.0
        # Reads are never traced, so every round's reads count.
        out["hot_p99_ms"] = 1000.0 * percentile(
            [t for r in self.rounds for t in r.reads], 99.0)
        out["obs.overhead_frac"] = (median([r.wall for r in traced])
                                    / median([r.wall for r in plain]) - 1.0)
        scores = accuracy(first)
        out.update(scores)
        high = sum(1 for w in self.shape.workloads if w in HIGH_BANDWIDTH)
        for key, value in scores.items():
            target = TARGETS[key[len("accuracy."):]]
            self.report.append(
                f"{key} = {value:.4f} at scale {self.shape.scale} over the "
                f"grid's {len(self.shape.workloads)} workloads ({high} "
                f"high-bandwidth) "
                f"(paper {target.paper_value:g}, band [{target.low:g}, "
                f"{target.high:g}]: {target.verdict(value) if value else 'n/a'})")
        self.report.append(
            "simulate() host-time shares: " + ", ".join(
                f"{g} {out[f'simulate.share.{g}']:.3f}"
                for g in points.SAMPLE_GROUPS) + f" ({total} samples)")
        return out
