"""Shared plumbing: paths, percentiles, spans, memory peaks and the result line."""

from __future__ import annotations

import json
import os
import re
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Everything a run writes lives here (ignored by git): per-run scratch
#: directories, the oracle's recorded references and span files.
WORK = ROOT / ".perfbench-work"

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Set-ups per run; ``setup_s`` is the imports plus their median.
SETUP_REPEATS = 3


def nworkers() -> int:
    """Worker processes (sweeps) and connections (service): at most nproc, at most 2.

    Two keeps the process tree's memory small and the figures
    comparable between machines with different core counts.
    """
    return max(1, min(2, len(os.sched_getaffinity(0))))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def self_maxrss_mb() -> float:
    """This process's peak resident set size, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_cpu_s(pid: int) -> float:
    """CPU time (user + system) a live process has used, in seconds; 0 if gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            stat = handle.read()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name start at ``state``;
    # utime and stime are the 12th and 13th of them.
    fields = stat[stat.rfind(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(parent: int) -> List[int]:
    """Live processes whose parent is ``parent`` (one scan of /proc)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            out.append(int(entry))
    return out


class Spans:
    """Spans kept in memory: name, start, end and the span that caused it.

    Span ids are strings unique across processes (``prefix`` carries
    the pid), so worker spans can be merged into the parent's list.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.records: List[Dict[str, object]] = []
        self._next = 0

    def open(self, name: str, parent: Optional[str] = None,
             **attrs: object) -> Dict[str, object]:
        self._next += 1
        record: Dict[str, object] = {
            "id": f"{self.prefix}-{self._next}", "parent": parent,
            "name": name, "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.records.append(record)
        return record

    @staticmethod
    def close(record: Dict[str, object]) -> None:
        record["end"] = time.perf_counter()

    @contextmanager
    def span(self, name: str, parent: Optional[str] = None, **attrs: object):
        record = self.open(name, parent, **attrs)
        try:
            yield record
        finally:
            self.close(record)


def self_times(records: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Total self time per span name: duration minus the children's durations.

    Children of one span run one after another in one process, so
    their durations never overlap and subtracting them is exact.
    """
    records = list(records)
    child_total: Dict[str, float] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + (
                record["end"] - record["start"])
    out: Dict[str, float] = {}
    for record in records:
        own = (record["end"] - record["start"]
               - child_total.get(record["id"], 0.0))
        out[record["name"]] = out.get(record["name"], 0.0) + own
    return out


def write_spans(path: Path, records: Iterable[Dict[str, object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_spec(path: Path = SPEC_PATH) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(trace: bool, spec: Optional[Dict[str, object]] = None
                   ) -> Dict[str, str]:
    """Metric name → unit for the list a run prints (per-layer when tracing)."""
    spec = spec if spec is not None else load_spec()
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], trace: bool) -> str:
    """The final JSON line: every declared metric, with its declared unit.

    Raises ``KeyError`` when the workload did not produce a declared
    metric and ``ValueError`` when it produced an undeclared one, so a
    rename on either side cannot pass silently.
    """
    units = declared_units(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics not produced: {', '.join(missing)}")
    extra = sorted(set(metrics) - set(units))
    if extra:
        raise ValueError(f"metrics not declared in BENCHMARK.json: "
                         f"{', '.join(extra)}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    })
