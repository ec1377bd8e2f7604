"""Run the benchmark on a parent commit and on the working tree, in pairs.

Usage, from the root of a checkout::

    python3 benchmarks/pairs.py --parent REF [--workload W ...] \\
        [--pairs 5] [--seed 1] --out RECORD.json

The parent tree is ``git archive REF src``, the change tree a copy of
the working tree's ``src/``; both get this checkout's ``perfbench/``
and ``BENCHMARK.json`` and live in one temporary directory.  Pair ``i``
runs ``perfbench/run.py --seed SEED+i --trace 0`` in each tree for
BENCHMARK.json's ``run_seconds``, the parent first in even pairs.  The
record holds every run's result line and, per workload and end-to-end
metric, both sides' medians and quartiles and the pairs the change won.
The exit status is 1 when a run fails (non-zero exit, no result line,
``correct: false``), when the change's failed share exceeds the
parent's, or when a change median is worse than the parent median by
more than the metric's BENCHMARK.json ``bound``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: A run's time limit, in multiples of ``run_seconds``.
TIMEOUT_RUNS = 10


def run_order(pair: int) -> Tuple[str, str]:
    """Even pairs run the parent first."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def result_line(stdout: str) -> Optional[dict]:
    """The JSON object perfbench prints as its last line, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summarize(spec: dict, runs: List[dict]) -> Dict[str, dict]:
    """Per end-to-end metric: each side's quartiles and the change's pair wins."""
    by_pair: Dict[int, Dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    summary = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values: Dict[str, List[float]] = {side: [] for side in SIDES}
        wins = pairs = 0
        for sides in by_pair.values():
            got = {side: result["metrics"][name]["value"]
                   for side, result in sides.items()}
            for side, value in got.items():
                values[side].append(value)
            if len(got) == 2:
                pairs += 1
                wins += (got["change"] < got["parent"] if lower
                         else got["change"] > got["parent"])
        if values["parent"] and values["change"]:
            summary[name] = {
                "better": metric["better"], "bound": metric["bound"],
                **{side: {"q1": percentile(values[side], 25),
                          "median": percentile(values[side], 50),
                          "q3": percentile(values[side], 75)}
                   for side in SIDES},
                "change_wins": wins, "pairs": pairs}
    return summary


def verdict(spec: dict, workloads: Dict[str, List[dict]]) -> List[str]:
    """Why the change fails, one reason a line; empty when it passes."""
    reasons = []
    for workload, runs in workloads.items():
        tally = {side: [0, 0] for side in SIDES}  # failed, attempted
        for run in runs:
            where = f"{workload}: {run['side']} run, seed {run['seed']}"
            if run["exit"] != 0:
                reasons.append(f"{where}: exit {run['exit']}")
            elif run["result"] is None:
                reasons.append(f"{where}: printed no JSON result line")
            else:
                if not run["result"]["correct"]:
                    reasons.append(f"{where}: correct: false")
                tally[run["side"]][0] += run["result"]["failed"]
                tally[run["side"]][1] += run["result"]["attempted"]
        parent, change = (failed / max(attempted, 1)
                          for failed, attempted in tally.values())
        if change > parent:
            reasons.append(f"{workload}: failed share rose from "
                           f"{parent:.4f} to {change:.4f}")
        for name, stats in summarize(spec, runs).items():
            parent, change = (stats[side]["median"] for side in SIDES)
            bound = stats["bound"]
            if (change > parent * (1 + bound) if stats["better"] == "lower"
                    else change < parent * (1 - bound)):
                reasons.append(
                    f"{workload}: {name} median {change:.6g} against parent "
                    f"{parent:.6g}, worse by more than its bound {bound:g}")
    return reasons


def _git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True).stdout


def build_trees(tmp: Path, commit: str) -> Dict[str, Path]:
    """The parent and change trees: only ``src/`` differs between them."""
    trees = {side: tmp / side for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit, "src"))) as tar:
        tar.extractall(trees["parent"])
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench-work")
    shutil.copytree(ROOT / "src", trees["change"] / "src", ignore=ignore)
    for tree in trees.values():
        shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=ignore)
        shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in its own session, whose process group is killed after."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_RUNS * seconds)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        status = f"timeout after {TIMEOUT_RUNS * seconds:g}s"
    finally:
        try:  # pool workers or replicas the run left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    run = {"exit": status, "wall_s": time.perf_counter() - started,
           "result": result_line(stdout) if status == 0 else None}
    if run["result"] is None:
        run["output_tail"] = stdout.strip().splitlines()[-10:]
    return run


def _cpu() -> str:
    try:
        info = Path("/proc/cpuinfo").read_text(errors="replace")
    except OSError:
        return platform.machine()
    return next((line.split(":", 1)[1].strip() for line in info.splitlines()
                 if line.startswith("model name")), platform.machine())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REF")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1,
                        help="pair i runs seed+i on both sides")
    parser.add_argument("--out", required=True, metavar="PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = spec["run_seconds"]
    try:
        commit = _git("rev-parse", "--verify",
                      f"{args.parent}^{{commit}}").decode().strip()
    except subprocess.CalledProcessError as exc:
        parser.error(f"--parent {args.parent}: {exc.stderr.decode().strip()}")
    workloads: Dict[str, List[dict]] = {
        name: [] for name in args.workload or names}
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        trees = build_trees(Path(tmp), commit)
        for workload, runs in workloads.items():
            for pair in range(args.pairs):
                seed = args.seed + pair
                for side in run_order(pair):
                    runs.append({"pair": pair, "seed": seed, "side": side,
                                 **run_once(trees[side], workload, seed,
                                            seconds)})
                    print(f"{workload} seed {seed} {side}: exit "
                          f"{runs[-1]['exit']}, {runs[-1]['wall_s']:.1f}s",
                          flush=True)
    reasons = verdict(spec, workloads)
    summary = {workload: summarize(spec, runs)
               for workload, runs in workloads.items()}
    Path(args.out).write_text(json.dumps({
        "parent_commit": commit,
        "method": (f"parent = git archive {commit} src, change = the working "
                   "tree's src, both with this checkout's perfbench; pair i "
                   f"runs perfbench/run.py --seed {args.seed}+i --seconds "
                   f"{seconds:g} --trace 0 in each tree, parent first in "
                   "even pairs"),
        "host": {"cpu": _cpu(), "vcpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "os": platform.platform()},
        "verdict": {"ok": not reasons, "reasons": reasons},
        "summary": summary,
        "runs": workloads,
    }, indent=1) + "\n")
    for workload, metrics in summary.items():
        for name, stats in metrics.items():
            print(f"{workload:14} {name:12} parent "
                  f"{stats['parent']['median']:10.4g}  change "
                  f"{stats['change']['median']:10.4g}  change won "
                  f"{stats['change_wins']}/{stats['pairs']}")
    for reason in reasons:
        print(f"FAIL {reason}")
    print(f"verdict: {'fail' if reasons else 'pass'}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
