"""The paired benchmark driver's verdict, on canned perfbench result lines.

``benchmarks/pairs.py`` is a script, not a package module, so it is
loaded by path.  No test here runs perfbench: each builds the runs a
driver would have recorded and checks what the verdict makes of them.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
#: One run's end-to-end metrics, all "lower is better".
BASE = {"setup_s": 1.0, "sweep_s": 2.0, "peak_rss_mb": 200.0,
        "hot_p50_ms": 0.5}


def result(correct=True, attempted=100, failed=0, **metrics):
    values = {**BASE, **metrics}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in values.items()}}


def runs(parent, change, pairs_n=3):
    """A workload's runs: ``pairs_n`` pairs, each side from its own result."""
    out = []
    for pair in range(pairs_n):
        for side in pairs.run_order(pair):
            side_result = parent if side == "parent" else change
            out.append({"pair": pair, "seed": 10 + pair, "side": side,
                        "exit": 0, "result": side_result})
    return out


def test_a_a_passes():
    workloads = {"sweep_warm": runs(result(), result()),
                 "sweep_cold": runs(result(), result())}
    assert pairs.verdict(BENCHMARK, workloads) == []


def test_a_metric_past_its_bound_on_one_workload_fails_and_names_both():
    slow = result(sweep_s=2.0 * (1 + BOUNDS["sweep_s"]) * 1.01)
    workloads = {"sweep_warm": runs(result(), result()),
                 "sweep_cold": runs(result(), slow)}
    reasons = pairs.verdict(BENCHMARK, workloads)
    assert len(reasons) == 1 and reasons[0].startswith("sweep_cold: sweep_s")


def test_a_metric_exactly_at_its_bound_passes():
    # 2.0 * 1.25 and 200 * 1.2 are exact in binary floating point.
    assert BOUNDS["sweep_s"] == 0.25 and BOUNDS["peak_rss_mb"] == 0.2
    at_bound = result(sweep_s=2.5, peak_rss_mb=240.0)
    assert pairs.verdict(BENCHMARK, {"w": runs(result(), at_bound)}) == []


def test_a_higher_is_better_metric_falls_past_its_bound():
    spec = {"end_to_end": [{"name": "rate", "better": "higher",
                            "bound": 0.25}]}
    fast, slow = result(rate=100.0), result(rate=74.0)
    assert pairs.verdict(spec, {"w": runs(fast, result(rate=75.0))}) == []
    reasons = pairs.verdict(spec, {"w": runs(fast, slow)})
    assert len(reasons) == 1 and "rate" in reasons[0], reasons


def test_correct_false_fails():
    reasons = pairs.verdict(BENCHMARK,
                            {"w": runs(result(), result(correct=False))})
    assert any("correct: false" in reason for reason in reasons), reasons


def test_a_higher_failed_share_fails():
    reasons = pairs.verdict(BENCHMARK, {"w": runs(result(failed=1),
                                                  result(failed=2))})
    assert any("failed share" in reason for reason in reasons), reasons
    assert pairs.verdict(BENCHMARK, {"w": runs(result(failed=2),
                                               result(failed=1))}) == []


def test_a_non_zero_exit_fails():
    workload = runs(result(), result())
    workload[3].update(exit=1, result=None)
    reasons = pairs.verdict(BENCHMARK, {"w": workload})
    assert reasons == ["w: parent run, seed 11: exit 1"]


def test_a_missing_result_line_fails():
    workload = runs(result(), result())
    workload[0]["result"] = pairs.result_line("setup_s = ...\nTraceback\n")
    reasons = pairs.verdict(BENCHMARK, {"w": workload})
    assert reasons == ["w: parent run, seed 10: printed no JSON result line"]


def test_the_result_line_is_the_last_line():
    line = json.dumps(result())
    assert pairs.result_line(f"a report line\n{line}\n") == result()
    assert pairs.result_line(f"{line}\ntrailing text\n") is None
    assert pairs.result_line("") is None


def test_pair_order_alternates():
    assert [pairs.run_order(pair) for pair in range(4)] == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent")]


def test_the_summary_gives_medians_quartiles_and_pair_wins():
    workload = runs(result(), result(sweep_s=1.0), pairs_n=4)
    workload[-1]["result"] = result(sweep_s=3.0)  # pair 3 runs change first
    assert workload[-1]["side"] == "parent"
    stats = pairs.summarize(BENCHMARK, workload)["sweep_s"]
    assert stats["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.25}
    assert stats["change"]["median"] == 1.0
    assert (stats["change_wins"], stats["pairs"]) == (4, 4)
    assert pairs.summarize(BENCHMARK, workload)["setup_s"]["change_wins"] == 0
