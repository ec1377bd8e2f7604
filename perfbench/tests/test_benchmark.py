"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import common, points, promtext, service, sweeps

ROOT = Path(__file__).resolve().parents[2]
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace),
         "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=600)


def test_grid_is_a_pure_function_of_the_seed():
    shape = sweeps.SHAPES["sweep_warm"]
    assert sweeps.grid(shape, 5, 0) == sweeps.grid(shape, 5, 0)
    assert sweeps.grid(shape, 5, 0) != sweeps.grid(shape, 6, 0)
    assert sweeps.grid(shape, 5, 0) != sweeps.grid(shape, 5, 1)
    assert sorted(sweeps.grid(shape, 5, 0)) == sorted(sweeps.grid(shape, 6, 3))
    assert len(sweeps.grid(shape, 5, 0)) == 12 * 6


def test_dispatch_puts_large_points_first_in_the_seeds_order():
    shape = sweeps.SHAPES["sweep_warm"]
    cells = sweeps.grid(shape, 0, 0)
    seconds = {cell: 0.01 * 2 ** (i % 5) * (1 + i / 1000)
               for i, cell in enumerate(cells)}
    first = sweeps.dispatch_order(shape, 5, 0, seconds)
    assert first == sweeps.dispatch_order(shape, 5, 0, seconds)
    assert first != sweeps.dispatch_order(shape, 6, 0, seconds)
    assert sorted(first) == sorted(cells)
    # Five size classes, largest first, each in the seed's grid order.
    size = {cell: i % 5 for i, cell in enumerate(cells)}
    classes = [size[c] for c in first]
    assert classes == sorted(classes, reverse=True)
    assert len(set(classes)) == 5
    order = sweeps.grid(shape, 5, 0)
    for value in set(classes):
        assert ([c for c in first if size[c] == value]
                == [c for c in order if size[c] == value])


def test_service_schedule_is_a_pure_function_of_the_seed():
    first = service.schedule(9, 20.0)
    assert first == service.schedule(9, 20.0)
    other = service.schedule(10, 20.0)
    assert first != other
    kinds = [r.kind for r in first]
    assert kinds.count("cold") == [r.kind for r in other].count("cold")
    assert all(0.0 <= r.offset <= 20.0 for r in first)
    assert [r.offset for r in first] == sorted(r.offset for r in first)
    # Disk and cold points are each requested exactly once.
    once = [r.points[0] for r in first if r.kind in ("disk", "cold")]
    assert len(once) == len(set(once))


def test_benchmark_json_declares_every_metric_with_a_unit():
    spec = common.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == [
        "sweep_warm", "sweep_cold", "service_mixed"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert common.METRIC_NAME.match(metric["name"]), metric
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_rejects_missing_and_undeclared_metrics():
    units = common.declared_units(trace=False)
    metrics = dict.fromkeys(units, 1.0)
    line = json.loads(common.result_line(True, 3, 0, metrics, trace=False))
    assert line["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(KeyError):
        common.result_line(True, 3, 0, {"setup_s": 1.0}, trace=False)
    with pytest.raises(ValueError):
        common.result_line(True, 3, 0, dict(metrics, bogus=1.0), trace=False)


def _reference():
    return {"cycles": 1234.5, "instructions": 10, "requests": 40,
            "counters": {"l1.hits": 3, "l1.misses": 37}}


def test_a_corrupted_reply_is_counted_as_wrong():
    from repro.service.client import PointReply

    point = ("bfs", "Baseline 512", None)
    refs = {point: _reference()}
    request = service.Request(0.0, "memo", (point,))

    def reply(**changes):
        raw = {"workload": "bfs", "design": "Baseline 512", "tier": "memo",
               "coalesced": False, "fingerprint": "f", "scale": 0.05,
               "wall_clock_seconds": 0.0, **_reference()}
        raw.update(changes)
        return PointReply.from_json(raw)

    tiers, wrong, _ = service.check_reply(request, [reply()], refs)
    assert tiers == ["memo"] and wrong == []
    for corrupt in ({"cycles": 1234.0}, {"requests": 41},
                    {"counters": {"l1.hits": 4, "l1.misses": 37}},
                    {"counters": None}):
        _, wrong, _ = service.check_reply(request, [reply(**corrupt)], refs)
        assert len(wrong) == 1, corrupt
    _, wrong, _ = service.check_reply(request, [], refs)
    assert wrong


def test_oracle_references_are_keyed_by_the_program_version(tmp_path):
    src = tmp_path / "repro"
    (src / "system").mkdir(parents=True)
    (src / "system" / "run.py").write_text("A = 1\n")
    first = points.source_digest(src)
    assert first == points.source_digest(src)
    (src / "system" / "run.py").write_text("A = 2\n")
    assert points.source_digest(src) != first
    store = points.OracleStore(tmp_path / "oracle")
    assert store.root.parent == tmp_path / "oracle"
    assert store.root.name == points.source_digest()[:24]


def test_a_corrupted_sweep_result_is_counted_as_wrong():
    ref = _reference()
    assert points.mismatch(ref, json.loads(json.dumps(ref))) is None
    bad = dict(ref, counters=dict(ref["counters"], **{"l1.hits": 2}))
    assert "l1.hits" in points.mismatch(ref, bad)


def test_self_times_subtract_children():
    spans = common.Spans("t")
    records = [
        {"id": "a", "parent": None, "name": "workloads.load",
         "start": 0.0, "end": 1.0},
        {"id": "b", "parent": "a", "name": "workloads.generate",
         "start": 0.1, "end": 0.5},
        {"id": "c", "parent": "a", "name": "workloads.store",
         "start": 0.5, "end": 0.8},
    ]
    own = common.self_times(records)
    assert own["workloads.load"] == pytest.approx(0.3)
    assert own["workloads.generate"] == pytest.approx(0.4)
    with spans.span("outer") as outer, spans.span("inner", outer["id"]):
        pass
    assert [r["parent"] for r in spans.records] == [None, outer["id"]]


def test_sampler_groups():
    assert points.sample_group("/x/src/repro/system/run.py") == "run"
    assert points.sample_group("/x/src/repro/system/fastpath.py") == "fastpath"
    assert points.sample_group("/x/src/repro/memsys/tlb.py") == "memsys"
    assert points.sample_group("/x/src/repro/core/fbt.py") == "core"
    assert points.sample_group("/x/src/repro/engine/stats.py") == "engine"
    assert points.sample_group("/x/src/repro/gpu/scratchpad.py") == "other"
    assert points.sample_group("/usr/lib/python3/heapq.py") is None


def test_histogram_deltas_from_exposition():
    def doc(counts):
        lines = ["# TYPE repro_service_latency_memo histogram"]
        for replica, buckets in counts.items():
            total = 0
            for le, n in buckets:
                total += n
                lines.append(f'repro_service_latency_memo_bucket'
                             f'{{replica="{replica}",le="{le}"}} {total}')
            lines.append(f'repro_service_latency_memo_bucket'
                         f'{{replica="{replica}",le="+Inf"}} {total}')
        lines.append("# TYPE repro_service_tier_memo_total counter")
        lines.append('repro_service_tier_memo_total{replica="r0"} 5')
        lines.append('repro_service_tier_memo_total{replica="r1"} 2')
        # The gateway keeps a total beside its per-replica breakdown.
        lines.append("# TYPE repro_gateway_sheds_total counter")
        lines.append("repro_gateway_sheds_total 3")
        lines.append('repro_gateway_sheds_total{replica="r0"} 1')
        lines.append('repro_gateway_sheds_total{replica="r1"} 2')
        return "\n".join(lines) + "\n"

    before = promtext.parse(doc({"r0": [(0.01, 10)]}))
    after = promtext.parse(doc({"r0": [(0.01, 10), (0.02, 4)],
                                "r1": [(0.02, 4)]}))
    # Only the 8 new samples, all in the (0.02/2**(1/8), 0.02] bucket.
    p50 = promtext.delta_percentile(before, after, "service.latency.memo", 50)
    assert 0.02 / 2 ** (1 / 8) < p50 <= 0.02
    assert promtext.delta_percentile(before, before, "service.latency.memo",
                                     50) is None
    assert promtext.counter(after, "service.tier.memo") == 7
    assert promtext.counter(after, "gateway.sheds") == 3
    assert promtext.counter(after, "gateway.hedged_points") == 0


@pytest.mark.parametrize("workload", ["sweep_warm", "sweep_cold",
                                      "service_mixed"])
@pytest.mark.parametrize("trace", [0, 1])
def test_a_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0  # fail_frac 0
    units = common.declared_units(trace=bool(trace))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sweep_warm", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
