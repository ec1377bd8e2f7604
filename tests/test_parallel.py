"""Tests for the parallel sweep runner and the persistent result cache.

Covers the ISSUE-2 acceptance criteria: ``run_many(jobs=N)`` is
counter-for-counter identical to serial execution, a warm ``cache_dir``
rerun performs zero new simulations, the memo key includes the
``SoCConfig`` content hash (mutating ``cache.config`` re-simulates),
and ``clear()`` genuinely releases hierarchies.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from repro.experiments import common, fig4
from repro.experiments.common import PointFailure, ResultCache, SweepError
from repro.experiments.disk_cache import DiskCache, point_fingerprint
from repro.obs import Observability
from repro.robustness.checkpoint import CheckpointStore
from repro.system.designs import (
    BASELINE_512,
    BASELINE_16K,
    DESIGNS_BY_NAME,
    IDEAL_MMU,
    VC_WITH_OPT,
    design_from_dict,
)

TINY = 0.05
WORKLOADS = ("kmeans", "pagerank")
DESIGNS = (IDEAL_MMU, BASELINE_512, VC_WITH_OPT)
POINTS = [(w, d) for w in WORKLOADS for d in DESIGNS]

# The pool pickles submitted callables *by name*, so the crash wrappers
# below must live at module level.  They are parameterized through the
# module global `_FAULT_DIR` (a directory of per-point sentinel files),
# which forked workers inherit; a wrapper misbehaves only until its
# point's sentinel exists, making every failure transient and the retry
# observable.
_FAULT_DIR = None
_REAL_SIMULATE_POINT = common._simulate_point


def _sentinel(workload, design):
    return Path(_FAULT_DIR) / f"{workload}-{design.name}".replace(" ", "_")


def _arm(workload, design):
    """True exactly once per (workload, design): on the first attempt."""
    sentinel = _sentinel(workload, design)
    if sentinel.exists():
        return False
    sentinel.write_text("tripped")
    return True


def _raise_once_point(config, scale, workload, design, *rest):
    if _arm(workload, design):
        raise RuntimeError("injected transient worker crash")
    return _REAL_SIMULATE_POINT(config, scale, workload, design, *rest)


def _is_target(workload, design):
    # A SIGKILL or hang fails the *whole round* (the pool is torn down),
    # charging one attempt to every pending point — so only one point
    # misbehaves, keeping every point within its retry budget.
    return workload == "kmeans" and design.name == IDEAL_MMU.name


def _sigkill_once_point(config, scale, workload, design, *rest):
    if _is_target(workload, design) and _arm(workload, design):
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_SIMULATE_POINT(config, scale, workload, design, *rest)


def _hang_once_point(config, scale, workload, design, *rest):
    if _is_target(workload, design) and _arm(workload, design):
        time.sleep(600)
    return _REAL_SIMULATE_POINT(config, scale, workload, design, *rest)


def _always_fail_point(config, scale, workload, design, *rest):
    raise RuntimeError("injected permanent worker crash")


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "_FAULT_DIR", str(tmp_path))
    return tmp_path


def slim_view(result):
    return (result.workload, result.design, result.cycles,
            result.instructions, result.requests, result.counters)


class TestMemoKeyIncludesConfig:
    def test_mutating_config_re_simulates(self):
        # Regression: the memo key used to omit the config, so mutating
        # cache.config silently served results for the *old* SoC.
        cache = ResultCache(scale=TINY)
        before = cache.run("kmeans", BASELINE_512)
        cache.config = dataclasses.replace(cache.config, dram_latency=1600.0)
        after = cache.run("kmeans", BASELINE_512)
        assert cache.simulations_run == 2
        assert after is not before
        assert after.cycles > before.cycles  # 10x DRAM latency must show

    def test_same_config_still_memoizes(self):
        cache = ResultCache(scale=TINY)
        a = cache.run("kmeans", BASELINE_512)
        cache.config = dataclasses.replace(cache.config)  # equal content
        assert cache.run("kmeans", BASELINE_512) is a
        assert cache.simulations_run == 1


class TestMemoKeyIsThePointFingerprint:
    def test_inline_design_reusing_a_preset_name_is_its_own_point(self):
        # Regression: the memo used to key by design *name*, so an inline
        # design named like a preset was served the preset's result.
        inline = design_from_dict({
            "name": "Baseline 512", "kind": "physical",
            "per_cu_tlb_entries": 4, "iommu_bandwidth": 0.1})
        cache = ResultCache(scale=TINY)
        preset = cache.run("bfs", DESIGNS_BY_NAME["Baseline 512"])
        tweaked = cache.run("bfs", inline)
        assert cache.simulations_run == 2
        fresh = ResultCache(scale=TINY).run("bfs", inline)
        assert tweaked.cycles == fresh.cycles != preset.cycles
        assert cache.memoized(point_fingerprint(
            "bfs", TINY, inline, False, cache.config)) is tweaked


class TestRunManyDeterminism:
    def test_jobs2_matches_serial_counter_for_counter(self):
        serial = ResultCache(scale=TINY)
        serial_results = [serial.run(w, d) for w, d in POINTS]

        parallel = ResultCache(scale=TINY)
        parallel_results = parallel.run_many(POINTS, jobs=2)

        assert parallel.simulations_run == len(POINTS)
        for ser, par in zip(serial_results, parallel_results):
            assert slim_view(ser) == slim_view(par)
            if ser.iommu_rate is None:
                assert par.iommu_rate is None
            else:
                assert ser.iommu_rate.samples == par.iommu_rate.samples

    def test_run_many_memoizes_and_orders(self):
        cache = ResultCache(scale=TINY)
        results = cache.run_many(POINTS, jobs=2)
        assert [r.workload for r in results] == [w for w, _ in POINTS]
        assert [r.design for r in results] == [d.name for _, d in POINTS]
        # Everything is memoized: a rerun simulates nothing new.
        again = cache.run_many(POINTS, jobs=2)
        assert cache.simulations_run == len(POINTS)
        assert [a is b for a, b in zip(results, again)] == [True] * len(POINTS)

    def test_run_many_deduplicates_points(self):
        cache = ResultCache(scale=TINY)
        results = cache.run_many(
            [("kmeans", IDEAL_MMU), ("kmeans", IDEAL_MMU)], jobs=2)
        assert cache.simulations_run == 1
        assert results[0] is results[1]

    def test_run_many_serial_path_matches_run(self):
        cache = ResultCache(scale=TINY)
        (only,) = cache.run_many([("kmeans", IDEAL_MMU)], jobs=4)
        assert only is cache.run("kmeans", IDEAL_MMU)

    def test_parallel_metrics_merge_matches_serial(self):
        serial = ResultCache(scale=TINY, obs=Observability())
        for w, d in POINTS:
            serial.run(w, d)
        parallel = ResultCache(scale=TINY, obs=Observability())
        parallel.run_many(POINTS, jobs=2)
        assert (parallel.obs.metrics.counters.as_dict()
                == serial.obs.metrics.counters.as_dict())
        ser_hists = serial.obs.metrics.histograms()
        par_hists = parallel.obs.metrics.histograms()
        assert set(ser_hists) == set(par_hists)
        for name, ser_hist in ser_hists.items():
            par_hist = par_hists[name]
            assert ser_hist.count == par_hist.count, name
            assert (ser_hist.min, ser_hist.max) == (par_hist.min, par_hist.max)

    def test_run_designs_funnels_through_run_many(self):
        cache = ResultCache(scale=TINY, jobs=2)
        results = cache.run_designs("kmeans", DESIGNS)
        assert set(results) == {d.name for d in DESIGNS}
        assert cache.simulations_run == len(DESIGNS)
        assert results[IDEAL_MMU.name] is cache.run("kmeans", IDEAL_MMU)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(scale=TINY).run_many(POINTS, jobs=0)


class TestDiskCache:
    def test_warm_figure_rerun_simulates_nothing(self, tmp_path):
        cold = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        fig4.run(cold, workloads=list(WORKLOADS))
        assert cold.simulations_run > 0

        warm = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        result = fig4.run(warm, workloads=list(WORKLOADS))
        assert warm.simulations_run == 0  # every point served from disk
        assert result.average("IDEAL MMU") == 1.0

    def test_parallel_runs_populate_the_disk_cache(self, tmp_path):
        cold = ResultCache(scale=TINY, cache_dir=str(tmp_path), jobs=2)
        cold.run_many(POINTS)
        warm = ResultCache(scale=TINY, cache_dir=str(tmp_path), jobs=2)
        results = warm.run_many(POINTS)
        assert warm.simulations_run == 0
        for ser, cached in zip(cold.run_many(POINTS), results):
            assert slim_view(ser) == slim_view(cached)

    def test_fingerprint_changes_with_every_component(self):
        base = ResultCache(scale=TINY)
        fp = point_fingerprint("kmeans", TINY, BASELINE_512, False, base.config)
        other_config = dataclasses.replace(base.config, dram_latency=999.0)
        assert fp != point_fingerprint(
            "pagerank", TINY, BASELINE_512, False, base.config)
        assert fp != point_fingerprint(
            "kmeans", 2 * TINY, BASELINE_512, False, base.config)
        assert fp != point_fingerprint(
            "kmeans", TINY, BASELINE_16K, False, base.config)
        assert fp != point_fingerprint(
            "kmeans", TINY, BASELINE_512, True, base.config)
        assert fp != point_fingerprint(
            "kmeans", TINY, BASELINE_512, False, other_config)

    def test_config_mutation_misses_the_disk_cache(self, tmp_path):
        cache = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        cache.run("kmeans", BASELINE_512)
        stale = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        stale.config = dataclasses.replace(stale.config, dram_latency=1600.0)
        stale.run("kmeans", BASELINE_512)
        assert stale.simulations_run == 1  # fingerprint mismatch → re-simulate

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        cache.run("kmeans", IDEAL_MMU)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        rerun = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        rerun.run("kmeans", IDEAL_MMU)
        assert rerun.simulations_run == 1

    def test_store_and_load_round_trip(self, tmp_path):
        cache = ResultCache(scale=TINY)
        result = cache.run("kmeans", IDEAL_MMU)
        disk = DiskCache(tmp_path)
        disk.store("abc123", result)
        assert len(disk) == 1
        loaded = disk.load("abc123")
        assert slim_view(loaded) == slim_view(result)
        assert loaded.hierarchy is None and loaded.metrics is None
        assert disk.load("missing") is None


class TestSlimResults:
    def test_pickle_drops_runtime_handles(self):
        cache = ResultCache(scale=TINY)
        result = cache.run("kmeans", BASELINE_512)
        assert result.hierarchy is not None
        clone = pickle.loads(pickle.dumps(result))
        assert clone.hierarchy is None
        assert clone.metrics is None
        assert slim_view(clone) == slim_view(result)
        assert clone == result

    def test_clear_releases_hierarchies(self):
        cache = ResultCache(scale=TINY)
        result = cache.run("kmeans", IDEAL_MMU)
        ref = weakref.ref(result.hierarchy)
        cache.clear()
        gc.collect()
        # Even though the slim result is still referenced, the hierarchy
        # (and every server/counter hanging off it) is gone.
        assert ref() is None
        assert result.hierarchy is None
        assert result.cycles > 0  # the slim record itself survives

    def test_need_hierarchy_re_simulates_slim_records(self, tmp_path):
        cache = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        cache.run("kmeans", BASELINE_512)
        warm = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        slim = warm.run("kmeans", BASELINE_512)
        assert warm.simulations_run == 0 and slim.hierarchy is None
        live = warm.run("kmeans", BASELINE_512, need_hierarchy=True)
        assert warm.simulations_run == 1
        assert live.hierarchy is not None
        assert slim_view(live) == slim_view(slim)


def _serial_reference():
    serial = ResultCache(scale=TINY)
    return [slim_view(serial.run(w, d)) for w, d in POINTS]


class TestFaultTolerantSweeps:
    def test_crashing_worker_is_retried_bit_identically(
            self, fault_dir, monkeypatch):
        # Every point's worker raises on its first attempt; the sweep
        # must retry each one and still match serial bit for bit.
        monkeypatch.setattr(common, "_simulate_point", _raise_once_point)
        cache = ResultCache(scale=TINY, retry_backoff=0.0)
        results = cache.run_many(POINTS, jobs=2)
        assert cache.simulations_run == len(POINTS)
        assert [slim_view(r) for r in results] == _serial_reference()

    def test_sigkilled_worker_is_retried_bit_identically(
            self, fault_dir, monkeypatch):
        monkeypatch.setattr(common, "_simulate_point", _sigkill_once_point)
        cache = ResultCache(scale=TINY, retry_backoff=0.0)
        results = cache.run_many(POINTS, jobs=2)
        assert [slim_view(r) for r in results] == _serial_reference()

    def test_hung_worker_is_killed_and_retried(self, fault_dir, monkeypatch):
        monkeypatch.setattr(common, "_simulate_point", _hang_once_point)
        cache = ResultCache(scale=TINY, retry_backoff=0.0, point_timeout=10.0)
        start = time.monotonic()
        results = cache.run_many(POINTS, jobs=2)
        assert time.monotonic() - start < 300  # nowhere near the 600s hang
        assert [slim_view(r) for r in results] == _serial_reference()

    def test_exhausted_retries_raise_sweep_error(self, monkeypatch):
        monkeypatch.setattr(common, "_simulate_point", _always_fail_point)
        cache = ResultCache(scale=TINY, retry_backoff=0.0, point_retries=1)
        with pytest.raises(SweepError) as excinfo:
            cache.run_many(POINTS, jobs=2)
        failures = excinfo.value.failures
        assert all(isinstance(f, PointFailure) for f in failures)
        assert all(f.attempts == 2 for f in failures)  # 1 try + 1 retry
        assert "injected permanent worker crash" in str(excinfo.value)


class TestCheckpointResume:
    def test_resume_skips_completed_points(self, tmp_path):
        ckpt = str(tmp_path / "sweep.ckpt")
        first = ResultCache(scale=TINY, checkpoint=ckpt)
        first.run_many(POINTS[:2], jobs=2)
        assert first.simulations_run == 2

        resumed = ResultCache(scale=TINY, checkpoint=ckpt)
        results = resumed.run_many(POINTS, jobs=2)
        assert resumed.simulations_run == len(POINTS) - 2
        assert [slim_view(r) for r in results] == _serial_reference()

    def test_parallel_sweep_checkpoints_every_point(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        cache = ResultCache(scale=TINY, checkpoint=str(ckpt))
        cache.run_many(POINTS, jobs=2)
        assert len(CheckpointStore(ckpt).load()) == len(POINTS)

    def test_killed_sweep_resumes_with_zero_lost_points(self, tmp_path):
        # A real SIGKILL mid-sweep: the child runs a serial sweep and
        # shoots itself after two points have been durably checkpointed.
        ckpt = tmp_path / "sweep.ckpt"
        script = f"""
import os, signal
from repro.experiments.common import ResultCache
from repro.robustness.checkpoint import CheckpointStore
import tests.test_parallel as tp

orig = CheckpointStore.append
def append_then_die(self, *args, **kwargs):
    orig(self, *args, **kwargs)
    if self.appended >= 2:
        os.kill(os.getpid(), signal.SIGKILL)
CheckpointStore.append = append_then_die

cache = ResultCache(scale={TINY!r}, checkpoint={str(ckpt)!r})
cache.run_many(tp.POINTS, jobs=1)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             str(Path(__file__).resolve().parents[1]),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert len(CheckpointStore(ckpt).load()) == 2

        resumed = ResultCache(scale=TINY, checkpoint=str(ckpt))
        results = resumed.run_many(POINTS, jobs=2)
        assert resumed.simulations_run == len(POINTS) - 2
        assert [slim_view(r) for r in results] == _serial_reference()

    def test_disk_cache_hits_are_checkpointed_too(self, tmp_path):
        # Points served from the disk cache still land in the checkpoint,
        # so a later resume without the disk cache loses nothing.
        cold = ResultCache(scale=TINY, cache_dir=str(tmp_path / "cache"))
        cold.run_many(POINTS[:2], jobs=2)
        ckpt = tmp_path / "sweep.ckpt"
        warm = ResultCache(scale=TINY, cache_dir=str(tmp_path / "cache"),
                           checkpoint=str(ckpt))
        warm.run_many(POINTS[:2], jobs=2)
        assert warm.simulations_run == 0
        assert len(CheckpointStore(ckpt).load()) == 2
