"""Tests for the robustness layer (ISSUE 4).

Covers the fault-injection plan/injector, the structural invariant
auditor (green on healthy runs, trips on planted corruption), the
crash-safe checkpoint store, trace validation at deserialization, the
self-verifying disk-cache envelope with quarantine, the new OS-event
paths (remap/unmap/page-in, hierarchy-wide shootdowns), and the chaos
CLI driver.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.experiments import chaos
from repro.experiments.disk_cache import QUARANTINE_DIR, DiskCache
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import page_number
from repro.memsys.permissions import PageFault, Permissions
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.fault_plan import KINDS, FaultInjector, FaultPlan
from repro.robustness.invariants import (
    InvariantViolation,
    check_hierarchy,
)
from repro.system.config import SoCConfig
from repro.system.designs import (
    BASELINE_512,
    L1_ONLY_VC_32,
    VC_WITH_OPT,
    VC_WITHOUT_OPT,
)
from repro.system.run import simulate
from repro.workloads import registry
from repro.workloads.compiled import (
    _ARRAY_FILES,
    CompiledTrace,
    TraceStore,
    TraceValidationError,
    load_compiled,
)

from tests.conftest import compile_streams

TINY = 0.05


def tiny_trace(name="bfs"):
    return registry.load_fresh(name, scale=TINY)


def run_clean(design, workload="bfs"):
    """Simulate one healthy point and return its (live) hierarchy."""
    trace = tiny_trace(workload)
    config = SoCConfig()
    hierarchy = design.build(config, {0: trace.address_space.page_table})
    simulate(trace, hierarchy, design.soc_config(config), design=design.name)
    return hierarchy


class TestFaultPlan:
    def test_same_inputs_same_plan(self):
        trace = tiny_trace()
        a = FaultPlan.for_trace(trace, 0.01, seed=7)
        b = FaultPlan.for_trace(trace, 0.01, seed=7)
        assert len(a) > 0
        assert a.events == b.events

    def test_seed_and_rate_change_the_plan(self):
        trace = tiny_trace()
        base = FaultPlan.for_trace(trace, 0.01, seed=0)
        assert base.events != FaultPlan.for_trace(trace, 0.01, seed=1).events
        assert len(FaultPlan.for_trace(trace, 0.05, seed=0)) > len(base)

    def test_zero_rate_is_empty(self):
        assert len(FaultPlan.for_trace(tiny_trace(), 0.0)) == 0

    def test_invalid_inputs_rejected(self):
        trace = tiny_trace()
        with pytest.raises(ValueError):
            FaultPlan.for_trace(trace, -0.1)
        with pytest.raises(ValueError):
            FaultPlan.for_trace(trace, 0.01, kinds=("shootdown", "meteor"))

    def test_events_are_sorted_and_typed(self):
        plan = FaultPlan.for_trace(tiny_trace(), 0.02, seed=3)
        indices = [e.index for e in plan.events]
        assert indices == sorted(indices)
        assert set(plan.counts_by_kind()) <= set(KINDS)


class TestInvariantAuditor:
    @pytest.mark.parametrize(
        "design", [VC_WITH_OPT, VC_WITHOUT_OPT, L1_ONLY_VC_32, BASELINE_512],
        ids=lambda d: d.name)
    def test_healthy_run_is_green(self, design):
        check_hierarchy(run_clean(design), "after clean run")

    @pytest.mark.parametrize(
        "design", [VC_WITH_OPT, VC_WITHOUT_OPT], ids=lambda d: d.name)
    def test_tampered_fbt_is_caught(self, design):
        hierarchy = run_clean(design)
        _, entry = next(iter(hierarchy.fbt.ft.items()))
        if entry.tracking == "bitvector":
            entry.line_bits ^= 1
        else:
            entry.line_count += 7
        with pytest.raises(InvariantViolation) as excinfo:
            check_hierarchy(hierarchy, "tampered")
        assert "tampered" in str(excinfo.value)

    def test_tampered_asdt_is_caught(self):
        hierarchy = run_clean(L1_ONLY_VC_32)
        entry = next(iter(hierarchy.asdt.entries()))
        entry.resident_lines += 1
        with pytest.raises(InvariantViolation):
            check_hierarchy(hierarchy, "tampered")

    def test_tampered_filter_is_caught(self):
        hierarchy = run_clean(VC_WITH_OPT)
        fbt_filter = hierarchy.filters[0]
        key = next(iter(fbt_filter.snapshot()), None)
        if key is None:  # count a page the filter never saw
            fbt_filter._counts[(0, 12345)] = 3
        else:
            fbt_filter._counts[key] += 1
        with pytest.raises(InvariantViolation):
            check_hierarchy(hierarchy, "tampered")

    def test_violation_carries_a_diagnostic_dump(self):
        hierarchy = run_clean(VC_WITH_OPT)
        _, entry = next(iter(hierarchy.fbt.ft.items()))
        entry.line_bits ^= 1
        with pytest.raises(InvariantViolation) as excinfo:
            check_hierarchy(hierarchy, "tampered")
        message = str(excinfo.value)
        assert "state: " in message
        assert "FBT entries=" in message  # fbt.state_summary() made it in


class TestChaosEndToEnd:
    def test_all_designs_green_under_fault_injection(self):
        report = chaos.run(workloads=("bfs",), rates=(0.01,), seed=0,
                           scale=TINY, invariant_interval=64)
        assert len(report.points) == len(chaos.DESIGNS)
        for point in report.points:
            assert point.ok, point.violation
            assert point.n_events > 0
            assert point.events_applied == point.n_events
            assert point.audits > 1  # periodic audits fired, not just final
        assert "all points green" in report.render()

    def test_chaos_is_deterministic(self):
        kwargs = dict(workloads=("bfs",), rates=(0.005,), seed=42, scale=TINY)
        a = chaos.run(**kwargs)
        b = chaos.run(**kwargs)
        assert [(p.cycles, p.events_applied) for p in a.points] == \
            [(p.cycles, p.events_applied) for p in b.points]

    def test_injector_handles_unmap_and_downgrade_faults(self):
        trace = tiny_trace("kmeans")
        config = SoCConfig()
        design = VC_WITH_OPT
        hierarchy = design.build(config, {0: trace.address_space.page_table})
        plan = FaultPlan.for_trace(trace, 0.05, seed=1)
        injector = FaultInjector(hierarchy, plan, trace.address_space)
        simulate(trace, injector, design.soc_config(config),
                 design=design.name, check_invariants=True,
                 invariant_interval=128)
        counts = injector.counters.as_dict()
        assert counts["chaos.events"] == len(plan)
        # A 5% rate over a whole trace reliably lands every fault kind.
        assert counts.get("chaos.unmaps", 0) > 0
        assert counts.get("chaos.page_ins", 0) > 0
        assert counts.get("chaos.permission_downgrades", 0) > 0


class TestCheckpointStore:
    def test_round_trip_and_later_wins(self, tmp_path):
        store = CheckpointStore(tmp_path / "sweep.ckpt")
        store.append("fp-a", {"x": 1})
        store.append("fp-b", [1, 2, 3])
        store.append("fp-a", {"x": 2})  # rewrite: later record wins
        loaded = CheckpointStore(tmp_path / "sweep.ckpt").load()
        assert loaded == {"fp-a": {"x": 2}, "fp-b": [1, 2, 3]}

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.ckpt").load() == {}

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        store = CheckpointStore(path)
        store.append("fp-a", 1)
        store.append("fp-b", 2)
        intact = path.stat().st_size
        with open(path, "ab") as fh:  # a kill mid-append leaves half a record
            fh.write(b"RPCK\xff\xff")
        reader = CheckpointStore(path)
        assert reader.load() == {"fp-a": 1, "fp-b": 2}
        assert reader.repaired_bytes == 6
        assert path.stat().st_size == intact  # tail repaired in place
        store.append("fp-c", 3)  # appends after repair stay parseable
        assert CheckpointStore(path).load() == {"fp-a": 1, "fp-b": 2, "fp-c": 3}

    def test_corrupt_payload_stops_the_scan(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        store = CheckpointStore(path)
        store.append("fp-a", 1)
        good = path.stat().st_size
        store.append("fp-b", 2)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the second payload
        path.write_bytes(bytes(data))
        assert CheckpointStore(path).load() == {"fp-a": 1}
        assert path.stat().st_size == good


class TestTraceValidation:
    def test_empty_trace_rejected(self):
        trace = compile_streams(AddressSpace(asid=0), [[]], name="t")
        with pytest.raises(TraceValidationError, match="empty"):
            trace.validate_fast()

    def test_negative_address_rejected(self):
        trace = compile_streams(AddressSpace(asid=0), [[((-4,), 0)]],
                                name="t")
        with pytest.raises(TraceValidationError, match="negative"):
            trace.validate_fast()

    def test_valid_trace_passes_through(self):
        tiny_trace().validate_fast()

    def test_round_trip_still_loads(self, tmp_path):
        trace = tiny_trace()
        store = TraceStore(tmp_path)
        store.store(trace, TINY, None)
        loaded = store.load(trace.name, TINY, None)
        assert loaded.n_instructions == trace.n_instructions

    @staticmethod
    def _stored(tmp_path):
        return TraceStore(tmp_path).store(tiny_trace(), TINY, None)

    @staticmethod
    def _overwrite(path, **arrays):
        """Replace the named arrays of a stored compilation.

        The recorded counts follow the new arrays, so only the
        structural check under test can reject the compilation.
        """
        for stem, arr in arrays.items():
            np.save(path / f"{stem}.npy", arr)
        meta = json.loads((path / "meta.json").read_text())
        counts = meta["counts"]
        for key, stem in (("instructions", "inst_flags"),
                          ("requests", "req_line")):
            counts[key] = len(np.load(path / f"{stem}.npy"))
        counts["cus"] = len(np.load(path / "cu_bounds.npy")) - 1
        (path / "meta.json").write_text(json.dumps(meta))

    @staticmethod
    def _assert_rejected(path, match):
        """Validation names the defect; loading drops the compilation."""
        arrays = {stem: np.load(path / f"{stem}.npy")
                  for stem, _dtype in _ARRAY_FILES}
        compiled = CompiledTrace("t", 4.0, {}, None, 64, **arrays)
        with pytest.raises(TraceValidationError, match=match):
            compiled.validate_fast()
        assert load_compiled(path) is None
        assert not path.exists()

    def test_unknown_access_kind_rejected(self, tmp_path):
        path = self._stored(tmp_path)
        flags = np.load(path / "inst_flags.npy")
        flags[0] = 0x7F
        self._overwrite(path, inst_flags=flags)
        self._assert_rejected(path, "unknown instruction flag bits")

    def test_negative_lane_address_rejected(self, tmp_path):
        # A negative lane address coalesces to a negative line, which
        # is all a stored compilation keeps of it.
        path = self._stored(tmp_path)
        req_line = np.load(path / "req_line.npy")
        req_line[0] = -8
        self._overwrite(path, req_line=req_line)
        self._assert_rejected(path, "negative line address -8")

    def test_empty_file_rejected(self, tmp_path):
        path = self._stored(tmp_path)
        empty = np.asarray([], dtype=np.int64)
        self._overwrite(
            path, cu_bounds=np.asarray([0], dtype=np.int64),
            inst_flags=np.asarray([], dtype=np.int8),
            inst_req_counts=empty, req_line=empty)
        self._assert_rejected(path, "empty")


class TestAddressSpaceEvents:
    def setup_method(self):
        self.space = AddressSpace(asid=0)
        self.mapping = self.space.mmap(4)
        self.vpn = page_number(self.mapping.base_va)

    def test_remap_moves_the_frame(self):
        before, perms = self.space.page_table.lookup(self.vpn)
        after = self.space.remap_page(self.vpn)
        assert after != before
        assert self.space.page_table.lookup(self.vpn) == (after, perms)

    def test_unmap_then_page_in(self):
        perms = self.space.unmap_page(self.vpn)
        assert perms == Permissions.READ_WRITE
        assert self.space.page_table.lookup(self.vpn) is None
        self.space.page_in(self.vpn, perms)
        assert self.space.page_table.lookup(self.vpn) is not None

    def test_remap_of_unmapped_page_faults(self):
        self.space.unmap_page(self.vpn)
        with pytest.raises(PageFault):
            self.space.remap_page(self.vpn)

    def test_large_pages_cannot_be_remapped(self):
        large = self.space.mmap(512, large_pages=True)
        with pytest.raises(ValueError):
            self.space.remap_page(page_number(large.base_va))


class TestShootdownPaths:
    def test_l1_only_shootdown_drops_the_page(self):
        hierarchy = run_clean(L1_ONLY_VC_32)
        entry = next(e for e in hierarchy.asdt.entries())
        asid, vpn = entry.leading_asid, entry.leading_vpn
        assert hierarchy.shootdown(asid, vpn) is True
        assert hierarchy.asdt.ppn_of_leading(asid, vpn) is None
        check_hierarchy(hierarchy, "after shootdown")

    def test_l1_only_shootdown_all_flushes_everything(self):
        hierarchy = run_clean(L1_ONLY_VC_32)
        assert len(hierarchy.asdt) > 0
        flushed = hierarchy.shootdown_all()
        assert flushed > 0
        assert len(hierarchy.asdt) == 0
        check_hierarchy(hierarchy, "after full shootdown")

    def test_physical_shootdown_drops_tlb_entries(self):
        hierarchy = run_clean(BASELINE_512)
        dropped = any(
            hierarchy.shootdown(0, key & ((1 << 52) - 1))
            for tlb in hierarchy.per_cu_tlbs
            for key in list(tlb._entries)[:1]
        )
        assert dropped is True
        check_hierarchy(hierarchy, "after shootdown")

    def test_virtual_shootdown_stays_consistent(self):
        hierarchy = run_clean(VC_WITH_OPT)
        (asid, vpn), _ = next(iter(hierarchy.fbt.ft.items()))
        assert hierarchy.shootdown(asid, vpn) is True
        check_hierarchy(hierarchy, "after shootdown")


class TestDiskCacheIntegrity:
    def _store_one(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.store("f" * 64, {"not": "checked here"})
        return disk

    def _result_entry(self, tmp_path):
        """A real stored entry for a real simulated result."""
        from repro.experiments.common import ResultCache

        cache = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        cache.run("kmeans", BASELINE_512)
        (entry,) = tmp_path.glob("*.pkl")
        return entry

    def test_digest_mismatch_quarantines(self, tmp_path):
        entry = self._result_entry(tmp_path)
        with open(entry, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["payload"] = envelope["payload"][:-4] + b"\x00\x00\x00\x00"
        entry.write_bytes(pickle.dumps(envelope))
        disk = DiskCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert disk.load(entry.stem) is None
        assert disk.quarantined == 1
        assert not entry.exists()
        assert (tmp_path / QUARANTINE_DIR / entry.name).exists()
        assert len(disk) == 0  # quarantined entries don't count

    def test_wrong_name_quarantines(self, tmp_path):
        entry = self._result_entry(tmp_path)
        renamed = tmp_path / ("0" * 64 + ".pkl")
        entry.rename(renamed)
        disk = DiskCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="fingerprint mismatch"):
            assert disk.load("0" * 64) is None
        assert (tmp_path / QUARANTINE_DIR / renamed.name).exists()

    def test_pre_envelope_schema_quarantines(self, tmp_path):
        entry = self._result_entry(tmp_path)
        entry.write_bytes(pickle.dumps({"schema": 1, "payload": b""}))
        disk = DiskCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="schema"):
            assert disk.load(entry.stem) is None

    def test_quarantined_point_is_recomputed(self, tmp_path):
        from repro.experiments.common import ResultCache

        entry = self._result_entry(tmp_path)
        entry.write_bytes(b"garbage")
        rerun = ResultCache(scale=TINY, cache_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning):
            rerun.run("kmeans", BASELINE_512)
        assert rerun.simulations_run == 1
        assert len(list((tmp_path / QUARANTINE_DIR).iterdir())) == 1

    def test_store_oserror_is_counted_not_fatal(self, tmp_path, monkeypatch):
        disk = DiskCache(tmp_path)

        def explode(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.experiments.disk_cache.os.replace", explode)
        with pytest.warns(RuntimeWarning, match="write failed"):
            disk.store("a" * 64, 123)
        assert disk.store_errors == 1
        assert len(disk) == 0
        assert list(tmp_path.glob(".tmp-*")) == []  # temp file cleaned up

    def test_mkstemp_oserror_is_counted_not_fatal(self, tmp_path, monkeypatch):
        disk = DiskCache(tmp_path)

        def explode(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(
            "repro.experiments.disk_cache.tempfile.mkstemp", explode)
        with pytest.warns(RuntimeWarning, match="write failed"):
            disk.store("b" * 64, 123)
        assert disk.store_errors == 1


class TestChaosCli:
    def test_chaos_is_listed(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        assert "chaos" in capsys.readouterr().out.split()

    def test_chaos_runs_green(self, capsys):
        from repro.experiments.cli import main

        code = main(["chaos", "--scale", str(TINY), "--fault-rates", "0.005",
                     "--chaos-workloads", "bfs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all points green" in out

    def test_bad_fault_rates_exit_2(self, capsys):
        from repro.experiments.cli import main

        assert main(["chaos", "--fault-rates", "lots"]) == 2
        assert "--fault-rates" in capsys.readouterr().err

    def test_unknown_chaos_workload_exit_2(self, capsys):
        from repro.experiments.cli import main

        assert main(["chaos", "--chaos-workloads", "nope",
                     "--scale", str(TINY)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_unwritable_cache_dir_exits_2_before_simulating(
            self, tmp_path, capsys):
        from repro.experiments.cli import main

        # A regular file can be neither entered nor created as a
        # directory — not even by root, unlike a chmod-0 directory.
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        assert main(["fig4", "--cache-dir", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert "repro-experiment: error" in err
        assert "--cache-dir" in err


class TestChaosReportShape:
    def test_report_renders_violations(self):
        report = chaos.ChaosReport(points=[
            chaos.ChaosPoint(workload="bfs", design="X", rate=0.01,
                             n_events=3, events_applied=3, audits=0,
                             cycles=0.0, violation="boom at instruction 5"),
        ], seed=9)
        text = report.render()
        assert not report.ok
        assert "INVARIANT VIOLATION" in text
        assert "boom at instruction 5" in text
