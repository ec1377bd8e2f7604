"""Tests for the trace's summary statistics and the trace builder toolkit."""

import numpy as np
import pytest

from repro.memsys.address_space import AddressSpace
from repro.workloads.compiled import TraceValidationError, compile_arrays
from repro.workloads.device import DeviceArray, TraceBuilder, warp_chunks

from tests.conftest import SCRATCH, WRITE, compile_streams, recorded_streams


class TestTrace:
    def trace(self):
        per_cu = [
            [((0, 4096), 0), ((0,), SCRATCH)],
            [((8192,), WRITE)],
        ]
        return compile_streams(AddressSpace(asid=0), per_cu, name="t")

    def test_counts(self):
        t = self.trace()
        assert t.n_cus == 2
        assert t.n_instructions == 3

    def test_scratchpad_fraction(self):
        assert self.trace().scratchpad_fraction() == pytest.approx(1 / 3)

    def test_mean_divergence_ignores_scratchpad(self):
        assert self.trace().mean_divergence() == pytest.approx(1.5)

    def test_footprint_pages(self):
        assert self.trace().footprint_pages() == 3

    def test_validation(self):
        # A memory instruction with no lanes coalesces to no request,
        # which the structural check rejects.
        no_lanes = compile_arrays("x", 4.0, {}, AddressSpace(asid=0), [0],
                                  [1, 0], [0, 0], [0, 2])
        with pytest.raises(TraceValidationError,
                           match="zero coalesced requests"):
            no_lanes.validate_fast()


class TestDeviceArray:
    def test_addressing(self):
        space = AddressSpace(asid=0)
        arr = DeviceArray(space, 100, 8, "a")
        assert arr.addr(0) == arr.base_va
        assert arr.addr(5) == arr.base_va + 40
        assert arr.addrs([1, 3]) == [arr.base_va + 8, arr.base_va + 24]

    def test_bounds_checked(self):
        space = AddressSpace(asid=0)
        arr = DeviceArray(space, 10, 4)
        with pytest.raises(IndexError):
            arr.addr(10)

    def test_gather_gives_python_ints(self):
        space = AddressSpace(asid=0)
        arr = DeviceArray(space, 100, 8)
        for indices, picked in (
            ([7, 2, 9], [7, 2, 9]),
            (np.array([7, 2, 9], dtype=np.int32), [7, 2, 9]),
            (range(10, 4, -3), [10, 7]),
            ([], []),
        ):
            addrs = arr.addrs(indices)
            assert addrs == [arr.base_va + 8 * i for i in picked]
            assert all(type(a) is int for a in addrs)

    def test_arrays_are_backed(self):
        space = AddressSpace(asid=0)
        arr = DeviceArray(space, 5000, 4)
        assert space.translate(arr.addr(4999)) is not None


class TestTraceBuilder:
    def test_emit_and_build(self):
        space = AddressSpace(asid=0)
        tb = TraceBuilder(n_cus=4)
        tb.emit(0, [0, 128])
        tb.emit(1, [4096], is_write=True)
        tb.emit_scratch(0)
        trace = tb.build("demo", space, issue_interval=5.0, suite="test")
        assert trace.n_instructions == 3
        assert trace.issue_interval == 5.0
        assert trace.metadata["suite"] == "test"

    def test_empty_build_rejected(self):
        tb = TraceBuilder(n_cus=2)
        with pytest.raises(ValueError):
            tb.build("empty", AddressSpace(asid=0), issue_interval=4.0)

    def test_instruction_without_lanes_rejected(self):
        with pytest.raises(ValueError, match="lane address"):
            TraceBuilder(n_cus=2).emit(0, [])

    def test_nonpositive_issue_interval_rejected(self):
        tb = TraceBuilder(n_cus=2)
        tb.emit(0, [0])
        with pytest.raises(ValueError, match="issue interval"):
            tb.build("x", AddressSpace(asid=0), issue_interval=0.0)

    def test_cu_wraps(self):
        tb = TraceBuilder(n_cus=2)
        tb.emit(0, [4096])
        tb.emit(5, [0])  # CU 5 → CU 1
        assert recorded_streams(tb)[0] == [4096, 0]
        trace = tb.build("wrap", AddressSpace(asid=0), issue_interval=4.0)
        assert trace.n_cus == 2
        assert trace.coalesced_per_cu()[3] == [0, 1, 2]
        assert trace.coalesced_per_cu()[0] == [4096 // trace.line_size, 0]


class TestWarpChunks:
    def test_covers_all_items(self):
        chunks = list(warp_chunks(100, n_cus=4, lanes=32))
        covered = sum(count for _cu, _start, count in chunks)
        assert covered == 100
        assert chunks[-1][2] == 4  # tail warp

    def test_sampling_still_rotates_cus(self):
        # The regression warp_chunks fixed: with sample=4 and 16 CUs,
        # emitted warps must still spread over all CUs.
        cus = {cu for cu, _s, _c in warp_chunks(32 * 64, n_cus=16, sample=4)}
        assert len(cus) == 16

    def test_sampling_reduces_volume(self):
        full = list(warp_chunks(3200, n_cus=4))
        sampled = list(warp_chunks(3200, n_cus=4, sample=4))
        assert len(sampled) == (len(full) + 3) // 4

    def test_invalid_sample(self):
        with pytest.raises(ValueError):
            list(warp_chunks(100, 4, sample=0))

