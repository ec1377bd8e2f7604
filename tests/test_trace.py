"""Tests for the trace's summary statistics and the trace builder toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.address_space import AddressSpace
from repro.workloads.compiled import TraceValidationError, compile_arrays
from repro.workloads.device import (
    DeviceArray,
    TraceBuilder,
    warp_lanes,
    warp_schedule,
    warp_slots,
)

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

    def test_gather_bounds_checked(self):
        # A gather checks its indices as addr does, naming the array.
        arr = DeviceArray(AddressSpace(asid=0), 10, 4, "dist")
        for indices in ([10, -1], [3, 10], [-1], range(8, 12),
                        np.array([[0, 1], [2, 10]])):
            with pytest.raises(IndexError, match=r"dist\["):
                arr.addrs(indices)
            with pytest.raises(IndexError, match=r"dist\["):
                arr.addr_array(indices)
        assert arr.addrs([0, 9]) == [arr.addr(0), arr.addr(9)]

    def test_addr_array_keeps_the_index_shape(self):
        arr = DeviceArray(AddressSpace(asid=0), 100, 8)
        addresses = arr.addr_array(np.arange(6).reshape(2, 3))
        assert addresses.shape == (2, 3)
        assert addresses.dtype == np.int64
        assert addresses.ravel().tolist() == [arr.addr(i) for i in range(6)]

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
        assert recorded_streams(tb)[0].tolist() == [4096, 0]
        trace = tb.build("wrap", AddressSpace(asid=0), issue_interval=4.0)
        assert trace.n_cus == 2
        assert trace.coalesced_per_cu()[3] == [0, 1, 2]
        assert trace.coalesced_per_cu()[0] == [4096 // trace.line_size, 0]

    def test_block_validation(self):
        tb = TraceBuilder(n_cus=2)
        with pytest.raises(ValueError, match="lane address"):
            tb.emit_block([0, 1], [2, 0], [0, 0], [0, 4])
        with pytest.raises(ValueError, match="per instruction"):
            tb.emit_block([0, 1], [1], [0], [0])
        with pytest.raises(ValueError, match="lane counts claim"):
            tb.emit_block([0], [2], [0], [0, 4, 8])
        with pytest.raises(ValueError, match="empty trace"):
            tb.build("x", AddressSpace(asid=0), issue_interval=4.0)

    def test_warp_slots_flattens_issued_instructions(self):
        # Two warps, three instructions each; warp 1 skips the second,
        # and the third is a one-lane scratchpad instruction.
        lanes = np.arange(8).reshape(2, 4)
        cus, lane_counts, flags, flat = warp_slots(np.array([5, 6]), [
            (lanes, np.array([4, 3]), 0),
            (lanes + 100, np.array([2, 0]), WRITE),
            (0, 1, SCRATCH),
        ])
        assert cus.tolist() == [5, 5, 5, 6, 6]
        assert lane_counts.tolist() == [4, 2, 1, 3, 1]
        assert flags.tolist() == [0, WRITE, SCRATCH, 0, SCRATCH]
        assert flat.tolist() == [0, 1, 2, 3, 100, 101, 0, 4, 5, 6, 0]

    def test_warp_lanes_park_dead_lanes_on_the_first_item(self):
        items = warp_lanes(np.array([64, 96]), np.array([4, 2]), lanes=4)
        assert items.tolist() == [[64, 65, 66, 67], [96, 97, 96, 96]]


#: One recorded step: ("emit", cu, lanes, is_write), ("scratch", cu,
#: is_write), ("burst", cu, count) or ("block", [(cu, lanes, flags)]).
_cu_ids = st.integers(min_value=0, max_value=9)
_lanes = st.lists(st.integers(min_value=0, max_value=1 << 16),
                  min_size=1, max_size=6)
_block_inst = st.one_of(
    st.tuples(_cu_ids, _lanes, st.sampled_from([0, WRITE])),
    st.tuples(_cu_ids, st.just([0]), st.sampled_from([SCRATCH, SCRATCH | WRITE])),
)
_steps = st.lists(st.one_of(
    st.tuples(st.just("emit"), _cu_ids, _lanes, st.booleans()),
    st.tuples(st.just("scratch"), _cu_ids, st.booleans()),
    st.tuples(st.just("burst"), _cu_ids, st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("block"), st.lists(_block_inst, max_size=40)),
), max_size=12)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(n_cus=st.integers(min_value=1, max_value=5), steps=_steps,
       zero_lane_at=st.integers(min_value=-1, max_value=12))
def test_block_and_scalar_recording_agree(n_cus, steps, zero_lane_at):
    """Any interleaving of block and scalar emits builds the trace that
    recording every instruction through ``emit`` builds."""
    mixed, scalar = TraceBuilder(n_cus=n_cus), TraceBuilder(n_cus=n_cus)

    def emit_one(cu, lanes, flags):
        if flags & SCRATCH:
            scalar.emit_scratch(cu, is_write=bool(flags & WRITE))
        else:
            scalar.emit(cu, lanes, is_write=bool(flags & WRITE))

    for step_no, (kind, *args) in enumerate(steps):
        if step_no == zero_lane_at:
            # A zero-lane instruction is rejected and records nothing.
            with pytest.raises(ValueError, match="lane address"):
                mixed.emit_block([0, 1], [1, 0], [0, 0], [64])
            with pytest.raises(ValueError, match="lane address"):
                mixed.emit(1, [])
        if kind == "emit":
            cu, lanes, is_write = args
            mixed.emit(cu, lanes, is_write)
            emit_one(cu, lanes, WRITE if is_write else 0)
        elif kind == "scratch":
            cu, is_write = args
            mixed.emit_scratch(cu, is_write)
            emit_one(cu, [0], SCRATCH | (WRITE if is_write else 0))
        elif kind == "burst":
            cu, count = args
            mixed.emit_scratch_burst(cu, count)
            for _ in range(count):
                emit_one(cu, [0], SCRATCH)
        else:
            (insts,) = args
            mixed.emit_block([cu for cu, _l, _f in insts],
                             [len(lanes) for _c, lanes, _f in insts],
                             [flags for _c, _l, flags in insts],
                             [a for _c, lanes, _f in insts for a in lanes])
            for inst in insts:
                emit_one(*inst)

    space = AddressSpace(asid=0)
    if not scalar.record()[0].size:
        for builder in (mixed, scalar):
            with pytest.raises(ValueError, match="empty trace"):
                builder.build("t", space, issue_interval=2.0)
        return
    streams = recorded_streams(scalar)
    for got, want in zip(recorded_streams(mixed), streams):
        assert np.array_equal(got, want)
    # Both builds must also equal the CU-grouped streams compiled
    # directly, so a grouping fault shared by both cannot pass.
    reference = compile_arrays("t", 2.0, {}, space, *streams)
    for built in (mixed.build("t", space, issue_interval=2.0),
                  scalar.build("t", space, issue_interval=2.0)):
        for stem in ("cu_bounds", "inst_flags", "inst_req_counts", "req_line"):
            x, y = getattr(built, f"_{stem}"), getattr(reference, f"_{stem}")
            assert x.dtype == y.dtype and np.array_equal(x, y), stem
    assert reference.n_cus <= n_cus


class TestWarpChunks:
    """:func:`warp_schedule`'s block-cyclic warp chunks."""

    def test_covers_all_items(self):
        cus, starts, counts = warp_schedule(100, n_cus=4, lanes=32)
        assert counts.sum() == 100
        assert starts.tolist() == [0, 32, 64, 96]
        assert counts[-1] == 4  # tail warp

    def test_sampling_still_rotates_cus(self):
        # Warps are dealt by emitted warp: with sample=4 and 16 CUs,
        # emitted warps must still spread over all CUs.
        cus, _starts, _counts = warp_schedule(32 * 64, n_cus=16, sample=4)
        assert set(cus.tolist()) == set(range(16))

    def test_sampling_reduces_volume(self):
        full = warp_schedule(3200, n_cus=4)[0]
        sampled = warp_schedule(3200, n_cus=4, sample=4)[0]
        assert len(sampled) == (len(full) + 3) // 4

    def test_invalid_sample(self):
        with pytest.raises(ValueError):
            warp_schedule(100, 4, sample=0)
