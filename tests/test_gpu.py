"""Tests for the GPU substrate: coalescer, scratchpad."""

import pytest

from repro.gpu.coalescer import Coalescer
from repro.gpu.scratchpad import Scratchpad


class TestCoalescer:
    def test_fully_coalesced_warp(self):
        c = Coalescer(line_size=128)
        # 32 consecutive 4-byte accesses: one line.
        reqs = c.coalesce([i * 4 for i in range(32)])
        assert len(reqs) == 1
        assert reqs[0].n_lanes == 32
        assert reqs[0].line_addr == 0

    def test_fully_divergent_warp(self):
        c = Coalescer(line_size=128)
        reqs = c.coalesce([i * 4096 for i in range(32)])
        assert len(reqs) == 32
        assert all(r.n_lanes == 1 for r in reqs)

    def test_partial_coalescing(self):
        c = Coalescer(line_size=128)
        reqs = c.coalesce([0, 64, 128, 192, 1000])
        assert len(reqs) == 3
        assert [r.line_addr for r in reqs] == [0, 1, 7]

    def test_lane_counts_preserved(self):
        c = Coalescer(line_size=128)
        reqs = c.coalesce([0, 0, 0, 128])
        assert sum(r.n_lanes for r in reqs) == 4

    def test_write_flag_propagates(self):
        c = Coalescer()
        reqs = c.coalesce([0], is_write=True)
        assert reqs[0].is_write

    def test_request_addressing_helpers(self):
        c = Coalescer(line_size=128)
        req = c.coalesce([5000])[0]
        assert req.byte_addr == (5000 // 128) * 128
        assert req.vpn == 5000 // 4096

    def test_divergence_statistics(self):
        c = Coalescer(line_size=128)
        c.coalesce([0])
        c.coalesce([0, 4096, 8192])
        assert c.mean_divergence() == 2.0

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            Coalescer(line_size=0)


class TestScratchpad:
    def test_fixed_latency(self):
        sp = Scratchpad(latency=2.0)
        assert sp.access(10.0) == 12.0
        assert sp.accesses == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Scratchpad(size_bytes=0)
        with pytest.raises(ValueError):
            Scratchpad(latency=-1.0)
