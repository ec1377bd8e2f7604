"""Tests for the 15 workload generators and the registry.

Generators run at a tiny scale here; the assertions are about structure
(non-empty, realistic divergence, correct metadata), not calibration —
the benchmarks check the calibrated behaviour.
"""

import numpy as np
import pytest

from repro.memsys.addressing import PAGE_SIZE
from repro.workloads import registry
from repro.workloads.registry import (
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    WORKLOADS,
    clear_cache,
    is_high_bandwidth,
    load,
)

from tests.conftest import load_recorded

TINY = 0.05


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRegistry:
    def test_fifteen_workloads(self):
        assert len(WORKLOADS) == 15
        assert set(HIGH_BANDWIDTH) | set(LOW_BANDWIDTH) == set(WORKLOADS)
        assert not set(HIGH_BANDWIDTH) & set(LOW_BANDWIDTH)

    def test_paper_suites(self):
        pannotia = {"bc", "color_maxmin", "color_max", "fw", "fw_block",
                    "mis", "pagerank", "pagerank_spmv"}
        rodinia = {"kmeans", "backprop", "bfs", "hotspot", "lud", "nw",
                   "pathfinder"}
        assert pannotia | rodinia == set(WORKLOADS)

    def test_high_bandwidth_grouping(self):
        # §5.2: all Pannotia + bfs + lud are high-BW; the other five not.
        assert is_high_bandwidth("mis")
        assert is_high_bandwidth("bfs")
        assert is_high_bandwidth("lud")
        assert not is_high_bandwidth("kmeans")
        assert not is_high_bandwidth("pathfinder")

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            load("not_a_workload")
        with pytest.raises(KeyError):
            is_high_bandwidth("nope")

    def test_memoization(self):
        a = load("kmeans", scale=TINY)
        b = load("kmeans", scale=TINY)
        assert a is b
        clear_cache()
        c = load("kmeans", scale=TINY)
        assert c is not a

    def test_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert registry.default_scale() == 0.05
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            registry.default_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            registry.default_scale()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestEveryWorkload:
    def test_generates_valid_trace(self, name):
        trace = load(name, scale=TINY)
        assert trace.name == name
        assert trace.n_instructions > 50
        assert trace.n_cus == 16
        assert trace.footprint_pages() > 10
        assert trace.issue_interval > 0

    def test_metadata(self, name):
        trace = load(name, scale=TINY)
        assert trace.metadata["suite"] in ("pannotia", "rodinia")
        assert trace.metadata["high_bandwidth"] == is_high_bandwidth(name)

    def test_addresses_are_mapped(self, name):
        trace, (lanes, lane_counts, flags, _bounds) = load_recorded(name, TINY)
        space = trace.address_space
        # The first lane of each memory instruction, as the builder
        # recorded it.
        lane_counts = np.asarray(lane_counts)
        first_lanes = np.cumsum(lane_counts) - lane_counts
        memory = (np.asarray(flags) & 2) == 0
        addresses = np.asarray(lanes)[first_lanes[memory]][:200].tolist()
        assert addresses
        for addr in addresses:
            assert space.translate(addr) is not None, hex(addr)

    def test_deterministic(self, name):
        a, a_streams = load_recorded(name, TINY)
        b, b_streams = load_recorded(name, TINY)
        assert a.n_instructions == b.n_instructions
        assert a_streams == b_streams

    def test_array_statistics_match_lane_definitions(self, name):
        trace, (lanes, lane_counts, flags, _bounds) = load_recorded(name, TINY)
        pages, lines, memory, scratch, pos = set(), 0, 0, 0, 0
        for n_lanes, flag in zip(lane_counts, flags):
            addresses = lanes[pos:pos + n_lanes]
            pos += n_lanes
            if flag & 2:
                scratch += 1
                continue
            memory += 1
            lines += len({a // trace.line_size for a in addresses})
            pages.update(a // PAGE_SIZE for a in addresses)
        assert trace.footprint_pages() == len(pages)
        assert trace.mean_divergence() == lines / memory
        assert trace.scratchpad_fraction() == scratch / trace.n_instructions


class TestWorkloadCharacter:
    def test_graph_kernels_are_divergent(self):
        for name in ("mis", "color_max", "pagerank"):
            trace = load(name, scale=TINY)
            assert trace.mean_divergence() > 4.0, name

    def test_dense_kernels_are_coalesced(self):
        for name in ("backprop", "hotspot", "pathfinder"):
            trace = load(name, scale=TINY)
            assert trace.mean_divergence() < 2.0, name

    def test_fw_is_the_divergence_extreme(self):
        # §3.1: fw averages 9.3 accesses per memory instruction.
        trace = load("fw", scale=TINY)
        assert trace.mean_divergence() > 8.0

    def test_scratchpad_workloads(self):
        # §3.1: most of nw/pathfinder accesses are scratchpad.
        for name in ("nw", "pathfinder"):
            trace = load(name, scale=TINY)
            assert trace.scratchpad_fraction() > 0.5, name
        assert load("pagerank", scale=TINY).scratchpad_fraction() == 0.0

    def test_scale_grows_traces(self):
        small = load("pagerank", scale=0.05)
        clear_cache()
        large = load("pagerank", scale=0.2)
        assert large.footprint_pages() > 2 * small.footprint_pages()

    def test_writes_present(self):
        trace = load("mis", scale=TINY)
        assert np.any(trace._inst_flags & 1)
