"""Tests for the baseline physical hierarchy and the IDEAL MMU."""

import pytest

from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import line_address
from repro.memsys.permissions import PageFault, PermissionFault, Permissions
from repro.system.physical_hierarchy import PhysicalHierarchy


@pytest.fixture
def space():
    return AddressSpace(asid=0)


def ph(small_config, space, **kw):
    return PhysicalHierarchy(small_config, {0: space.page_table}, **kw)


class TestTranslation:
    def test_tlb_miss_pays_iommu_round_trip(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(1)
        t = h.access(0, line_address(m.base_va), False, now=0.0)
        assert t > 2 * small_config.interconnect.gpu_to_iommu
        assert h.counters["tlb.misses"] == 1
        assert h.iommu.counters["iommu.accesses"] == 1

    def test_tlb_hit_is_cheap(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(1)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        t2 = h.access(0, line_address(m.base_va), False, now=t1)
        assert t2 - t1 == small_config.per_cu_tlb_latency + small_config.l1_latency
        assert h.iommu.counters["iommu.accesses"] == 1

    def test_per_cu_tlbs_are_private(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(1)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(1, line_address(m.base_va), False, now=t1)
        assert h.counters["tlb.misses"] == 2  # CU1 misses independently

    def test_ideal_mmu_translation_is_free(self, small_config, space):
        h = ph(small_config, space, ideal=True)
        m = space.mmap(1)
        t = h.access(0, line_address(m.base_va), False, now=0.0)
        # Only TLB + cache + memory latency: no IOMMU round trip.
        assert h.iommu.counters["iommu.accesses"] == 0
        mem_path = (small_config.per_cu_tlb_latency + small_config.l1_latency
                    + 3 * small_config.interconnect.l1_to_l2
                    + small_config.l2_latency + small_config.dram_latency + 2)
        assert t <= mem_path

    def test_ideal_mmu_has_infinite_tlbs(self, small_config, space):
        h = ph(small_config, space, ideal=True)
        m = space.mmap(64)  # far beyond the 8-entry small-config TLB
        t = 0.0
        for i in range(64):
            t = h.access(0, line_address(m.base_va + i * 4096), False, now=t)
        for i in range(64):
            t = h.access(0, line_address(m.base_va + i * 4096), False, now=t)
        # Second sweep: all TLB hits.
        assert h.per_cu_tlbs[0].misses == 64

    def test_small_tlb_thrashes(self, small_config, space):
        h = ph(small_config, space)  # 8-entry TLBs
        m = space.mmap(16)
        t = 0.0
        for _sweep in range(2):
            for i in range(16):
                t = h.access(0, line_address(m.base_va + i * 4096), False, now=t)
        assert h.per_cu_tlb_miss_ratio() == 1.0  # LRU thrash

    def test_permission_fault(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(1, permissions=Permissions.READ_ONLY)
        with pytest.raises(PermissionFault):
            h.access(0, line_address(m.base_va), True, now=0.0)

    def test_page_fault(self, small_config, space):
        h = ph(small_config, space)
        with pytest.raises(PageFault):
            h.access(0, line_address(0xBAD0_0000_0000), False, now=0.0)


class TestFigure2Classification:
    def test_miss_with_data_in_l1(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(16)
        t = h.access(0, line_address(m.base_va), False, now=0.0)  # fills L1 + L2
        # Thrash the 8-entry TLB so the page's entry is evicted; vary
        # the in-page offset so the fills spread over L1 sets and the
        # original line survives.
        for i in range(1, 16):
            t = h.access(0, line_address(m.base_va + i * 4096 + (i % 8) * 128), False, now=t)
        # ...then touch the still-cached line: TLB miss, L1 hit.
        h.access(0, line_address(m.base_va), False, now=t)
        assert h.counters["tlb.miss_l1_hit"] == 1

    def test_miss_with_data_in_l2_only(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(16)
        # CU1 fills the shared L2; CU0's TLB and L1 are cold.
        t = h.access(1, line_address(m.base_va), False, now=0.0)
        h.access(0, line_address(m.base_va), False, now=t)
        assert h.counters["tlb.miss_l2_hit"] == 1

    def test_miss_with_data_nowhere(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), False, now=0.0)
        assert h.counters["tlb.miss_l2_miss"] == 1

    def test_classification_partitions_misses(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(24)
        t = 0.0
        for sweep in range(3):
            for i in range(24):
                t = h.access(0, line_address(m.base_va + i * 4096 + (sweep * 128) % 4096), False, now=t)
        total = (h.counters["tlb.miss_l1_hit"] + h.counters["tlb.miss_l2_hit"]
                 + h.counters["tlb.miss_l2_miss"])
        assert total == h.counters["tlb.misses"]


class TestWritePath:
    def test_write_through_no_allocate(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), True, now=0.0)
        pa = space.translate(m.base_va)
        assert not h.l1s[0].contains(pa // 128)   # no L1 allocation
        assert h.l2.peek(pa // 128).dirty         # allocated dirty in L2

    def test_read_fill_then_write_hits_l1_but_stays_clean(self, small_config, space):
        h = ph(small_config, space)
        m = space.mmap(1)
        t = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(0, line_address(m.base_va), True, now=t)
        pa = space.translate(m.base_va)
        assert not h.l1s[0].peek(pa // 128).dirty

    def test_dirty_l2_eviction_writes_back(self, small_config, space):
        h = ph(small_config, space)
        # 64 KB L2 = 512 lines; write 600 distinct lines to force
        # dirty evictions.
        m = space.mmap(24)
        t = 0.0
        for i in range(600):
            va = m.base_va + (i * 128) % m.size_bytes
            t = h.access(0, line_address(va), True, now=t)
        assert h.counters["l2.writebacks"] > 0


class TestLifetimeTracking:
    def test_trackers_populated(self, small_config, space):
        h = ph(small_config, space, track_lifetimes=True)
        m = space.mmap(16)
        t = 0.0
        for _sweep in range(2):
            for i in range(16):
                t = h.access(0, line_address(m.base_va + i * 4096), False, now=t)
        h.finish(t)
        assert len(h.lifetimes["tlb"].residence_times) > 0
        assert len(h.lifetimes["l1"].residence_times) > 0
        assert len(h.lifetimes["l2"].residence_times) > 0

    def test_disabled_by_default(self, small_config, space):
        h = ph(small_config, space)
        assert h.lifetimes is None
