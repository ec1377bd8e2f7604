"""Tests for 2 MB large-page support (§4.3, "Large Page Support")."""

import pytest

from repro.core.fbt import ForwardBackwardTable
from repro.core.virtual_hierarchy import VirtualCacheHierarchy
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import (
    BASE_PAGES_PER_LARGE,
    LARGE_PAGE_SIZE,
    large_page_base_vpn,
    line_address,
    page_number,
)
from repro.memsys.iommu import IOMMU, IOMMUConfig
from repro.memsys.page_table import FrameAllocator, PageTable
from repro.memsys.permissions import Permissions

RW = Permissions.READ_WRITE


class TestFrameAllocator:
    def test_contiguous_aligned(self):
        fa = FrameAllocator()
        base = fa.allocate_contiguous(512, align=512)
        assert base % 512 == 0
        next_frame = fa.allocate()
        assert next_frame == base + 512

    def test_validation(self):
        fa = FrameAllocator()
        with pytest.raises(ValueError):
            fa.allocate_contiguous(0)
        with pytest.raises(ValueError):
            fa.allocate_contiguous(1, align=0)


class TestPageTableLargeMappings:
    def pt(self):
        return PageTable(FrameAllocator())

    def test_map_large_then_walk(self):
        pt = self.pt()
        pt.map_large(0, 512 * 7)
        result = pt.walk(5)
        assert result.is_large
        assert result.ppn == 512 * 7 + 5
        assert result.large_base_vpn == 0
        assert result.large_base_ppn == 512 * 7
        # One level fewer: 3 PTE reads instead of 4.
        assert len(result.node_addresses) == 3

    def test_lookup_covers_whole_range(self):
        pt = self.pt()
        pt.map_large(1024, 512 * 3)
        for offset in (0, 1, 511):
            ppn, perms = pt.lookup(1024 + offset)
            assert ppn == 512 * 3 + offset
        assert pt.lookup(1024 + 512) is None

    def test_alignment_enforced(self):
        pt = self.pt()
        with pytest.raises(ValueError):
            pt.map_large(3, 512)
        with pytest.raises(ValueError):
            pt.map_large(512, 17)

    def test_no_shadowing_of_4k_mappings(self):
        pt = self.pt()
        pt.map(1024 + 5, 99)
        with pytest.raises(ValueError):
            pt.map_large(1024, 512 * 2)

    def test_no_4k_inside_large(self):
        pt = self.pt()
        pt.map_large(1024, 512 * 2)
        with pytest.raises(ValueError):
            pt.map(1024 + 5, 99)

    def test_mapping_counters(self):
        pt = self.pt()
        pt.map_large(0, 512)
        pt.map(1024, 7)
        assert pt.n_large_mappings == 1
        assert pt.n_mappings == 1


class TestAddressSpaceLargePages:
    def test_mmap_large_rounds_and_aligns(self):
        space = AddressSpace(asid=0)
        m = space.mmap(100, large_pages=True)
        assert m.large
        assert m.n_pages == BASE_PAGES_PER_LARGE
        assert m.base_va % LARGE_PAGE_SIZE == 0

    def test_large_mapping_physically_contiguous(self):
        space = AddressSpace(asid=0)
        m = space.mmap(512, large_pages=True)
        pa0 = space.translate(m.base_va)
        pa_last = space.translate(m.base_va + m.size_bytes - 1)
        assert pa_last - pa0 == m.size_bytes - 1

    def test_mixed_allocations_coexist(self):
        space = AddressSpace(asid=0)
        small = space.mmap(3)
        big = space.mmap(600, large_pages=True)
        assert big.n_pages == 1024  # rounded to two large pages
        assert space.translate(small.base_va) is not None
        assert space.translate(big.base_va + LARGE_PAGE_SIZE) is not None


class TestIOMMULargePages:
    def test_walk_carries_large_info(self):
        space = AddressSpace(asid=0)
        m = space.mmap(512, large_pages=True)
        iommu = IOMMU(IOMMUConfig(shared_tlb_entries=8), {0: space.page_table})
        vpn = page_number(m.base_va) + 9
        out = iommu.translate(vpn, 0.0)
        assert out.source == "walk" and out.is_large
        assert out.large_base_vpn == large_page_base_vpn(vpn)
        # A shared-TLB hit keeps the provenance.
        out2 = iommu.translate(vpn, out.finish)
        assert out2.source == "shared_tlb" and out2.is_large


class TestFBTCounterPolicy:
    def make(self):
        return ForwardBackwardTable(n_entries=64, associativity=4,
                                    large_page_policy="counter")

    def test_one_entry_covers_large_page(self):
        fbt = self.make()
        check = fbt.check_access(0, 1024 + 3, 512 * 4 + 3, RW, 0, False,
                                 is_large=True, large_base_vpn=1024,
                                 large_base_ppn=512 * 4)
        assert check.status == "new_leading"
        assert check.entry.tracking == "counter"
        again = fbt.check_access(0, 1024 + 77, 512 * 4 + 77, RW, 5, False,
                                 is_large=True, large_base_vpn=1024,
                                 large_base_ppn=512 * 4)
        assert again.status == "leading"
        assert again.entry is check.entry
        assert fbt.counters["fbt.allocations"] == 1

    def test_counter_tracks_fills_by_base(self):
        fbt = self.make()
        check = fbt.check_access(0, 1024, 512 * 4, RW, 0, False,
                                 is_large=True, large_base_vpn=1024,
                                 large_base_ppn=512 * 4)
        fbt.note_l2_fill(512 * 4 + 100, 7)  # a subpage fill
        assert check.entry.line_count == 1
        fbt.note_l2_eviction(0, 1024 + 100, 7)
        assert check.entry.line_count == 0

    def test_large_synonym_keeps_subpage_offset(self):
        fbt = self.make()
        fbt.check_access(0, 1024, 512 * 4, RW, 0, False,
                         is_large=True, large_base_vpn=1024,
                         large_base_ppn=512 * 4)
        check = fbt.check_access(0, 4096 + 33, 512 * 4 + 33, RW, 0, False,
                                 is_large=True, large_base_vpn=4096,
                                 large_base_ppn=512 * 4)
        assert check.status == "synonym"
        assert check.leading_vpn == 1024 + 33

    def test_shootdown_of_subpage_kills_large_entry(self):
        fbt = self.make()
        fbt.check_access(0, 1024, 512 * 4, RW, 0, False,
                         is_large=True, large_base_vpn=1024,
                         large_base_ppn=512 * 4)
        fbt.note_l2_fill(512 * 4 + 3, 0)
        order = fbt.shootdown(0, 1024 + 3)
        assert order is not None
        assert order.walk_l2
        assert order.n_subpages == BASE_PAGES_PER_LARGE

    def test_probe_reverse_translates_subpage(self):
        fbt = self.make()
        fbt.check_access(0, 1024, 512 * 4, RW, 0, False,
                         is_large=True, large_base_vpn=1024,
                         large_base_ppn=512 * 4)
        physical_line = (512 * 4 + 10) * 32 + 5
        asid, vline, idx, _cached = fbt.reverse_translate_probe(physical_line)
        assert vline == (1024 + 10) * 32 + 5

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ForwardBackwardTable(large_page_policy="giant")


class TestSubpagePolicyDefault:
    def test_subpage_policy_allocates_per_accessed_subpage(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        for offset in (0, 3, 99):
            fbt.check_access(0, 1024 + offset, 512 * 4 + offset, RW, 0, False,
                             is_large=True, large_base_vpn=1024,
                             large_base_ppn=512 * 4)
        # One bit-vector entry per touched 4 KB subpage, no prealloc.
        assert fbt.counters["fbt.allocations"] == 3
        assert all(e.tracking == "bitvector" for e in fbt.bt.entries())


class TestHierarchyWithLargePages:
    def run_hierarchy(self, small_config, policy):
        space = AddressSpace(asid=0)
        m = space.mmap(512, large_pages=True)
        h = VirtualCacheHierarchy(small_config, {0: space.page_table},
                                  large_page_policy=policy)
        t = 0.0
        for i in range(40):
            va = m.base_va + (i * 37) % 500 * 4096 + (i % 32) * 128
            t = h.access(0, line_address(va), i % 5 == 0, t) + 1
        # Reads hit after fills.
        va = m.base_va + 37 * 4096 + 128
        t2 = h.access(0, line_address(va), False, t)
        return h, space, m

    def test_subpage_policy_end_to_end(self, small_config):
        h, space, m = self.run_hierarchy(small_config, "subpage")
        assert h.counters["vc.accesses"] > 0
        assert len(h.fbt.bt) > 1  # one entry per touched subpage

    def test_counter_policy_end_to_end(self, small_config):
        h, space, m = self.run_hierarchy(small_config, "counter")
        assert len(h.fbt.bt) == 1  # one counter entry for the large page
        entry = h.fbt.bt.entries()[0]
        assert entry.tracking == "counter"
        assert entry.line_count == len(h.l2)

    def test_counter_policy_shootdown_walks_l2(self, small_config):
        h, space, m = self.run_hierarchy(small_config, "counter")
        vpn = page_number(m.base_va) + 3
        assert h.shootdown(0, vpn, now=1e6) is True
        assert len(h.l2) == 0
        assert len(h.fbt.bt) == 0
