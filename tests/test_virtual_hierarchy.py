"""End-to-end tests for the full virtual cache hierarchy."""

import pytest

from repro.core.virtual_hierarchy import (
    VirtualCacheHierarchy,
    line_key,
    page_key,
    split_page_key,
)
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import line_address, page_number
from repro.memsys.directory import CoherenceProbe
from repro.memsys.permissions import (
    PermissionFault,
    Permissions,
    ReadWriteSynonymFault,
)


@pytest.fixture
def space():
    return AddressSpace(asid=0)


def vc(small_config, space, **kw):
    return VirtualCacheHierarchy(small_config, {0: space.page_table}, **kw)


class TestKeyHelpers:
    def test_page_key_roundtrip(self):
        key = page_key(3, 0x12345)
        assert split_page_key(key) == (3, 0x12345)

    def test_distinct_asids_never_alias(self):
        assert line_key(0, 100) != line_key(1, 100)


class TestReadPath:
    def test_first_read_misses_everywhere_and_translates(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(4)
        t = h.access(0, line_address(m.base_va), False, now=0.0)
        assert t > 100  # paid the IOMMU round trip + memory
        assert h.counters["vc.l2_misses"] == 1
        assert h.iommu.counters["iommu.accesses"] == 1

    def test_l1_hit_skips_translation(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(4)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        t2 = h.access(0, line_address(m.base_va), False, now=t1)
        assert t2 - t1 == small_config.l1_latency
        assert h.iommu.counters["iommu.accesses"] == 1  # unchanged
        assert h.counters["vc.l1_hits"] == 1

    def test_l2_hit_from_another_cu_skips_translation(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(4)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(1, line_address(m.base_va), False, now=t1)
        assert h.counters["vc.l2_hits"] == 1
        assert h.iommu.counters["iommu.accesses"] == 1

    def test_fill_updates_fbt_bit_vector(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), False, now=0.0)
        vpn = page_number(m.base_va)
        ppn, _ = space.page_table.lookup(vpn)
        entry = h.fbt.bt.peek(ppn)
        assert entry is not None
        assert entry.line_cached(0)
        assert entry.leading_vpn == vpn

    def test_fill_updates_invalidation_filter(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        h.access(2, line_address(m.base_va), False, now=0.0)
        assert h.filters[2].might_hold(0, page_number(m.base_va))
        assert not h.filters[0].might_hold(0, page_number(m.base_va))

    def test_unmapped_page_faults(self, small_config, space):
        from repro.memsys.permissions import PageFault
        h = vc(small_config, space)
        with pytest.raises(PageFault):
            h.access(0, line_address(0xDEAD_0000_0000), False, now=0.0)


class TestWritePath:
    def test_write_through_marks_l2_dirty(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)   # fill L1+L2
        h.access(0, line_address(m.base_va), True, now=t1)        # L1 write hit
        key = line_key(0, line_address(m.base_va))
        assert h.l2.peek(key).dirty
        assert not h.l1s[0].peek(key).dirty  # L1 stays clean (write-through)

    def test_write_sets_fbt_written_flag(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(0, line_address(m.base_va), True, now=t1)
        vpn = page_number(m.base_va)
        ppn, _ = space.page_table.lookup(vpn)
        assert h.fbt.bt.peek(ppn).written

    def test_write_miss_does_not_allocate_l1(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), True, now=0.0)
        key = line_key(0, line_address(m.base_va))
        assert h.l1s[0].peek(key) is None
        assert h.l2.peek(key).dirty  # write-allocate into L2

    def test_read_only_page_rejects_write(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1, permissions=Permissions.READ_ONLY)
        with pytest.raises(PermissionFault):
            h.access(0, line_address(m.base_va), True, now=0.0)

    def test_cached_permissions_checked_on_l1_hit(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1, permissions=Permissions.READ_ONLY)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        with pytest.raises(PermissionFault):
            h.access(0, line_address(m.base_va), True, now=t1)


class TestSynonyms:
    def test_synonym_read_replays_with_leading_address(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1, permissions=Permissions.READ_ONLY)
        syn = space.map_synonym(m)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        t2 = h.access(1, line_address(syn.base_va), False, now=t1)
        assert h.counters["vc.synonym_replays"] == 1
        # The replay found the line under the leading address — no
        # duplicate copy was created in the L2.
        lead = line_key(0, line_address(m.base_va))
        other = line_key(0, line_address(syn.base_va))
        assert h.l2.contains(lead)
        assert not h.l2.contains(other)

    def test_no_duplication_invariant(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(2, permissions=Permissions.READ_ONLY)
        syn = space.map_synonym(m)
        t = 0.0
        for va in (m.base_va, syn.base_va, m.base_va + 128, syn.base_va + 128):
            t = h.access(0, line_address(va), False, now=t)
        # Two distinct lines cached, both under the leading page.
        assert len(h.l2) == 2

    def test_read_write_synonym_faults(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        syn = space.map_synonym(m)
        t1 = h.access(0, line_address(m.base_va), True, now=0.0)
        with pytest.raises(ReadWriteSynonymFault):
            h.access(0, line_address(syn.base_va), False, now=t1)

    def test_synonym_replay_when_line_not_cached_fetches(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1, permissions=Permissions.READ_ONLY)
        syn = space.map_synonym(m)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)       # line 0 leading
        h.access(0, line_address(syn.base_va + 128), False, now=t1)     # line 1 via synonym
        lead_line1 = line_key(0, line_address(m.base_va + 128))
        assert h.l2.contains(lead_line1)


class TestShootdownAndProbes:
    def test_shootdown_invalidates_cached_data(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), False, now=0.0)
        vpn = page_number(m.base_va)
        assert h.shootdown(0, vpn) is True
        key = line_key(0, line_address(m.base_va))
        assert not h.l2.contains(key)
        assert not h.l1s[0].contains(key)  # filter hit → L1 flushed
        assert h.counters["vc.l1_flushes"] == 1

    def test_shootdown_filtered_when_page_not_cached(self, small_config, space):
        h = vc(small_config, space)
        assert h.shootdown(0, 0x9999) is False

    def test_shootdown_all_flushes_everything(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(4)
        t = 0.0
        for i in range(4):
            t = h.access(0, line_address(m.base_va + i * 4096), False, now=t)
        assert h.shootdown_all() == 4
        assert len(h.l2) == 0

    def test_probe_filtered_for_uncached_line(self, small_config, space):
        h = vc(small_config, space)
        probe = h.handle_probe(CoherenceProbe(physical_line=123456))
        assert probe.filtered is True

    def test_probe_invalidates_cached_line(self, small_config, space):
        h = vc(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), False, now=0.0)
        pa = space.translate(m.base_va)
        probe = h.handle_probe(CoherenceProbe(physical_line=pa // 128))
        assert probe.filtered is False
        assert probe.forwarded_virtual_line == line_address(m.base_va)
        assert not h.l2.contains(line_key(0, line_address(m.base_va)))


class TestFBTEviction:
    def test_bt_conflict_eviction_invalidates_victim_data(self, small_config, space):
        # Shrink the BT so two pages collide.
        cfg = small_config
        import dataclasses
        cfg = dataclasses.replace(cfg, fbt_entries=4, fbt_associativity=1)
        h = VirtualCacheHierarchy(cfg, {0: space.page_table})
        # Find two mapped pages whose PPNs land in the same BT set.
        m = space.mmap(8)
        vpn0 = page_number(m.base_va)
        ppn0, _ = space.page_table.lookup(vpn0)
        conflict = next(
            i for i in range(1, 8)
            if space.page_table.lookup(vpn0 + i)[0] % 4 == ppn0 % 4
        )
        t = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(0, line_address(m.base_va + conflict * 4096), False, now=t)
        assert h.fbt.counters["fbt.evictions"] == 1
        assert not h.l2.contains(line_key(0, line_address(m.base_va)))
        assert h.counters["vc.invalidations"] >= 1
