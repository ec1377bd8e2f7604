"""Tests for the L1-only virtual cache design (§5.4)."""

import pytest

from repro.core.l1_only import ASDT, L1OnlyVirtualHierarchy
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import line_address
from repro.memsys.permissions import Permissions, ReadWriteSynonymFault


@pytest.fixture
def space():
    return AddressSpace(asid=0)


def l1vc(small_config, space):
    return L1OnlyVirtualHierarchy(small_config, {0: space.page_table})


class TestASDT:
    def test_first_access_becomes_leading(self):
        a = ASDT()
        e = a.check(0, 100, 5, False)
        assert e.leading_vpn == 100
        assert a.ppn_of_leading(0, 100) == 5

    def test_synonym_counted(self):
        a = ASDT()
        a.check(0, 100, 5, False)
        e = a.check(0, 200, 5, False)
        assert e.leading_vpn == 100
        assert a.synonym_accesses == 1

    def test_rw_synonym_faults(self):
        a = ASDT()
        a.check(0, 100, 5, True)
        with pytest.raises(ReadWriteSynonymFault):
            a.check(0, 200, 5, False)

    def test_entry_dies_with_last_line(self):
        a = ASDT()
        a.check(0, 100, 5, False)
        a.on_fill(5)
        a.on_fill(5)
        a.on_evict(5)
        assert len(a) == 1
        a.on_evict(5)
        assert len(a) == 0
        assert a.ppn_of_leading(0, 100) is None


class TestL1OnlyHierarchy:
    def test_l1_read_hit_skips_translation(self, small_config, space):
        h = l1vc(small_config, space)
        m = space.mmap(1)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        before = h.counters["tlb.accesses"]
        t2 = h.access(0, line_address(m.base_va), False, now=t1)
        assert h.counters["tlb.accesses"] == before  # no TLB consulted
        assert t2 - t1 == small_config.l1_latency

    def test_l1_miss_consults_per_cu_tlb(self, small_config, space):
        h = l1vc(small_config, space)
        m = space.mmap(2)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(0, line_address(m.base_va + 4096), False, now=t1)
        assert h.counters["tlb.accesses"] == 2
        assert h.counters["tlb.misses"] == 2

    def test_writes_always_need_translation(self, small_config, space):
        # Write-through to the *physical* L2: even an L1 write hit needs
        # a physical address — the key limit of L1-only designs.
        h = l1vc(small_config, space)
        m = space.mmap(1)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        before = h.counters["tlb.accesses"]
        h.access(0, line_address(m.base_va), True, now=t1)
        assert h.counters["tlb.accesses"] == before + 1

    def test_l2_is_physically_indexed(self, small_config, space):
        h = l1vc(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), False, now=0.0)
        pa = space.translate(m.base_va)
        assert h.l2.contains(pa // 128)

    def test_l2_shared_across_cus(self, small_config, space):
        h = l1vc(small_config, space)
        m = space.mmap(1)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(1, line_address(m.base_va), False, now=t1)
        assert h.counters["l2.hits"] == 1

    def test_synonym_read_replays_to_leading_l1_line(self, small_config, space):
        h = l1vc(small_config, space)
        m = space.mmap(1, permissions=Permissions.READ_ONLY)
        syn = space.map_synonym(m)
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        h.access(0, line_address(syn.base_va), False, now=t1)
        assert h.counters["vc.synonym_replays"] == 1
        # Replay hit the leading line already in this CU's L1.
        assert h.counters["vc.l1_hits"] >= 1

    def test_rw_synonym_faults(self, small_config, space):
        h = l1vc(small_config, space)
        m = space.mmap(1)
        syn = space.map_synonym(m)
        # Cache the leading copy, then write it while resident: a
        # subsequent synonymous read could observe stale L1 data, so
        # the design faults.
        t1 = h.access(0, line_address(m.base_va), False, now=0.0)
        t2 = h.access(0, line_address(m.base_va), True, now=t1)
        with pytest.raises(ReadWriteSynonymFault):
            h.access(0, line_address(syn.base_va), False, now=t2)

    def test_write_to_untracked_page_is_safe(self, small_config, space):
        # A write-through to a page with no L1-resident data creates no
        # hazard and must not fault later synonymous reads... until the
        # leading copy is actually cached and written.
        h = l1vc(small_config, space)
        m = space.mmap(1)
        syn = space.map_synonym(m)
        t1 = h.access(0, line_address(m.base_va), True, now=0.0)
        t2 = h.access(0, line_address(syn.base_va), False, now=t1)  # no fault
        assert h.counters.as_dict().get("vc.synonym_replays", 0) == 0

    def test_asdt_tracks_l1_contents(self, small_config, space):
        h = l1vc(small_config, space)
        m = space.mmap(1)
        h.access(0, line_address(m.base_va), False, now=0.0)
        pa = space.translate(m.base_va)
        assert h.asdt.leading_of(pa // 4096) is not None
