"""Tests for the forward-backward table and its component tables."""

import pytest

from repro.core.backward_table import BackwardTable, BTEntry
from repro.core.fbt import ForwardBackwardTable
from repro.core.forward_table import ForwardTable
from repro.memsys.permissions import Permissions, ReadWriteSynonymFault

RW = Permissions.READ_WRITE


class TestBTEntry:
    def test_bit_vector_tracking(self):
        e = BTEntry(ppn=1, leading_asid=0, leading_vpn=10, permissions=RW)
        e.mark_line_cached(3)
        e.mark_line_cached(3)  # idempotent
        e.mark_line_cached(31)
        assert e.line_cached(3) and e.line_cached(31)
        assert not e.line_cached(4)
        assert e.line_count == 2
        assert e.cached_line_indices() == [3, 31]

    def test_bit_vector_eviction(self):
        e = BTEntry(ppn=1, leading_asid=0, leading_vpn=10, permissions=RW)
        e.mark_line_cached(5)
        e.mark_line_evicted(5)
        e.mark_line_evicted(5)  # idempotent
        assert not e.line_cached(5)
        assert e.line_count == 0

    def test_counter_mode_for_large_pages(self):
        e = BTEntry(ppn=1, leading_asid=0, leading_vpn=10, permissions=RW,
                    tracking="counter")
        e.mark_line_cached(100)
        e.mark_line_cached(200)
        # Counter mode has no per-line info: conservatively resident.
        assert e.line_cached(0)
        e.mark_line_evicted(100)
        e.mark_line_evicted(200)
        assert not e.line_cached(0)

    def test_counter_mode_has_no_line_indices(self):
        e = BTEntry(ppn=1, leading_asid=0, leading_vpn=10, permissions=RW,
                    tracking="counter")
        with pytest.raises(ValueError):
            e.cached_line_indices()


class TestBackwardTable:
    def test_allocate_and_lookup(self):
        bt = BackwardTable(n_entries=16, associativity=4)
        entry, victim = bt.allocate(5, 0, 100, RW)
        assert victim is None
        assert bt.lookup(5) is entry
        assert bt.lookup(6) is None

    def test_set_conflict_evicts_lru(self):
        bt = BackwardTable(n_entries=8, associativity=2)  # 4 sets
        # Three PPNs in the same set (stride = n_sets = 4).
        bt.allocate(0, 0, 100, RW)
        bt.allocate(4, 0, 104, RW)
        _, victim = bt.allocate(8, 0, 108, RW)
        assert victim.ppn == 0
        assert bt.evictions == 1

    def test_lookup_refreshes_lru(self):
        bt = BackwardTable(n_entries=8, associativity=2)
        bt.allocate(0, 0, 100, RW)
        bt.allocate(4, 0, 104, RW)
        bt.lookup(0)
        _, victim = bt.allocate(8, 0, 108, RW)
        assert victim.ppn == 4

    def test_locked_entries_not_evicted(self):
        bt = BackwardTable(n_entries=8, associativity=2)
        a, _ = bt.allocate(0, 0, 100, RW)
        bt.allocate(4, 0, 104, RW)
        a.locked = True
        _, victim = bt.allocate(8, 0, 108, RW)
        assert victim.ppn == 4  # skipped the locked entry

    def test_double_allocate_rejected(self):
        bt = BackwardTable(n_entries=16, associativity=4)
        bt.allocate(5, 0, 100, RW)
        with pytest.raises(ValueError):
            bt.allocate(5, 0, 101, RW)

    def test_remove(self):
        bt = BackwardTable(n_entries=16, associativity=4)
        bt.allocate(5, 0, 100, RW)
        assert bt.remove(5) is not None
        assert bt.remove(5) is None
        assert len(bt) == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BackwardTable(n_entries=10, associativity=4)
        with pytest.raises(ValueError):
            BackwardTable(n_entries=0)

    def test_table1_sizing(self):
        bt = BackwardTable(n_entries=16384, associativity=8)
        assert bt.n_sets == 2048


class TestForwardTable:
    def test_pairing_lifecycle(self):
        ft = ForwardTable()
        e = BTEntry(ppn=9, leading_asid=0, leading_vpn=70, permissions=RW)
        ft.insert(e)
        assert ft.lookup(0, 70) is e
        ft.remove_entry(e)
        assert ft.lookup(0, 70) is None

    def test_duplicate_leading_rejected(self):
        ft = ForwardTable()
        e1 = BTEntry(ppn=1, leading_asid=0, leading_vpn=70, permissions=RW)
        e2 = BTEntry(ppn=2, leading_asid=0, leading_vpn=70, permissions=RW)
        ft.insert(e1)
        with pytest.raises(ValueError):
            ft.insert(e2)

    def test_miss_filters(self):
        ft = ForwardTable()
        assert ft.lookup(0, 123) is None
        assert ft.lookups == 1 and ft.hits == 0


class TestFBTAccessCheck:
    def make(self, **kw):
        return ForwardBackwardTable(n_entries=64, associativity=4, **kw)

    def test_first_access_becomes_leading(self):
        fbt = self.make()
        check = fbt.check_access(0, vpn=100, ppn=5, permissions=RW,
                                 line_index=0, is_write=False)
        assert check.status == "new_leading"
        assert check.leading_vpn == 100
        assert fbt.ft.lookup(0, 100) is check.entry

    def test_leading_access_recognized(self):
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 0, False)
        check = fbt.check_access(0, 100, 5, RW, 1, False)
        assert check.status == "leading"

    def test_synonym_detected(self):
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 0, False)
        check = fbt.check_access(0, 200, 5, RW, 0, False)
        assert check.status == "synonym"
        assert check.leading_vpn == 100
        assert fbt.counters["fbt.synonym_accesses"] == 1

    def test_synonym_replay_hits_when_line_cached(self):
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 3, False)
        fbt.note_l2_fill(5, 3)
        check = fbt.check_access(0, 200, 5, RW, 3, False)
        assert check.replay_hits_l2 is True
        miss = fbt.check_access(0, 200, 5, RW, 4, False)
        assert miss.replay_hits_l2 is False

    def test_read_write_synonym_faults_on_write(self):
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 0, False)
        with pytest.raises(ReadWriteSynonymFault):
            fbt.check_access(0, 200, 5, RW, 0, True)
        assert fbt.counters["fbt.rw_synonym_faults"] == 1

    def test_read_write_synonym_faults_on_read_after_write(self):
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 0, True)  # leading page written
        with pytest.raises(ReadWriteSynonymFault):
            fbt.check_access(0, 200, 5, RW, 0, False)

    def test_read_only_synonyms_allowed(self):
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 0, False)
        check = fbt.check_access(0, 200, 5, RW, 0, False)
        assert check.status == "synonym"  # no fault

    def test_fault_disabled_replays_instead(self):
        fbt = self.make(fault_on_rw_synonym=False)
        fbt.check_access(0, 100, 5, RW, 0, True)
        check = fbt.check_access(0, 200, 5, RW, 0, False)
        assert check.status == "synonym"

    def test_cross_asid_synonym(self):
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 0, False)
        check = fbt.check_access(1, 100, 5, RW, 0, False)
        assert check.status == "synonym"
        assert check.leading_asid == 0

    def test_victim_eviction_order(self):
        fbt = ForwardBackwardTable(n_entries=4, associativity=1)  # 4 sets
        fbt.check_access(0, 100, 0, RW, 0, False)
        fbt.note_l2_fill(0, 7)
        check = fbt.check_access(0, 200, 4, RW, 0, False)  # same BT set
        assert len(check.invalidations) == 1
        order = check.invalidations[0]
        assert order.leading_vpn == 100
        assert order.line_indices == [7]
        assert order.reason == "bt_eviction"
        assert fbt.ft.lookup(0, 100) is None  # FT pairing dropped

    def test_stale_remap_implicitly_shot_down(self):
        # A virtual page remapped to a new physical page (its shootdown
        # unseen) must evict the stale leading entry before reuse.
        fbt = self.make()
        fbt.check_access(0, 100, 5, RW, 2, False)
        fbt.note_l2_fill(5, 2)
        check = fbt.check_access(0, 100, 9, RW, 0, False)  # vpn 100 remapped
        assert check.status == "new_leading"
        stale = [o for o in check.invalidations if o.reason == "stale_remap"]
        assert len(stale) == 1
        assert stale[0].leading_vpn == 100
        assert stale[0].line_indices == [2]
        assert fbt.bt.peek(5) is None
        assert fbt.ft.lookup(0, 100).ppn == 9
        assert fbt.counters["fbt.stale_remaps"] == 1


class TestFBTSecondLevelTLB:
    def test_forward_translate_hit(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, Permissions.READ_ONLY, 0, False)
        assert fbt.forward_translate(0, 100) == (
            5, Permissions.READ_ONLY, False, 0, 0)

    def test_forward_translate_miss(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        assert fbt.forward_translate(0, 100) is None

    def test_non_leading_page_misses(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, RW, 0, False)
        fbt.check_access(0, 200, 5, RW, 0, False)  # synonym of 100
        assert fbt.forward_translate(0, 200) is None


class TestFBTInclusion:
    def test_fill_without_entry_is_an_error(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        with pytest.raises(RuntimeError):
            fbt.note_l2_fill(99, 0)

    def test_eviction_clears_bit_via_ft(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        check = fbt.check_access(0, 100, 5, RW, 2, False)
        fbt.note_l2_fill(5, 2)
        fbt.note_l2_eviction(0, 100, 2)
        assert not check.entry.line_cached(2)

    def test_eviction_after_entry_death_is_noop(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, RW, 0, False)
        fbt.shootdown(0, 100)
        fbt.note_l2_eviction(0, 100, 0)  # must not raise

    def test_note_write_sets_written(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        check = fbt.check_access(0, 100, 5, RW, 0, False)
        assert not check.entry.written
        fbt.note_write(0, 100)
        assert check.entry.written


class TestFBTShootdown:
    def test_shootdown_filtered_when_nothing_cached(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        assert fbt.shootdown(0, 12345) is None
        assert fbt.counters["fbt.shootdowns_filtered"] == 1

    def test_shootdown_produces_selective_invalidation(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, RW, 0, False)
        fbt.note_l2_fill(5, 1)
        fbt.note_l2_fill(5, 9)
        order = fbt.shootdown(0, 100)
        assert order.line_indices == [1, 9]
        assert order.reason == "shootdown"
        assert fbt.bt.peek(5) is None

    def test_shootdown_all(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, RW, 0, False)
        fbt.check_access(0, 101, 6, RW, 0, False)
        orders = fbt.shootdown_all()
        assert len(orders) == 2
        assert len(fbt.bt) == 0
        assert len(fbt.ft) == 0


class TestFBTCoherence:
    def test_probe_filtered_for_uncached_page(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        assert fbt.reverse_translate_probe(99 * 32 + 3) is None
        assert fbt.counters["fbt.probes_filtered"] == 1

    def test_probe_reverse_translates_to_leading(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, RW, 3, False)
        fbt.note_l2_fill(5, 3)
        asid, vline, line_index, in_l2 = fbt.reverse_translate_probe(5 * 32 + 3)
        assert (asid, line_index, in_l2) == (0, 3, True)
        assert vline == 100 * 32 + 3

    def test_probe_to_uncached_line_of_cached_page(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, RW, 3, False)
        _, _, _, in_l2 = fbt.reverse_translate_probe(5 * 32 + 9)
        assert in_l2 is False

    def test_response_forward_translation(self):
        fbt = ForwardBackwardTable(n_entries=64, associativity=4)
        fbt.check_access(0, 100, 5, RW, 3, False)
        assert fbt.forward_response_translate(0, 100 * 32 + 3) == 5 * 32 + 3
        assert fbt.forward_response_translate(0, 999 * 32) is None
