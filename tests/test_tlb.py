"""Tests for the TLB model."""

import pytest

from repro.memsys.permissions import Permissions
from repro.memsys.tlb import TLB


class TestBasicOperation:
    def test_miss_then_hit(self):
        t = TLB(capacity=4)
        assert t.lookup(0x10) is None
        t.insert(0x10, 0x99)
        entry = t.lookup(0x10)
        assert entry.ppn == 0x99
        assert t.hits == 1 and t.misses == 1

    def test_lru_eviction(self):
        t = TLB(capacity=2)
        t.insert(1, 101)
        t.insert(2, 102)
        victim = t.insert(3, 103)
        assert victim.vpn == 1
        assert 1 not in t and 2 in t and 3 in t

    def test_lookup_refreshes_lru(self):
        t = TLB(capacity=2)
        t.insert(1, 101)
        t.insert(2, 102)
        t.lookup(1)
        victim = t.insert(3, 103)
        assert victim.vpn == 2

    def test_reinsert_updates_in_place(self):
        t = TLB(capacity=2)
        t.insert(1, 101)
        assert t.insert(1, 201) is None
        assert t.lookup(1).ppn == 201
        assert len(t) == 1

    def test_infinite_capacity_never_evicts(self):
        t = TLB(capacity=None)
        for vpn in range(10_000):
            assert t.insert(vpn, vpn) is None
        assert len(t) == 10_000

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TLB(capacity=0)

    def test_permissions_carried(self):
        t = TLB(capacity=4)
        t.insert(5, 55, permissions=Permissions.READ_ONLY)
        assert t.lookup(5).permissions == Permissions.READ_ONLY

    def test_miss_ratio(self):
        t = TLB(capacity=4)
        t.lookup(1)
        t.insert(1, 1)
        t.lookup(1)
        assert t.miss_ratio() == 0.5
        assert TLB(capacity=4).miss_ratio() == 0.0


class TestShootdown:
    def test_single_entry_invalidate(self):
        t = TLB(capacity=4)
        t.insert(1, 1)
        assert t.invalidate(1) is True
        assert 1 not in t
        assert t.invalidate(1) is False

    def test_invalidate_all(self):
        t = TLB(capacity=8)
        for vpn in range(5):
            t.insert(vpn, vpn)
        assert t.invalidate_all() == 5
        assert len(t) == 0

