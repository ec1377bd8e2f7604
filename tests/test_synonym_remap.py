"""Tests for dynamic synonym remapping (§4.3)."""

import pytest

from repro.core.synonym_remap import SynonymRemapTable
from repro.core.virtual_hierarchy import VirtualCacheHierarchy
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import line_address, page_number
from repro.memsys.permissions import Permissions


class TestSynonymRemapTable:
    def test_learn_and_lookup(self):
        srt = SynonymRemapTable(capacity=4)
        srt.insert(0, 200, 0, 100)
        assert srt.lookup(0, 200) == (0, 100)
        assert srt.lookup(0, 100) is None
        assert srt.hits == 1 and srt.misses == 1

    def test_lru_eviction(self):
        srt = SynonymRemapTable(capacity=2)
        srt.insert(0, 1, 0, 100)
        srt.insert(0, 2, 0, 100)
        srt.lookup(0, 1)
        srt.insert(0, 3, 0, 100)  # evicts (0, 2)
        assert srt.lookup(0, 2) is None
        assert srt.lookup(0, 1) is not None
        assert len(srt) == 2

    def test_invalidate_leading_drops_all_sources(self):
        srt = SynonymRemapTable(capacity=8)
        srt.insert(0, 1, 0, 100)
        srt.insert(0, 2, 0, 100)
        srt.insert(0, 3, 0, 999)
        assert srt.invalidate_leading(0, 100) == 2
        assert srt.lookup(0, 3) == (0, 999)
        assert len(srt) == 1

    def test_invalidate_source(self):
        srt = SynonymRemapTable(capacity=8)
        srt.insert(0, 1, 0, 100)
        assert srt.invalidate(0, 1) is True
        assert srt.invalidate(0, 1) is False

    def test_self_mapping_rejected(self):
        srt = SynonymRemapTable()
        with pytest.raises(ValueError):
            srt.insert(0, 5, 0, 5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SynonymRemapTable(capacity=0)


class TestHierarchyWithSRT:
    def setup_synonyms(self, small_config, enable):
        space = AddressSpace(asid=0)
        m = space.mmap(2, permissions=Permissions.READ_ONLY)
        syn = space.map_synonym(m)
        h = VirtualCacheHierarchy(small_config, {0: space.page_table},
                                  enable_synonym_remapping=enable)
        return h, space, m, syn

    def read(self, h, cu, va, now):
        return h.access(cu, line_address(va), False, now)

    def test_repeated_synonym_accesses_without_srt_replay_every_time(
            self, small_config):
        h, space, m, syn = self.setup_synonyms(small_config, enable=False)
        t = self.read(h, 0, m.base_va, 0.0)
        for _ in range(5):
            t = self.read(h, 0, syn.base_va, t)
        assert h.counters["vc.synonym_replays"] == 5

    def test_srt_converts_synonym_accesses_to_cache_hits(self, small_config):
        h, space, m, syn = self.setup_synonyms(small_config, enable=True)
        t = self.read(h, 0, m.base_va, 0.0)
        for _ in range(5):
            t = self.read(h, 0, syn.base_va, t)
        # One replay to learn the remapping; the rest are L1 hits.
        assert h.counters["vc.synonym_replays"] == 1
        assert h.counters["vc.srt_remaps"] == 4
        assert h.counters["vc.l1_hits"] >= 4

    def test_srt_is_per_cu(self, small_config):
        h, space, m, syn = self.setup_synonyms(small_config, enable=True)
        t = self.read(h, 0, m.base_va, 0.0)
        t = self.read(h, 0, syn.base_va, t)   # CU0 learns
        t = self.read(h, 1, syn.base_va, t)   # CU1 must learn separately
        assert h.counters["vc.synonym_replays"] == 2

    def test_shootdown_drops_remappings(self, small_config):
        h, space, m, syn = self.setup_synonyms(small_config, enable=True)
        t = self.read(h, 0, m.base_va, 0.0)
        t = self.read(h, 0, syn.base_va, t)
        assert len(h.srts[0]) == 1
        h.shootdown(0, page_number(m.base_va), t)
        assert len(h.srts[0]) == 0

    def test_shootdown_of_synonym_source_drops_its_remapping(self, small_config):
        h, space, m, syn = self.setup_synonyms(small_config, enable=True)
        t = self.read(h, 0, m.base_va, 0.0)
        t = self.read(h, 0, syn.base_va, t)
        # Shooting down the *source* page filters at the FT (no leading
        # entry) but must still clear its SRT remapping.
        assert h.shootdown(0, page_number(syn.base_va), t) is False
        assert len(h.srts[0]) == 0

    def test_disabled_by_default(self, small_config):
        space = AddressSpace(asid=0)
        h = VirtualCacheHierarchy(small_config, {0: space.page_table})
        assert h.srts is None
