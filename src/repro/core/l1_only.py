"""L1-only virtual caching (§5.4, Figure 11).

This design virtualizes only the private L1s — the configuration most
CPU virtual-cache proposals correspond to.  The shared L2 stays
physically indexed, so translation (per-CU TLB, then the IOMMU) is
needed on every L1 *miss* and on every write-through.  L1 read hits are
the only accesses that skip translation, which is why the paper finds
whole-hierarchy virtual caching filters roughly twice the shared-TLB
traffic (31% vs 66% of private-TLB misses, Figure 2's black vs
black+red bars).

Synonym correctness at the L1 level is kept by an ASDT-style table
(after Yoon & Sohi [52], the design §4 builds on): one entry per
physical page with data in any L1, recording the unique leading virtual
page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.virtual_hierarchy import _ASID_SHIFT, page_key, split_page_key
from repro.engine.resources import BankedServer
from repro.engine.stats import Counters
from repro.memsys.addressing import lines_per_page
from repro.memsys.cache import Cache
from repro.memsys.dram import DRAM
from repro.memsys.iommu import IOMMU
from repro.memsys.page_table import PageTable
from repro.memsys.permissions import PermissionFault, ReadWriteSynonymFault
from repro.memsys.tlb import TLB
from repro.system.config import SoCConfig


__all__ = ["ASDT", "ASDTEntry", "L1OnlyVirtualHierarchy"]


@dataclass
class ASDTEntry:
    """Active-synonym-detection entry: one per physical page in the L1s."""

    ppn: int
    leading_asid: int
    leading_vpn: int
    resident_lines: int = 0
    written: bool = False


class ASDT:
    """Tracks the leading virtual page of every physical page in the L1s."""

    def __init__(self, fault_on_rw_synonym: bool = True) -> None:
        self._by_ppn: Dict[int, ASDTEntry] = {}
        self._by_leading: Dict[Tuple[int, int], int] = {}
        self.fault_on_rw_synonym = fault_on_rw_synonym
        self.synonym_accesses = 0

    def __len__(self) -> int:
        return len(self._by_ppn)

    def check(self, asid: int, vpn: int, ppn: int, is_write: bool) -> ASDTEntry:
        """Establish/verify the leading page for an L1 fill of ``ppn``."""
        entry = self._by_ppn.get(ppn)
        if entry is None:
            entry = ASDTEntry(ppn=ppn, leading_asid=asid, leading_vpn=vpn,
                              written=is_write)
            self._by_ppn[ppn] = entry
            self._by_leading[(asid, vpn)] = ppn
            return entry
        if (entry.leading_asid, entry.leading_vpn) != (asid, vpn):
            self.synonym_accesses += 1
            if self.fault_on_rw_synonym and (is_write or entry.written):
                raise ReadWriteSynonymFault(ppn, entry.leading_vpn, vpn)
        if is_write:
            entry.written = True
        return entry

    def note_write(self, asid: int, vpn: int, ppn: int) -> None:
        """A write-through to ``ppn`` passed by; mark tracked pages written.

        Writes to untracked pages are harmless (no stale data can be in
        the L1s) and do not allocate an entry — write-through L1s never
        hold a dirty copy.
        """
        entry = self._by_ppn.get(ppn)
        if entry is None:
            return
        if (entry.leading_asid, entry.leading_vpn) != (asid, vpn):
            self.synonym_accesses += 1
            if self.fault_on_rw_synonym:
                raise ReadWriteSynonymFault(ppn, entry.leading_vpn, vpn)
        entry.written = True

    def on_fill(self, ppn: int) -> None:
        entry = self._by_ppn.get(ppn)
        if entry is not None:
            entry.resident_lines += 1

    def on_evict(self, ppn: int) -> None:
        entry = self._by_ppn.get(ppn)
        if entry is None:
            return
        entry.resident_lines -= 1
        if entry.resident_lines <= 0:
            del self._by_ppn[ppn]
            self._by_leading.pop((entry.leading_asid, entry.leading_vpn), None)

    def leading_of(self, ppn: int) -> Optional[Tuple[int, int]]:
        entry = self._by_ppn.get(ppn)
        if entry is None:
            return None
        return entry.leading_asid, entry.leading_vpn

    def ppn_of_leading(self, asid: int, vpn: int) -> Optional[int]:
        """Reverse index: the PPN led by ``(asid, vpn)``, if tracked."""
        return self._by_leading.get((asid, vpn))

    def entries(self) -> List[ASDTEntry]:
        """Stat-free snapshot of the live entries, for invariant audits."""
        return list(self._by_ppn.values())

    def clear(self) -> None:
        """Drop all tracking (after a full L1 flush)."""
        self._by_ppn.clear()
        self._by_leading.clear()


class L1OnlyVirtualHierarchy:
    """Virtual L1s over a physical L2, with per-CU TLBs on L1 misses."""

    def __init__(
        self,
        config: SoCConfig,
        page_tables: Dict[int, PageTable],
        fault_on_rw_synonym: bool = True,
        obs=None,
    ) -> None:
        self.config = config
        self._counters = Counters()
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        # Windowed time series (obs.metrics.timeline); None unless the
        # caller enabled a timeline before building the hierarchy.
        self._timeline = obs.metrics.timeline if obs is not None else None
        self._lpp = lines_per_page(config.line_size)
        # Deferred hot-path event counts (flushed via the ``counters``
        # property; only nonzero counts materialize, matching the
        # key-presence semantics of per-event ``Counters.add``).
        self._n_accesses = 0
        self._n_l1_hits = 0
        self._n_synonym_replays = 0
        self._n_tlb_accesses = 0
        self._n_tlb_misses = 0
        self._n_l2_hits = 0
        self._n_l2_writebacks = 0
        self.l1s: List[Cache] = [
            Cache(config.l1, name=f"cu{i}-vl1") for i in range(config.n_cus)
        ]
        self.per_cu_tlbs: List[TLB] = [
            TLB(capacity=config.per_cu_tlb_entries, name=f"cu{i}-tlb")
            for i in range(config.n_cus)
        ]
        self.l2 = Cache(config.l2, name="l2-physical")
        self.l2_banks = BankedServer(config.l2.n_banks)
        self.dram = DRAM(
            latency_cycles=config.dram_latency,
            bandwidth_gbps=config.dram_bandwidth_gbps,
            frequency_ghz=config.frequency_ghz,
            line_size=config.line_size,
        )
        self.iommu = IOMMU(config.iommu, page_tables,
                           frequency_ghz=config.frequency_ghz, obs=obs)
        self.asdt = ASDT(fault_on_rw_synonym=fault_on_rw_synonym)
        if obs is not None:
            self.l2_banks.attach_delay_histogram(
                obs.metrics.histogram("l2.bank_queue_delay"))

    # -- counters ---------------------------------------------------------
    @property
    def counters(self) -> Counters:
        """The hierarchy's counter bag, with pending hot-path deltas flushed."""
        self._flush_counters()
        return self._counters

    def _flush_counters(self) -> None:
        counters = self._counters
        if self._n_accesses:
            counters.add("vc.accesses", self._n_accesses)
            self._n_accesses = 0
        if self._n_l1_hits:
            counters.add("vc.l1_hits", self._n_l1_hits)
            self._n_l1_hits = 0
        if self._n_synonym_replays:
            counters.add("vc.synonym_replays", self._n_synonym_replays)
            self._n_synonym_replays = 0
        if self._n_tlb_accesses:
            counters.add("tlb.accesses", self._n_tlb_accesses)
            self._n_tlb_accesses = 0
        if self._n_tlb_misses:
            counters.add("tlb.misses", self._n_tlb_misses)
            self._n_tlb_misses = 0
        if self._n_l2_hits:
            counters.add("l2.hits", self._n_l2_hits)
            self._n_l2_hits = 0
        if self._n_l2_writebacks:
            counters.add("l2.writebacks", self._n_l2_writebacks)
            self._n_l2_writebacks = 0

    # -- translation (per-CU TLB → IOMMU) ----------------------------------
    def _translate(self, cu_id: int, vpn: int, now: float, asid: int):
        tlb = self.per_cu_tlbs[cu_id]
        self._n_tlb_accesses += 1
        if self._timeline is not None:
            self._timeline.record("tlb.probes", now)
        key = (asid << 52) | vpn
        # Inlined TLB.lookup (no lifetime tracker on per-CU TLBs): a
        # last-translation micro-memo tag compare, falling back to the
        # dict probe + LRU refresh, skipping the method dispatch.  The
        # memo hit skips the refresh safely: the memoized key is MRU.
        t = now + self.config.per_cu_tlb_latency
        tracer = self._tracer
        tracing = tracer is not None and tracer.enabled
        if key == tlb._memo_key:
            entry = tlb._memo_entry
        else:
            entries = tlb._entries
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                tlb._memo_key = key
                tlb._memo_entry = entry
        if entry is not None:
            tlb.hits += 1
            if tracing:
                tracer.emit("tlb.hit", t, cu=cu_id, vpn=vpn)
            return t, entry.ppn, entry.permissions
        tlb.misses += 1
        self._n_tlb_misses += 1
        if self._timeline is not None:
            self._timeline.record("tlb.misses", t)
        if tracing:
            tracer.emit("tlb.miss", t, cu=cu_id, vpn=vpn)
        request_at = t + self.config.interconnect.gpu_to_iommu
        outcome = self.iommu.translate(vpn, request_at, asid=asid)
        ready = outcome.finish + self.config.interconnect.iommu_to_gpu
        tlb.insert(key, outcome.ppn, outcome.permissions, ready)
        return ready, outcome.ppn, outcome.permissions

    # -- the access path ------------------------------------------------------
    def access(
        self, cu_id: int, vline: int, is_write: bool, now: float, asid: int = 0
    ) -> float:
        """Service one coalesced request; return its completion time.

        ``vline`` is the request's virtual line address.
        """
        cfg = self.config
        lpp = self._lpp
        vpn = vline // lpp
        line_index = vline % lpp
        l1 = self.l1s[cu_id]
        self._n_accesses += 1
        timeline = self._timeline
        if timeline is not None:
            timeline.record("vc.accesses", now)

        key = (asid << _ASID_SHIFT) | vline
        line = l1.lookup(key)
        if line is not None and not is_write:
            if not line.permissions._value_ & 1:
                raise PermissionFault(vpn, False, line.permissions)
            self._n_l1_hits += 1
            if timeline is not None:
                timeline.record("vc.l1_hits", now)
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.emit("vc.l1_hit", now, cu=cu_id, vpn=vpn)
            return now + cfg.l1_latency

        # Everything else needs a physical address: L1 read misses and
        # all writes (write-through to the physical L2).
        ready, ppn, permissions, *_ = self._translate(cu_id, vpn, now, asid)
        if not permissions._value_ & (2 if is_write else 1):
            raise PermissionFault(vpn, is_write, permissions)
        physical_line = ppn * lpp + line_index

        if is_write:
            if line is not None:
                self._n_l1_hits += 1
            self.asdt.note_write(asid, vpn, ppn)
            return self._l2_write(physical_line, ready + cfg.l1_latency)

        entry = self.asdt.check(asid, vpn, ppn, False)
        lead_key = ((entry.leading_asid << _ASID_SHIFT)
                    | (entry.leading_vpn * lpp + line_index))
        if lead_key != key:
            # Synonym: the data, if present, is cached under the leading
            # virtual address; replay there.
            self._n_synonym_replays += 1
            replayed = l1.lookup(lead_key)
            if replayed is not None:
                self._n_l1_hits += 1
                return ready + cfg.l1_latency
            key = lead_key
            asid, vpn = entry.leading_asid, entry.leading_vpn

        completion = self._l2_read(physical_line, ready)
        self._fill_l1(cu_id, asid, vpn, key, ppn, permissions)
        return completion

    def _l2_write(self, physical_line: int, now: float) -> float:
        cfg = self.config
        t_l2 = now + cfg.interconnect.l1_to_l2
        start = self.l2_banks.banks[self.l2.bank_of(physical_line)].request(t_l2)
        t_done = start + cfg.l2_latency
        if self.l2.lookup(physical_line) is not None:
            self.l2.mark_dirty(physical_line)
            return t_done
        victim = self.l2.insert(physical_line, dirty=True)
        if victim is not None and victim.dirty:
            self.dram.access_line(start)
            self._n_l2_writebacks += 1
        return t_done

    def _l2_read(self, physical_line: int, now: float) -> float:
        cfg = self.config
        t_l2 = now + cfg.l1_latency + cfg.interconnect.l1_to_l2
        start = self.l2_banks.banks[self.l2.bank_of(physical_line)].request(t_l2)
        t_hit = start + cfg.l2_latency
        if self.l2.lookup(physical_line) is not None:
            self._n_l2_hits += 1
            return t_hit + cfg.interconnect.l1_to_l2
        t_mem = self.dram.access_line(t_hit)
        victim = self.l2.insert(physical_line)
        if victim is not None and victim.dirty:
            self.dram.access_line(t_mem)
            self._n_l2_writebacks += 1
        return t_mem + cfg.interconnect.l1_to_l2

    def _fill_l1(
        self, cu_id: int, asid: int, vpn: int, key: int, ppn: int, permissions
    ) -> None:
        victim = self.l1s[cu_id].insert(key, permissions=permissions,
                                        page=page_key(asid, vpn))
        # Count the fill before the eviction: a victim from the same page
        # must not retire the page's entry while the new line is resident.
        self.asdt.on_fill(ppn)
        if victim is not None and victim.page is not None:
            v_asid, v_vpn = split_page_key(victim.page)
            victim_ppn = self.asdt.ppn_of_leading(v_asid, v_vpn)
            if victim_ppn is not None:
                self.asdt.on_evict(victim_ppn)

    # -- software-visible operations ----------------------------------------
    def shootdown(self, asid: int, vpn: int, now: float = 0.0) -> bool:
        """Single-entry TLB shootdown: drop the translation and L1 data.

        Only leading pages have data in the (virtual) L1s; shooting down
        a non-leading synonym page needs just the TLB invalidations —
        the data remains valid under its unchanged leading mapping.
        Returns True when cached data had to be invalidated.
        """
        key = (asid << _ASID_SHIFT) | vpn
        for tlb in self.per_cu_tlbs:
            tlb.invalidate(key, now)
        self.iommu.invalidate(vpn, asid)
        ppn = self.asdt.ppn_of_leading(asid, vpn)
        if ppn is None:
            return False
        pkey = page_key(asid, vpn)
        dropped = False
        for l1 in self.l1s:
            for _line in l1.invalidate_page(pkey):
                self.asdt.on_evict(ppn)
                dropped = True
        return dropped

    def shootdown_all(self, now: float = 0.0) -> int:
        """All-entry shootdown: flush every translation and virtual L1."""
        for tlb in self.per_cu_tlbs:
            tlb.invalidate_all(now)
        self.iommu.invalidate_all()
        flushed = len(self.asdt)
        for l1 in self.l1s:
            l1.invalidate_all()
        self.asdt.clear()
        return flushed

    def finish(self, now: float) -> None:
        """End-of-run hook: flush deferred counters into the bag."""
        self._flush_counters()
