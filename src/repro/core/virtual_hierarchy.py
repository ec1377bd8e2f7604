"""The proposed GPU virtual cache hierarchy (Figure 6).

Both the per-CU L1s and the shared L2 are indexed and tagged by virtual
addresses; per-CU TLBs are gone.  A request reaches address translation
only when it misses the *entire* cache hierarchy, so the hierarchy acts
as a bandwidth filter in front of the shared IOMMU TLB.  The
forward-backward table in the IOMMU keeps execution correct for
synonyms, shootdowns, and physically-addressed coherence — and in the
"With OPT" configuration doubles as a second-level TLB.

Cache keys are ASID-qualified virtual line addresses, which is how the
design handles homonyms (§4.3: "each cache line needs to track the
corresponding ASID information", avoiding flushes on context switches).

Hot-path note: :meth:`VirtualCacheHierarchy.access` runs once per
coalesced request.  Event counts are accumulated in plain integer
attributes and flushed into the :class:`~repro.engine.stats.Counters`
bag only when ``counters`` is read (every read flushes, so mid-run
inspection still sees exact values); the ASID-qualification of line and
page keys is inlined rather than routed through :func:`line_key`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.fbt import ForwardBackwardTable, InvalidationOrder
from repro.core.invalidation_filter import InvalidationFilter
from repro.core.synonym_remap import SynonymRemapTable
from repro.engine.resources import BankedServer
from repro.engine.stats import Counters
from repro.memsys.cache import Cache, CacheLine
from repro.memsys.directory import CoherenceProbe
from repro.memsys.dram import DRAM
from repro.memsys.iommu import IOMMU
from repro.memsys.addressing import lines_per_page
from repro.memsys.page_table import PageTable
from repro.memsys.permissions import PermissionFault, Permissions
from repro.system.config import SoCConfig

# Virtual line/page keys are ASID-qualified so distinct address spaces
# never alias in the caches (homonym safety).

__all__ = ["VirtualCacheHierarchy", "line_key", "page_key", "split_page_key"]

_ASID_SHIFT = 52


def line_key(asid: int, virtual_line: int) -> int:
    """ASID-qualified virtual line address used as the cache key."""
    return (asid << _ASID_SHIFT) | virtual_line


def page_key(asid: int, vpn: int) -> int:
    """ASID-qualified virtual page number used for page-level tracking."""
    return (asid << _ASID_SHIFT) | vpn


def split_page_key(key: int) -> Tuple[int, int]:
    """Inverse of :func:`page_key`."""
    return key >> _ASID_SHIFT, key & ((1 << _ASID_SHIFT) - 1)


class VirtualCacheHierarchy:
    """Whole-hierarchy (L1 + L2) virtual caching with an FBT."""

    # The FBT detects pages remapped without an explicit shootdown on the
    # next translation (``fbt.stale_remaps``), so silent-remap fault
    # injection is a meaningful event for this hierarchy only.
    handles_stale_remap = True

    def __init__(
        self,
        config: SoCConfig,
        page_tables: Dict[int, PageTable],
        fbt_as_second_level_tlb: bool = True,
        fault_on_rw_synonym: bool = True,
        use_invalidation_filters: bool = True,
        large_page_policy: str = "subpage",
        enable_synonym_remapping: bool = False,
        srt_entries: int = 32,
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
        # Per-access scalar latencies, hoisted out of the (frozen)
        # config's nested dataclasses for the access fast path.
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._l1_to_l2 = config.interconnect.l1_to_l2
        # Deferred hot-path event counts (flushed via the ``counters``
        # property; only nonzero counts materialize, matching the
        # key-presence semantics of per-event ``Counters.add``).
        # ``vc.accesses`` is not counted per access: every access makes
        # exactly one L1 probe (synonym replays re-probe only the L2),
        # so it is derived at flush time from the L1s' hit/miss totals.
        self._n_srt_remaps = 0
        self._n_l1_hits = 0
        self._n_l2_hits = 0
        self._n_l2_misses = 0
        self._n_synonym_replays = 0
        self._n_l2_writebacks = 0
        self._n_invalidations = 0
        self._n_l1_flushes = 0
        # Ablation knob: without the per-L1 filters (§4.2), every page
        # invalidation must conservatively flush every L1.
        self.use_invalidation_filters = use_invalidation_filters

        self.l1s: List[Cache] = [
            Cache(config.l1, name=f"cu{i}-vl1") for i in range(config.n_cus)
        ]
        self.filters: List[InvalidationFilter] = [
            InvalidationFilter(name=f"cu{i}-filter") for i in range(config.n_cus)
        ]
        self.l2 = Cache(config.l2, name="vl2")
        self.l2_banks = BankedServer(config.l2.n_banks)
        self.dram = DRAM(
            latency_cycles=config.dram_latency,
            bandwidth_gbps=config.dram_bandwidth_gbps,
            frequency_ghz=config.frequency_ghz,
            line_size=config.line_size,
        )
        self.fbt = ForwardBackwardTable(
            n_entries=config.fbt_entries,
            associativity=config.fbt_associativity,
            lines_per_page=self._lpp,
            fault_on_rw_synonym=fault_on_rw_synonym,
            large_page_policy=large_page_policy,
        )
        self.fbt_as_second_level_tlb = fbt_as_second_level_tlb
        self.iommu = IOMMU(
            config.iommu,
            page_tables,
            frequency_ghz=config.frequency_ghz,
            second_level=self.fbt if fbt_as_second_level_tlb else None,
            obs=obs,
        )
        if obs is not None:
            self.l2_banks.attach_delay_histogram(
                obs.metrics.histogram("l2.bank_queue_delay"))
        # Dynamic synonym remapping (§4.3): optional per-CU tables that
        # redirect known synonym pages to their leading address before
        # the L1 lookup.
        self.enable_synonym_remapping = enable_synonym_remapping
        self.srts: Optional[List[SynonymRemapTable]] = None
        if enable_synonym_remapping:
            self.srts = [SynonymRemapTable(srt_entries, name=f"cu{i}-srt")
                         for i in range(config.n_cus)]
        if obs is None:
            # Uninstrumented build: shadow the access method with the
            # closure-compiled fast path (bit-identical; see fastpath).
            from repro.system.fastpath import compile_virtual_access

            self.access = compile_virtual_access(self)

    # -- counters ---------------------------------------------------------
    @property
    def counters(self) -> Counters:
        """The hierarchy's counter bag, with pending hot-path deltas flushed."""
        self._flush_counters()
        return self._counters

    def _flush_counters(self) -> None:
        counters = self._counters
        probes = sum(l1.hits + l1.misses for l1 in self.l1s)
        if probes:
            counters.set("vc.accesses", probes)
        if self._n_srt_remaps:
            counters.add("vc.srt_remaps", self._n_srt_remaps)
            self._n_srt_remaps = 0
        if self._n_l1_hits:
            counters.add("vc.l1_hits", self._n_l1_hits)
            self._n_l1_hits = 0
        if self._n_l2_hits:
            counters.add("vc.l2_hits", self._n_l2_hits)
            self._n_l2_hits = 0
        if self._n_l2_misses:
            counters.add("vc.l2_misses", self._n_l2_misses)
            self._n_l2_misses = 0
        if self._n_synonym_replays:
            counters.add("vc.synonym_replays", self._n_synonym_replays)
            self._n_synonym_replays = 0
        if self._n_l2_writebacks:
            counters.add("vc.l2_writebacks", self._n_l2_writebacks)
            self._n_l2_writebacks = 0
        if self._n_invalidations:
            counters.add("vc.invalidations", self._n_invalidations)
            self._n_invalidations = 0
        if self._n_l1_flushes:
            counters.add("vc.l1_flushes", self._n_l1_flushes)
            self._n_l1_flushes = 0

    # -- the access path --------------------------------------------------
    def access(
        self, cu_id: int, vline: int, is_write: bool, now: float, asid: int = 0
    ) -> float:
        """Service one coalesced request; return its completion time.

        ``vline`` is the request's virtual line address.  Reads complete
        when data arrives; writes are posted (complete at L1-write time)
        but still exercise the L2/translation machinery at the correct
        simulated times.
        """
        lpp = self._lpp
        vpn = vline // lpp
        line_index = vline % lpp

        timeline = self._timeline
        if timeline is not None:
            timeline.record("vc.accesses", now)
        if self.srts is not None:
            # Dynamic synonym remapping: redirect known synonym pages to
            # their leading address before the L1 lookup (one extra
            # cycle, subsumed by the L1 access latency here).
            remap = self.srts[cu_id].lookup(asid, vpn)
            if remap is not None:
                asid, vpn = remap
                vline = vpn * lpp + line_index
                self._n_srt_remaps += 1
        key = (asid << _ASID_SHIFT) | vline
        # Inlined Cache.lookup for the virtual L1 (and the L2 below):
        # set select is a bitmask, a hit is a dict probe + LRU refresh.
        l1 = self.l1s[cu_id]
        l1_set = l1._sets[key & l1._set_mask]
        line = l1_set.get(key)
        if line is not None:
            l1_set.move_to_end(key)
            l1.hits += 1
            if not line.permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, line.permissions)
            self._n_l1_hits += 1
            if timeline is not None:
                timeline.record("vc.l1_hits", now)
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.emit("vc.l1_hit", now, cu=cu_id, vpn=vpn)
            if is_write:
                # Write-through: the write still flows to the L2 and the
                # store occupies the CU window until it lands there.
                return self._l2_write(cu_id, asid, vpn, vline, line_index,
                                      now + self._l1_latency)
            return now + self._l1_latency
        l1.misses += 1

        # L1 miss → virtual L2.  (bank_of returns an in-range index, so
        # the bank's server is addressed directly.)
        t_l2 = now + self._l1_latency + self._l1_to_l2
        l2 = self.l2
        start = self.l2_banks.banks[l2.bank_of(key)].request(t_l2)
        t_hit = start + self._l2_latency
        l2_set = l2._sets[key & l2._set_mask]
        l2_line = l2_set.get(key)
        if l2_line is not None:
            l2_set.move_to_end(key)
            l2.hits += 1
            if not l2_line.permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, l2_line.permissions)
            self._n_l2_hits += 1
            if timeline is not None:
                timeline.record("vc.l2_hits", t_hit)
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.emit("vc.l2_hit", t_hit, cu=cu_id, vpn=vpn)
            if is_write:
                l2_line.dirty = True
                self.fbt.note_write(asid, vpn)
                return t_hit
            self._fill_l1(cu_id, asid, vpn, key, l2_line.permissions)
            return t_hit + self._l1_to_l2
        l2.misses += 1

        # Whole-hierarchy miss → translation is finally needed.
        self._n_l2_misses += 1
        if timeline is not None:
            timeline.record("vc.l2_misses", t_hit)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.emit("vc.miss", t_hit, cu=cu_id, vpn=vpn)
        return self._miss_path(
            cu_id, asid, vpn, vline, line_index, is_write, t_hit
        )

    def _l2_write(
        self,
        cu_id: int,
        asid: int,
        vpn: int,
        vline: int,
        line_index: int,
        now: float,
    ) -> float:
        """Write-through from an L1 write hit: update/allocate in the L2."""
        key = (asid << _ASID_SHIFT) | vline
        t_l2 = now + self._l1_to_l2
        l2 = self.l2
        start = self.l2_banks.banks[l2.bank_of(key)].request(t_l2)
        l2_set = l2._sets[key & l2._set_mask]
        line = l2_set.get(key)
        if line is not None:
            l2_set.move_to_end(key)
            l2.hits += 1
            line.dirty = True
            self.fbt.note_write(asid, vpn)
            return start + self._l2_latency
        l2.misses += 1
        # Non-inclusive hierarchy: the L1 held the line but the L2 did
        # not.  The write allocates in the write-back L2, which needs an
        # FBT consultation (translation) to keep inclusion tracking.
        return self._miss_path(cu_id, asid, vpn, vline, line_index, True,
                               start + self._l2_latency, fill_l1=False)

    def _miss_path(
        self,
        cu_id: int,
        asid: int,
        vpn: int,
        vline: int,
        line_index: int,
        is_write: bool,
        now: float,
        fill_l1: bool = True,
    ) -> float:
        """Translate, consult the FBT, and fetch on a whole-hierarchy miss."""
        cfg = self.config
        t_iommu = now + cfg.interconnect.gpu_to_iommu
        outcome = self.iommu.translate(vpn, t_iommu, asid=asid)
        if not outcome.permissions._value_ & (2 if is_write else 1):
            raise PermissionFault(vpn, is_write, outcome.permissions)

        t_fbt = outcome.finish + cfg.interconnect.l2_to_fbt + cfg.interconnect.fbt_lookup
        if self._timeline is not None:
            self._timeline.record("fbt.lookups", t_fbt)
        check = self.fbt.check_access(
            asid, vpn, outcome.ppn, outcome.permissions, line_index, is_write,
            is_large=outcome.is_large,
            large_base_vpn=outcome.large_base_vpn,
            large_base_ppn=outcome.large_base_ppn,
        )
        for order in check.invalidations:
            self._execute_invalidation(order, t_fbt)

        if check.status == "synonym":
            return self._synonym_replay(
                cu_id, asid, vpn, check, outcome.ppn, line_index, is_write,
                t_fbt, fill_l1,
            )

        # Leading (or brand-new leading) access: place the data under
        # the requested — leading — virtual address.  Writes allocate in
        # the write-back L2 without a memory fetch (full-line store);
        # reads fetch the line from DRAM first.
        if is_write:
            self._fill_l2(asid, vpn, line_index, outcome.ppn, True,
                          outcome.permissions, t_fbt)
            return t_fbt + cfg.interconnect.l1_to_l2
        t_mem = self.dram.access_line(t_fbt)
        self._fill_l2(asid, vpn, line_index, outcome.ppn, False, outcome.permissions, t_mem)
        if fill_l1:
            self._fill_l1(cu_id, asid, vpn, (asid << _ASID_SHIFT) | vline,
                          outcome.permissions)
        return t_mem + cfg.interconnect.l1_to_l2

    def _synonym_replay(
        self,
        cu_id: int,
        asid: int,
        vpn: int,
        check,
        ppn: int,
        line_index: int,
        is_write: bool,
        now: float,
        fill_l1: bool,
    ) -> float:
        """Replay a synonym access with the page's leading virtual address."""
        cfg = self.config
        self._n_synonym_replays += 1
        if self.srts is not None:
            # Learn the remapping so this CU's future accesses through
            # the synonym page hit the caches directly.
            self.srts[cu_id].insert(asid, vpn, check.leading_asid,
                                    check.leading_vpn)
        lead_vline = check.leading_vpn * self._lpp + line_index
        lead_key = (check.leading_asid << _ASID_SHIFT) | lead_vline
        t_replay = now + cfg.interconnect.l2_to_fbt  # back to the L2

        if check.replay_hits_l2:
            start = self.l2_banks.banks[self.l2.bank_of(lead_key)].request(t_replay)
            t_hit = start + cfg.l2_latency
            line = self.l2.lookup(lead_key)
            if line is None:
                if check.entry.tracking != "counter":
                    raise RuntimeError(
                        "BT bit vector said the replay would hit, but the L2 "
                        "does not hold the leading line — inclusion broken"
                    )
                # Counter-mode entries are conservative: "some line of
                # the large page is cached" does not pin down this one.
                # Fall through to the memory fetch below.
                t_replay = t_hit
            else:
                if is_write:
                    self.l2.mark_dirty(lead_key)
                elif fill_l1:
                    self._fill_l1(cu_id, check.leading_asid, check.leading_vpn,
                                  lead_key, line.permissions)
                return t_hit + cfg.interconnect.l1_to_l2

        # Bit clear: writes allocate directly; reads fetch from memory.
        # Either way the data is cached under the leading address.
        if is_write:
            self._fill_l2(check.leading_asid, check.leading_vpn, line_index, ppn,
                          True, check.entry.permissions, t_replay)
            return t_replay + cfg.interconnect.l1_to_l2
        t_mem = self.dram.access_line(t_replay)
        self._fill_l2(check.leading_asid, check.leading_vpn, line_index, ppn,
                      False, check.entry.permissions, t_mem)
        if fill_l1:
            self._fill_l1(cu_id, check.leading_asid, check.leading_vpn, lead_key,
                          check.entry.permissions)
        return t_mem + cfg.interconnect.l1_to_l2

    # -- fills -------------------------------------------------------------
    # Both fills inline ``Cache.insert`` and *recycle* the evicted victim
    # line in place of allocating a fresh CacheLine: same field values,
    # same LRU/dict ordering, one allocation less per fill.  They run on
    # every L2 read hit (L1 fill) and every whole-hierarchy miss (L2
    # fill), which makes them the hottest allocation sites of the VC.

    def _fill_l1(
        self, cu_id: int, asid: int, vpn: int, key: int, permissions: Permissions
    ) -> None:
        l1 = self.l1s[cu_id]
        cache_set = l1._sets[key & l1._set_mask]
        pkey = (asid << _ASID_SHIFT) | vpn
        fltr = self.filters[cu_id]
        existing = cache_set.get(key)
        if existing is not None:
            # A synonym replay can refill a leading line that is already
            # resident (the original probe used the synonym key); the
            # filter counted it when it was filled.
            existing.permissions = permissions
            cache_set.move_to_end(key)
            return
        if len(cache_set) >= l1._associativity:
            _, victim = cache_set.popitem(last=False)
            victim_page = victim.page
            if victim_page is not None:
                l1._forget_page_line(victim)
                fltr.on_evict(victim_page >> _ASID_SHIFT,
                              victim_page & ((1 << _ASID_SHIFT) - 1))
            victim.line_addr = key
            victim.dirty = False
            victim.permissions = permissions
            victim.page = pkey
            cache_set[key] = victim
        else:
            cache_set[key] = CacheLine(key, False, permissions, pkey)
            l1._n_resident += 1
        page_lines = l1._page_lines
        page_lines[pkey] = page_lines.get(pkey, 0) + 1
        fltr.on_fill(asid, vpn)

    def _fill_l2(
        self,
        asid: int,
        vpn: int,
        line_index: int,
        ppn: int,
        dirty: bool,
        permissions: Permissions,
        now: float,
    ) -> None:
        lpp = self._lpp
        key = (asid << _ASID_SHIFT) | (vpn * lpp + line_index)
        pkey = (asid << _ASID_SHIFT) | vpn
        l2 = self.l2
        cache_set = l2._sets[key & l2._set_mask]
        existing = cache_set.get(key)
        if existing is not None:
            # Refill of a resident line: refresh LRU, merge the dirty
            # bit (write-back cache), no victim.
            existing.dirty = existing.dirty or dirty
            existing.permissions = permissions
            cache_set.move_to_end(key)
        else:
            if len(cache_set) >= l2._associativity:
                _, victim = cache_set.popitem(last=False)
                if victim.dirty:
                    self.dram.access_line(now)  # write-back traffic
                    self._n_l2_writebacks += 1
                victim_page = victim.page
                if victim_page is not None:
                    l2._forget_page_line(victim)
                    self.fbt.note_l2_eviction(
                        victim_page >> _ASID_SHIFT,
                        victim_page & ((1 << _ASID_SHIFT) - 1),
                        victim.line_addr % lpp)
                victim.line_addr = key
                victim.dirty = dirty
                victim.permissions = permissions
                victim.page = pkey
                cache_set[key] = victim
            else:
                cache_set[key] = CacheLine(key, dirty, permissions, pkey)
                l2._n_resident += 1
            page_lines = l2._page_lines
            page_lines[pkey] = page_lines.get(pkey, 0) + 1
        self.fbt.note_l2_fill(ppn, line_index)

    # -- invalidation machinery ---------------------------------------------
    def _execute_invalidation(self, order: InvalidationOrder, now: float) -> None:
        """Carry out an FBT-entry eviction / shootdown invalidation (§4.2)."""
        if order.walk_l2:
            # Counter-mode (large page) invalidation: walk every subpage.
            dropped = []
            for subpage in range(order.n_subpages):
                pkey = page_key(order.asid, order.leading_vpn + subpage)
                dropped.extend(self.l2.invalidate_page(pkey))
        else:
            dropped = []
            base = order.leading_vpn * self._lpp
            for idx in order.line_indices:
                line = self.l2.invalidate_line(line_key(order.asid, base + idx))
                if line is not None:
                    dropped.append(line)
        for line in dropped:
            if line.dirty:
                self.dram.access_line(now)
                self._n_l2_writebacks += 1
        self._n_invalidations += 1

        # Non-inclusive L1s: consult each CU's invalidation filter; a hit
        # conservatively flushes that whole (clean, write-through) L1.
        timeline = self._timeline
        for cu_id, fltr in enumerate(self.filters):
            flush = not self.use_invalidation_filters
            if not flush:
                flush = any(
                    fltr.might_hold(order.asid, order.leading_vpn + subpage)
                    for subpage in range(order.n_subpages)
                )
            if timeline is not None:
                timeline.record("filter.checks", now)
                if not flush:
                    # The invalidation filter proved this L1 clean of
                    # the page, saving a conservative whole-L1 flush.
                    timeline.record("filter.filtered", now)
            if flush:
                self.l1s[cu_id].invalidate_all()
                fltr.clear()
                self._n_l1_flushes += 1
        if self.srts is not None:
            # Stale remappings to the dead leading page must go too.
            for srt in self.srts:
                srt.invalidate_leading(order.asid, order.leading_vpn)

    # -- software-visible operations ------------------------------------------
    def shootdown(self, asid: int, vpn: int, now: float = 0.0) -> bool:
        """Single-entry TLB shootdown: drop the translation and cached data.

        Returns True when data had to be invalidated (the FT did not
        filter the request).
        """
        self.iommu.invalidate(vpn, asid)
        if self.srts is not None:
            # The shot-down page may be a synonym *source*: its own
            # remapping is stale even when the FT filters the request
            # (non-leading pages have no FT entry).
            for srt in self.srts:
                srt.invalidate(asid, vpn)
        order = self.fbt.shootdown(asid, vpn)
        if order is None:
            return False
        self._execute_invalidation(order, now)
        return True

    def shootdown_all(self, now: float = 0.0) -> int:
        """All-entry shootdown: flush every cached translation and page."""
        self.iommu.invalidate_all()
        orders = self.fbt.shootdown_all()
        for order in orders:
            self._execute_invalidation(order, now)
        return len(orders)

    def handle_probe(self, probe: CoherenceProbe, now: float = 0.0) -> CoherenceProbe:
        """Service a physically-addressed coherence probe from the directory."""
        reverse = self.fbt.reverse_translate_probe(probe.physical_line)
        if reverse is None:
            probe.filtered = True
            return probe
        probe.filtered = False
        asid, virtual_line, line_index, l2_has_line = reverse
        probe.forwarded_virtual_line = virtual_line
        if l2_has_line:
            line = self.l2.invalidate_line(line_key(asid, virtual_line))
            if line is not None:
                if line.dirty:
                    self.dram.access_line(now)
                self.fbt.note_l2_eviction(asid, virtual_line // self._lpp, line_index)
        vpn = virtual_line // self._lpp
        for cu_id, fltr in enumerate(self.filters):
            if fltr.might_hold(asid, vpn):
                self.l1s[cu_id].invalidate_all()
                fltr.clear()
                self._n_l1_flushes += 1
        return probe

    def finish(self, now: float) -> None:
        """End-of-run hook: flush deferred counters into the bag."""
        self._flush_counters()
