"""The forward-backward table (FBT).

The FBT is the one new structure the proposal adds to the IOMMU
(Figures 6 and 7).  It is fully inclusive — at page granularity — of the
GPU's virtual caches: every page with data anywhere in the hierarchy has
a BT entry, created on the L2 miss that first fetched the page's data.
It provides, without OS involvement:

* **synonym detection and management** (§4.1): only the page's unique
  *leading* virtual address may place and look up its data, so a miss
  whose translation lands on a PPN with a different leading VPN is a
  synonym — replayed with the leading address (and only when the line
  bit says the replay will hit);
* **read-write synonym faulting** (§4.2): GPUs lack precise exceptions,
  so a synonym access involving writes conservatively faults;
* **reverse translation** for physically-addressed coherence probes,
  plus probe *filtering* when the GPU caches nothing from the page;
* **TLB shootdown** handling, filtered through the FT;
* a **second-level TLB** (the "With OPT" design): the FT knows the
  leading VPN → BT entry mapping and the BT entry knows the PPN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.backward_table import BackwardTable, BTEntry
from repro.core.forward_table import ForwardTable
from repro.engine.stats import Counters
from repro.memsys.permissions import Permissions, ReadWriteSynonymFault


__all__ = ["AccessCheck", "ForwardBackwardTable", "InvalidationOrder"]


@dataclass
class InvalidationOrder:
    """Work the hierarchy must do when a page leaves the FBT.

    ``line_indices`` lists the L2 lines to invalidate selectively (from
    the bit vector); ``walk_l2`` is set instead for counter-mode (large
    page) entries, where the L2 must be walked.  The L1 side is always a
    filter check per CU followed by a full L1 flush on a filter hit.
    """

    asid: int
    leading_vpn: int
    reason: str  # "bt_eviction" | "shootdown" | "flush" | "stale_remap"
    line_indices: List[int] = field(default_factory=list)
    walk_l2: bool = False
    # Counter-mode (2 MB) entries cover many 4 KB subpages.
    n_subpages: int = 1


@dataclass
class AccessCheck:
    """Outcome of the FBT consultation on an L2 virtual-cache miss."""

    status: str  # "new_leading" | "leading" | "synonym"
    entry: BTEntry
    leading_asid: int
    leading_vpn: int
    # For synonyms: will the replay with the leading address hit in L2?
    replay_hits_l2: bool = False
    # Pages whose cached data must be invalidated before this access
    # proceeds: BT set-conflict victims, and stale leading entries when a
    # virtual page was remapped without an explicit shootdown.
    invalidations: List[InvalidationOrder] = field(default_factory=list)


class ForwardBackwardTable:
    """BT + FT with the paper's management operations."""

    SUBPAGE_POLICY = "subpage"
    COUNTER_POLICY = "counter"

    def __init__(
        self,
        n_entries: int = 16384,
        associativity: int = 8,
        lines_per_page: int = 32,
        fault_on_rw_synonym: bool = True,
        large_page_policy: str = SUBPAGE_POLICY,
    ) -> None:
        if large_page_policy not in (self.SUBPAGE_POLICY, self.COUNTER_POLICY):
            raise ValueError(f"unknown large-page policy {large_page_policy!r}")
        self.bt = BackwardTable(n_entries=n_entries, associativity=associativity)
        self.ft = ForwardTable()
        self.lines_per_page = lines_per_page
        self.fault_on_rw_synonym = fault_on_rw_synonym
        # §4.3 "Large Page Support": 'subpage' (the optimization — treat
        # each accessed 4 KB subpage as its own bit-vector entry, no
        # preallocation) or 'counter' (one counter-mode entry covering
        # the whole 2 MB page; invalidation walks the cache).
        self.large_page_policy = large_page_policy
        self.counters = Counters()

    # -- large pages --------------------------------------------------------
    def _counter_base(self, ppn: int) -> int:
        from repro.memsys.addressing import BASE_PAGES_PER_LARGE
        return ppn - ppn % BASE_PAGES_PER_LARGE

    # -- the L2-miss path -------------------------------------------------
    def check_access(
        self,
        asid: int,
        vpn: int,
        ppn: int,
        permissions: Permissions,
        line_index: int,
        is_write: bool,
        is_large: bool = False,
        large_base_vpn: int = 0,
        large_base_ppn: int = 0,
    ) -> AccessCheck:
        """Consult the BT after translating an L2 virtual-cache miss.

        Decides whether the access is to a brand-new page (allocate an
        entry; the given VPN becomes the leading VPN), to the page's
        leading address, or a synonym.  Raises
        :class:`ReadWriteSynonymFault` per §4.2 when a synonym access
        involves written data and faulting is enabled.

        Accesses within 2 MB mappings follow ``large_page_policy``: with
        the subpage optimization they are handled exactly like base
        pages (an FBT entry per *accessed* 4 KB subpage); in counter
        mode one counter entry covers the whole large page.
        """
        if is_large and self.large_page_policy == self.COUNTER_POLICY:
            return self._check_access_counter(
                asid, vpn, ppn, permissions, is_write,
                large_base_vpn, large_base_ppn,
            )
        entry = self.bt.lookup(ppn)
        if entry is None:
            return self._allocate(asid, vpn, ppn, permissions, is_write)

        if entry.leading_key == (asid, vpn):
            if is_write:
                entry.written = True
            return AccessCheck(
                status="leading",
                entry=entry,
                leading_asid=asid,
                leading_vpn=vpn,
            )

        # Synonym: data for this physical page lives (if anywhere) under
        # a different — leading — virtual address.
        self.counters.add("fbt.synonym_accesses")
        if self.fault_on_rw_synonym and (is_write or entry.written):
            self.counters.add("fbt.rw_synonym_faults")
            raise ReadWriteSynonymFault(ppn, entry.leading_vpn, vpn)
        if is_write:
            entry.written = True
        return AccessCheck(
            status="synonym",
            entry=entry,
            leading_asid=entry.leading_asid,
            leading_vpn=entry.leading_vpn,
            replay_hits_l2=entry.line_cached(line_index),
        )

    def _check_access_counter(
        self,
        asid: int,
        vpn: int,
        ppn: int,
        permissions: Permissions,
        is_write: bool,
        large_base_vpn: int,
        large_base_ppn: int,
    ) -> AccessCheck:
        """Counter-mode consultation: one entry per 2 MB page."""
        entry = self.bt.lookup(large_base_ppn)
        if entry is None:
            invalidations: List[InvalidationOrder] = []
            stale = self.ft.lookup(asid, large_base_vpn)
            if stale is not None:
                self.bt.remove(stale.ppn)
                self.ft.remove_entry(stale)
                invalidations.append(self._order_for(stale, reason="stale_remap"))
                self.counters.add("fbt.stale_remaps")
            entry, victim = self.bt.allocate(
                large_base_ppn, leading_asid=asid, leading_vpn=large_base_vpn,
                permissions=permissions, tracking="counter",
            )
            if victim is not None:
                self.ft.remove_entry(victim)
                invalidations.append(self._order_for(victim, reason="bt_eviction"))
                self.counters.add("fbt.evictions")
            self.ft.insert(entry)
            entry.written = is_write
            self.counters.add("fbt.allocations")
            self.counters.add("fbt.large_allocations")
            return AccessCheck(
                status="new_leading", entry=entry, leading_asid=asid,
                leading_vpn=large_base_vpn, invalidations=invalidations,
            )

        if entry.leading_key == (asid, large_base_vpn):
            if is_write:
                entry.written = True
            return AccessCheck(status="leading", entry=entry,
                               leading_asid=asid, leading_vpn=large_base_vpn)

        self.counters.add("fbt.synonym_accesses")
        if self.fault_on_rw_synonym and (is_write or entry.written):
            self.counters.add("fbt.rw_synonym_faults")
            raise ReadWriteSynonymFault(large_base_ppn, entry.leading_vpn,
                                        large_base_vpn)
        if is_write:
            entry.written = True
        # The replay target keeps the subpage offset within the leading
        # large page.  Counter mode has no per-line residency knowledge,
        # so the replay is attempted conservatively (the hierarchy falls
        # back to a memory fetch when the L2 misses).
        effective_leading = entry.leading_vpn + (vpn - large_base_vpn)
        return AccessCheck(
            status="synonym", entry=entry,
            leading_asid=entry.leading_asid, leading_vpn=effective_leading,
            replay_hits_l2=entry.line_count > 0,
        )

    def _allocate(
        self, asid: int, vpn: int, ppn: int, permissions: Permissions, is_write: bool
    ) -> AccessCheck:
        invalidations: List[InvalidationOrder] = []

        # If this virtual page already leads a *different* physical page,
        # its translation changed underneath us (a remap whose shootdown
        # we are effectively observing now).  The stale entry — and any
        # data cached under the old mapping — must go first, or the new
        # fill would alias the old data.
        stale = self.ft.lookup(asid, vpn)
        if stale is not None:
            self.bt.remove(stale.ppn)
            self.ft.remove_entry(stale)
            invalidations.append(self._order_for(stale, reason="stale_remap"))
            self.counters.add("fbt.stale_remaps")

        entry, victim = self.bt.allocate(
            ppn, leading_asid=asid, leading_vpn=vpn, permissions=permissions
        )
        if victim is not None:
            self.ft.remove_entry(victim)
            invalidations.append(self._order_for(victim, reason="bt_eviction"))
            self.counters.add("fbt.evictions")
        self.ft.insert(entry)
        entry.written = is_write
        self.counters.add("fbt.allocations")
        return AccessCheck(
            status="new_leading",
            entry=entry,
            leading_asid=asid,
            leading_vpn=vpn,
            invalidations=invalidations,
        )

    # -- second-level TLB ("With OPT") --------------------------------------
    def forward_translate(
        self, asid: int, vpn: int
    ) -> Optional[Tuple[int, Permissions, bool, int, int]]:
        """Leading-page forward translation, for the IOMMU's L2-TLB use.

        Returns ``(ppn, permissions, is_large, large_base_vpn,
        large_base_ppn)``, the fields a page walk reports.  A
        counter-tracked entry covers a whole 2 MB page and leads from
        its base subpage, so a hit on it reports that large page: filed
        as a base page, the subpage would later be checked — and given
        a bit-vector entry — apart from its large page.
        """
        entry = self.ft.lookup(asid, vpn)
        if entry is None:
            return None
        if entry.tracking == "counter":
            return (entry.ppn, entry.permissions, True, entry.leading_vpn,
                    entry.ppn)
        return entry.ppn, entry.permissions, False, 0, 0

    # -- inclusion bookkeeping ----------------------------------------------
    def note_l2_fill(self, ppn: int, line_index: int) -> None:
        """A line of ``ppn`` was filled into the shared L2."""
        entry = self.bt.peek(ppn)
        if entry is None and self.large_page_policy == self.COUNTER_POLICY:
            entry = self.bt.peek(self._counter_base(ppn))
        if entry is None:
            raise RuntimeError(
                f"L2 fill for ppn {ppn:#x} with no BT entry — FBT inclusion broken"
            )
        entry.mark_line_cached(line_index)

    def _entry_by_leading(self, asid: int, leading_vpn: int):
        entry = self.ft.lookup(asid, leading_vpn)
        if entry is None and self.large_page_policy == self.COUNTER_POLICY:
            from repro.memsys.addressing import large_page_base_vpn
            entry = self.ft.lookup(asid, large_page_base_vpn(leading_vpn))
        return entry

    def note_l2_eviction(self, asid: int, leading_vpn: int, line_index: int) -> None:
        """A line left the L2; clear its bit via the forward table (§4.1)."""
        entry = self._entry_by_leading(asid, leading_vpn)
        if entry is None:
            # The page's entry was already evicted/shot down (which
            # invalidated the line in the caches first) — nothing to do.
            return
        entry.mark_line_evicted(line_index)

    def note_write(self, asid: int, leading_vpn: int) -> None:
        """A write-through to a cached page passed the IOMMU (footnote 5)."""
        entry = self._entry_by_leading(asid, leading_vpn)
        if entry is not None:
            entry.written = True

    # -- coherence ------------------------------------------------------------
    def reverse_translate_probe(
        self, physical_line: int
    ) -> Optional[Tuple[int, int, int, bool]]:
        """Reverse-translate a physically-addressed coherence probe.

        Returns ``None`` when the probe is filtered (the GPU caches
        nothing from the page), else ``(asid, virtual_line, line_index,
        l2_has_line)`` with the line re-homed under the leading VPN.
        """
        ppn = physical_line // self.lines_per_page
        line_index = physical_line % self.lines_per_page
        entry = self.bt.peek(ppn)
        subpage_offset = 0
        if entry is None and self.large_page_policy == self.COUNTER_POLICY:
            base = self._counter_base(ppn)
            entry = self.bt.peek(base)
            subpage_offset = ppn - base
        if entry is None:
            self.counters.add("fbt.probes_filtered")
            return None
        self.counters.add("fbt.probes_forwarded")
        virtual_line = ((entry.leading_vpn + subpage_offset) * self.lines_per_page
                        + line_index)
        return entry.leading_asid, virtual_line, line_index, entry.line_cached(line_index)

    def forward_response_translate(self, asid: int, virtual_line: int) -> Optional[int]:
        """Translate a cache response's leading-virtual line back to physical.

        Uses the FT (§4.1: "When the cache responds with a leading
        virtual address, it is translated to the matching physical
        address via the FT").
        """
        vpn = virtual_line // self.lines_per_page
        entry = self.ft.lookup(asid, vpn)
        if entry is None:
            return None
        return entry.ppn * self.lines_per_page + virtual_line % self.lines_per_page

    # -- shootdown ---------------------------------------------------------------
    def shootdown(self, asid: int, vpn: int) -> Optional[InvalidationOrder]:
        """Single-entry TLB shootdown for virtual page ``(asid, vpn)``.

        Returns the invalidation work, or ``None`` when the FT filters
        the request (no data from the page is cached).  A shootdown of
        any subpage of a counter-tracked large page invalidates the
        whole large entry.
        """
        entry = self._entry_by_leading(asid, vpn)
        if entry is None:
            self.counters.add("fbt.shootdowns_filtered")
            return None
        entry.locked = True
        self.bt.remove(entry.ppn)
        self.ft.remove_entry(entry)
        self.counters.add("fbt.shootdowns")
        return self._order_for(entry, reason="shootdown")

    def shootdown_all(self) -> List[InvalidationOrder]:
        """All-entry shootdown: every cached page must be flushed (§4.1)."""
        orders = []
        for entry in self.bt.entries():
            self.bt.remove(entry.ppn)
            self.ft.remove_entry(entry)
            orders.append(self._order_for(entry, reason="flush"))
        self.counters.add("fbt.full_shootdowns")
        return orders

    def state_summary(self) -> str:
        """One-line occupancy summary for invariant-violation dumps."""
        entries = self.bt.entries()
        counter_entries = sum(1 for e in entries if e.tracking == "counter")
        return (f"FBT entries={len(entries)} (counter-mode {counter_entries}), "
                f"FT entries={len(self.ft)}, policy={self.large_page_policy}")

    def _order_for(self, entry: BTEntry, reason: str) -> InvalidationOrder:
        if entry.tracking == "bitvector":
            return InvalidationOrder(
                asid=entry.leading_asid,
                leading_vpn=entry.leading_vpn,
                reason=reason,
                line_indices=entry.cached_line_indices(self.lines_per_page),
            )
        from repro.memsys.addressing import BASE_PAGES_PER_LARGE
        return InvalidationOrder(
            asid=entry.leading_asid,
            leading_vpn=entry.leading_vpn,
            reason=reason,
            walk_l2=True,
            n_subpages=BASE_PAGES_PER_LARGE,
        )
