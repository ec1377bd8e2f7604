"""Closure-compiled access paths for the memory hierarchies.

The simulate loop spends nearly all of its time inside
``hierarchy.access``; at the default scales that is hundreds of
thousands of Python-level attribute walks (``self.config.interconnect
.l1_to_l2`` and friends), method dispatches, and short-lived
:class:`~repro.memsys.cache.CacheLine` allocations.  This module
*compiles* each hierarchy's access path once at construction time into
a closure whose free variables are the hot structures themselves — the
per-CU TLB list, the raw cache sets, the L2 bank servers, the DRAM
link's bound ``request`` — and whose latencies are plain local floats.

Three rules keep the compiled path bit-identical to the method path
(the golden hot-path test pins every counter *and* the cycle count):

* counters are attributed in exactly the same order and on exactly the
  same events as the methods they replace;
* LRU state is touched identically (probe → ``move_to_end`` on hit,
  ``popitem(last=False)`` on eviction);
* evicted victim lines are *recycled* in place of allocating a fresh
  ``CacheLine`` — same field values, same dict ordering, one object
  allocation less per fill.

Every physical and full-VC hierarchy built without observability (and,
for the physical one, without lifetime tracking) installs its compiled
path, whatever its shape: L2 banks are selected by ``line % n_banks``,
which for a power-of-two count equals the bit slice (the sweep_warm
grid simulated no slower with it), so no build falls back to the
methods.  An instrumented build
keeps the plain methods, which remain the reference semantics the
differential harness (``tests/test_access_paths.py``) compares against.
L1-only VC has only its method path.
"""

from __future__ import annotations

from repro.core.fbt import AccessCheck, ReadWriteSynonymFault
from repro.memsys.addressing import large_page_base_vpn
from repro.memsys.cache import CacheLine
from repro.memsys.permissions import PageFault, PermissionFault, Permissions

__all__ = [
    "compile_physical_access",
    "compile_virtual_access",
]

_RW = Permissions.READ_WRITE


def _compile_dram_line(dram):
    """Build ``dram_line(now)``: an inlined one-line ``BandwidthLink.request``.

    Both closures issue DRAM line transfers (fetches and write-backs)
    through it; its free variables are the link and its constants.
    """
    link = dram._link
    line_size = dram.line_size
    link_wc = link.WINDOW_CYCLES
    link_bpc = link.bytes_per_cycle
    link_inf = link_bpc == float("inf")
    link_latency = link.latency
    link_transfer = 0.0 if link_inf else line_size / link_bpc
    link_cap = float("inf") if link_inf else link_wc * link_bpc

    def dram_line(now):
        # Inlined ``BandwidthLink.request`` (see resources.py).
        link.total_requests += 1
        link.total_bytes += line_size
        if link_inf:
            return now + link_latency
        w = int(now // link_wc)
        if w > link._window_index:
            link._window_index = w
            wbytes = 0.0 + line_size
        else:
            wbytes = link._window_bytes + line_size
        link._window_bytes = wbytes
        overflow = wbytes - link_cap
        if overflow > 0:
            delay = overflow / link_bpc
            link.total_queue_delay += delay
            return now + delay + link_transfer + link_latency
        return now + link_transfer + link_latency

    return dram_line


def compile_physical_access(h):
    """Build the fast ``access`` closure for a :class:`PhysicalHierarchy`."""
    l2 = h.l2
    per_cu_tlbs = h.per_cu_tlbs
    l1s = h.l1s
    l1_set_mask = l1s[0]._set_mask if l1s else 0
    l1_ways = h.config.l1.associativity
    l2_sets = l2._sets
    l2_set_mask = l2._set_mask
    l2_ways = h.config.l2.associativity
    banks = h.l2_banks.banks
    n_banks = len(banks)
    lpp = h._lpp
    cfg = h.config
    tlb_latency = cfg.per_cu_tlb_latency
    l1_latency = cfg.l1_latency
    l2_latency = cfg.l2_latency
    l1_to_l2 = cfg.interconnect.l1_to_l2
    gpu_to_iommu = cfg.interconnect.gpu_to_iommu
    iommu_to_gpu = cfg.interconnect.iommu_to_gpu
    ideal = h.ideal
    page_tables = h.page_tables
    # IOMMU constants for the inlined ``IOMMU.translate`` prologue +
    # shared-TLB probe (the shared-TLB-miss tail keeps the
    # ``_translate_miss_parts`` method).  A compiled build has no
    # observability bundle, so its IOMMU records no histogram,
    # timeline or trace events.
    iommu = h.iommu
    stlb = iommu.shared_tlb
    sampler = iommu.access_sampler
    sampler_ic = sampler.interval_cycles
    scounts = sampler._window_counts
    stlb_entries = stlb._entries
    iommu_unlimited = iommu.unlimited_bandwidth
    port_banks = iommu._port_banks
    n_port_banks = iommu._n_port_banks
    bank_low = iommu._bank_select_low
    port_request = iommu.port.request
    iommu_tlb_latency = iommu._tlb_latency
    iommu_translate_miss = iommu._translate_miss_parts
    # Windowed-server accounting constants for the inlined bank request
    # (all banks share one rate; a compiled build attaches no delay
    # histogram to them).
    window_cycles = banks[0].WINDOW_CYCLES
    l2_rate = banks[0].rate
    l2_cap = window_cycles * l2_rate
    dram_line = _compile_dram_line(h.dram)

    def access(cu_id, line, is_write, now, asid=0):
        vpn = line // lpp
        line_index = line % lpp
        tlb = per_cu_tlbs[cu_id]
        key = (asid << 52) | vpn
        if key == tlb._memo_key:
            entry = tlb._memo_entry
            tlb.hits += 1
        else:
            entries = tlb._entries
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                tlb.hits += 1
                tlb._memo_key = key
                tlb._memo_entry = entry
        if entry is not None:
            permissions = entry.permissions
            if not permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, permissions)
            physical_line = entry.ppn * lpp + line_index
            ready = now + tlb_latency
        else:
            tlb.misses += 1
            h._n_tlb_misses += 1
            t = now + tlb_latency
            if ideal:
                # Instant fill from the page table: translation is free.
                mapping = page_tables[asid].lookup(vpn)
                if mapping is None:
                    raise PageFault(vpn, asid)
                ppn, permissions = mapping
                tlb.insert(key, ppn, permissions, t)
                ready = t
            else:
                # Inlined ``IOMMU.translate`` prologue + shared-TLB
                # probe; the per-CU TLB key doubles as the shared-TLB
                # key (both are ``asid<<52 | vpn``).
                t_iommu = t + gpu_to_iommu
                window = int(t_iommu // sampler_ic)
                scounts[window] = scounts.get(window, 0) + 1
                if window > sampler._max_window:
                    sampler._max_window = window
                iommu._n_accesses += 1
                iommu._ever_translated = True
                if iommu_unlimited:
                    service_start = t_iommu
                elif port_banks is not None:
                    if bank_low:
                        service_start = port_banks[
                            vpn % n_port_banks].request(t_iommu)
                    else:
                        service_start = port_banks[
                            (vpn >> 9) % n_port_banks].request(t_iommu)
                else:
                    service_start = port_request(t_iommu)
                iommu.queue_cycles += service_start - t_iommu
                t_tr = service_start + iommu_tlb_latency
                if key == stlb._memo_key:
                    stlb.hits += 1
                    sentry = stlb._memo_entry
                else:
                    sentry = stlb_entries.get(key)
                    if sentry is None:
                        stlb.misses += 1
                    else:
                        stlb_entries.move_to_end(key)
                        stlb.hits += 1
                        stlb._memo_key = key
                        stlb._memo_entry = sentry
                if sentry is not None:
                    iommu._n_tlb_hits += 1
                    ppn = sentry.ppn
                    permissions = sentry.permissions
                    finish = t_tr
                else:
                    ppn, permissions, finish, _, _, _, _ = (
                        iommu_translate_miss(key, vpn, t_tr, t_iommu, asid))
                ready = finish + iommu_to_gpu
                tlb.insert(key, ppn, permissions, ready)
            if not permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, permissions)
            physical_line = ppn * lpp + line_index
            # Figure 2 breakdown: where would a VC have found the data?
            if physical_line in l1s[cu_id]._sets[physical_line & l1_set_mask]:
                h._n_miss_l1_hit += 1
            elif physical_line in l2_sets[physical_line & l2_set_mask]:
                h._n_miss_l2_hit += 1
            else:
                h._n_miss_l2_miss += 1

        l1 = l1s[cu_id]
        l1_set = l1._sets[physical_line & l1_set_mask]
        if physical_line in l1_set:
            l1_set.move_to_end(physical_line)
            l1.hits += 1
            if not is_write:
                return ready + l1_latency
        else:
            l1.misses += 1

        # Below the L1: a read miss, or a store (write-through,
        # no-allocate L1: the store occupies the CU window until it
        # lands in the L2).  Banked L2 lookup, then DRAM on a read miss.
        # Inlined ``WindowedServer.request`` (see resources.py).
        server = banks[physical_line % n_banks]
        t_req = ready + l1_latency + l1_to_l2
        server.total_requests += 1
        w = int(t_req // window_cycles)
        wi = server._window_index
        if w > wi:
            server._window_index = w
            count = 1.0
            server._window_count = count
        else:
            if w < wi:
                t_req = wi * window_cycles
            count = server._window_count + 1.0
            server._window_count = count
        overflow = count - l2_cap
        if overflow > 0.0:
            delay = overflow / l2_rate
            server.total_queue_delay += delay
            t_req += delay
        t_done = t_req + l2_latency
        l2_set = l2_sets[physical_line & l2_set_mask]
        l2_line = l2_set.get(physical_line)
        if l2_line is not None:
            l2_set.move_to_end(physical_line)
            l2.hits += 1
            if is_write:
                l2_line.dirty = True
                return t_done
        else:
            l2.misses += 1
            if not is_write:
                t_done = dram_line(t_done)
            # Allocate in the write-back L2; a store writes the full
            # line, so it needs no memory fetch.
            if len(l2_set) >= l2_ways:
                _, victim = l2_set.popitem(last=False)
                if victim.dirty:
                    dram_line(t_done)  # write-back traffic
                    h._n_l2_writebacks += 1
                if victim.page is not None:
                    l2._forget_page_line(victim)
                    victim.page = None
                victim.line_addr = physical_line
                victim.dirty = is_write
                victim.permissions = _RW
                l2_set[physical_line] = victim
            else:
                l2_set[physical_line] = CacheLine(physical_line, is_write)
                l2._n_resident += 1
            if is_write:
                return t_done
        # Fill the L1 (the line cannot already be resident: it missed).
        if len(l1_set) >= l1_ways:
            _, victim = l1_set.popitem(last=False)
            victim.line_addr = physical_line
            victim.dirty = False
            victim.permissions = _RW
            l1_set[physical_line] = victim
        else:
            l1_set[physical_line] = CacheLine(physical_line)
            l1._n_resident += 1
        return t_done + l1_to_l2

    return access


def compile_virtual_access(h):
    """Build the fast ``access`` closure for a :class:`VirtualCacheHierarchy`.

    The L1/L2 probe spine is compiled; the whole-hierarchy miss path
    (IOMMU translation + FBT consultation) keeps its method — it runs
    on a minority of requests and owns the synonym/invalidation logic.
    """
    l2 = h.l2
    l1s = h.l1s
    l1_set_mask = l1s[0]._set_mask if l1s else 0
    l2_sets = l2._sets
    l2_set_mask = l2._set_mask
    banks = h.l2_banks.banks
    n_banks = len(banks)
    lpp = h._lpp
    l1_latency = h._l1_latency
    l2_latency = h._l2_latency
    l1_to_l2 = h._l1_to_l2
    srts = h.srts
    miss_path = h._miss_path
    fbt_check_access = h.fbt.check_access
    execute_invalidation = h._execute_invalidation
    synonym_replay = h._synonym_replay
    interconnect = h.config.interconnect
    gpu_to_iommu = interconnect.gpu_to_iommu
    l2_to_fbt = interconnect.l2_to_fbt
    fbt_lookup = interconnect.fbt_lookup
    filters = h.filters
    l1_ways = l1s[0]._associativity if l1s else 0
    l2_ways = l2._associativity
    fbt_note_l2_eviction = h.fbt.note_l2_eviction
    fbt_note_l2_fill = h.fbt.note_l2_fill
    pkey_mask = (1 << 52) - 1
    # FBT consultation constants for the inlined base-page
    # ``check_access`` (large pages under the counter policy keep the
    # method, which owns that logic).
    fbt = h.fbt
    bt = fbt.bt
    bt_sets = bt._sets
    bt_set_mask = bt.n_sets - 1
    counter_policy = fbt.large_page_policy == fbt.COUNTER_POLICY
    fbt_allocate = fbt._allocate
    fault_on_rw = fbt.fault_on_rw_synonym
    fbt_counters = fbt.counters
    ft = fbt.ft
    ft_index = ft._index
    ft_lookup = ft.lookup
    # IOMMU constants for the inlined ``IOMMU.translate`` prologue +
    # shared-TLB probe (the shared-TLB-miss tail keeps the
    # ``_translate_miss_parts`` method); as in the physical closure,
    # the IOMMU of a compiled build is uninstrumented.
    iommu = h.iommu
    stlb = iommu.shared_tlb
    sampler = iommu.access_sampler
    sampler_ic = sampler.interval_cycles
    scounts = sampler._window_counts
    stlb_entries = stlb._entries
    iommu_unlimited = iommu.unlimited_bandwidth
    port_banks = iommu._port_banks
    n_port_banks = iommu._n_port_banks
    bank_low = iommu._bank_select_low
    port_request = iommu.port.request
    iommu_tlb_latency = iommu._tlb_latency
    iommu_translate_miss = iommu._translate_miss_parts
    # Windowed-server accounting constants for the inlined bank request
    # (all banks share one rate and carry no delay histogram).
    window_cycles = banks[0].WINDOW_CYCLES
    l2_rate = banks[0].rate
    l2_cap = window_cycles * l2_rate
    dram_line = _compile_dram_line(h.dram)

    # Compiled twins of ``_fill_l1`` / ``_fill_l2`` (same recycling
    # semantics, free variables instead of ``self.`` walks).  The bail
    # paths (``_miss_path``/``_synonym_replay``) keep the methods.
    def fill_l1(cu_id, asid, vpn, key, permissions):
        l1 = l1s[cu_id]
        cache_set = l1._sets[key & l1_set_mask]
        pkey = (asid << 52) | vpn
        # ``InvalidationFilter.on_fill``/``on_evict`` inlined: one dict
        # upsert per L1 fill, one decrement per page-carrying eviction.
        fcounts = filters[cu_id]._counts
        fkey = (asid, vpn)
        existing = cache_set.get(key)
        if existing is not None:
            # A synonym replay can refill a leading line that is already
            # resident (the original probe used the synonym key); the
            # filter counted it when it was filled.
            existing.permissions = permissions
            cache_set.move_to_end(key)
            return
        if len(cache_set) >= l1_ways:
            _, victim = cache_set.popitem(last=False)
            victim_page = victim.page
            if victim_page is not None:
                l1._forget_page_line(victim)
                ekey = (victim_page >> 52, victim_page & pkey_mask)
                count = fcounts.get(ekey, 0)
                if count <= 1:
                    fcounts.pop(ekey, None)
                else:
                    fcounts[ekey] = count - 1
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
        fcounts[fkey] = fcounts.get(fkey, 0) + 1

    def fill_l2(asid, vpn, line_index, ppn, dirty, permissions, now):
        key = (asid << 52) | (vpn * lpp + line_index)
        pkey = (asid << 52) | vpn
        cache_set = l2_sets[key & l2_set_mask]
        existing = cache_set.get(key)
        if existing is not None:
            # Refill of a resident line: refresh LRU, merge the dirty
            # bit (write-back cache), no victim.
            existing.dirty = existing.dirty or dirty
            existing.permissions = permissions
            cache_set.move_to_end(key)
        else:
            if len(cache_set) >= l2_ways:
                _, victim = cache_set.popitem(last=False)
                if victim.dirty:
                    dram_line(now)  # write-back traffic
                    h._n_l2_writebacks += 1
                victim_page = victim.page
                if victim_page is not None:
                    l2._forget_page_line(victim)
                    fbt_note_l2_eviction(victim_page >> 52,
                                         victim_page & pkey_mask,
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
        # Inlined ``FBT.note_l2_fill`` (stat-free BT peek + bit set);
        # the rare counter-tracked / missing-entry cases keep the
        # method, which owns the counter-base fallback and the
        # inclusion-broken error.
        entry = bt_sets[ppn & bt_set_mask].get(ppn)
        if entry is not None and entry.tracking == "bitvector":
            bit = 1 << line_index
            if not entry.line_bits & bit:
                entry.line_bits = entry.line_bits | bit
                entry.line_count += 1
        else:
            fbt_note_l2_fill(ppn, line_index)

    def access(cu_id, vline, is_write, now, asid=0):
        vpn = vline // lpp
        line_index = vline % lpp
        if srts is not None:
            # Dynamic synonym remapping: redirect known synonym pages to
            # their leading address before the L1 lookup.  Inlined
            # ``SynonymRemapTable.lookup`` (dict probe + LRU refresh).
            srt = srts[cu_id]
            skey = (asid, vpn)
            remap = srt._entries.get(skey)
            if remap is None:
                srt.misses += 1
            else:
                srt._entries.move_to_end(skey)
                srt.hits += 1
                asid, vpn = remap
                vline = vpn * lpp + line_index
                h._n_srt_remaps += 1
        key = (asid << 52) | vline
        l1 = l1s[cu_id]
        l1_set = l1._sets[key & l1_set_mask]
        line = l1_set.get(key)
        if line is not None:
            l1_set.move_to_end(key)
            l1.hits += 1
            if not line.permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, line.permissions)
            h._n_l1_hits += 1
            if not is_write:
                return now + l1_latency
            # Write-through: the write still flows to the L2 and the
            # store occupies the CU window until it lands there.
        else:
            l1.misses += 1

        # An L1 miss or an L1 write hit → virtual L2.
        # Inlined ``WindowedServer.request`` (see resources.py).
        server = banks[key % n_banks]
        start = now + l1_latency + l1_to_l2
        server.total_requests += 1
        w = int(start // window_cycles)
        wi = server._window_index
        if w > wi:
            server._window_index = w
            count = 1.0
            server._window_count = count
        else:
            if w < wi:
                start = wi * window_cycles
            count = server._window_count + 1.0
            server._window_count = count
        overflow = count - l2_cap
        if overflow > 0.0:
            delay = overflow / l2_rate
            server.total_queue_delay += delay
            start += delay
        t_hit = start + l2_latency
        l2_set = l2_sets[key & l2_set_mask]
        l2_line = l2_set.get(key)
        if l2_line is not None:
            l2_set.move_to_end(key)
            l2.hits += 1
            if line is None:
                # An L1 miss serviced by the L2 (a write-through from an
                # L1 hit is neither checked nor counted here).
                if not l2_line.permissions._value_ & (2 if is_write else 1):
                    raise PermissionFault(vpn, is_write, l2_line.permissions)
                h._n_l2_hits += 1
                if not is_write:
                    fill_l1(cu_id, asid, vpn, key, l2_line.permissions)
                    return t_hit + l1_to_l2
            l2_line.dirty = True
            # Inlined ``FBT.note_write`` (first FT probe; the
            # counter-policy base-page fallback keeps the counted
            # ``ForwardTable.lookup`` method).
            ft.lookups += 1
            fentry = ft_index.get((asid, vpn))
            if fentry is not None:
                ft.hits += 1
                fentry.written = True
            elif counter_policy:
                fentry = ft_lookup(asid, large_page_base_vpn(vpn))
                if fentry is not None:
                    fentry.written = True
            return t_hit
        l2.misses += 1
        if line is not None:
            # Non-inclusive hierarchy: L1 write hit, L2 miss — allocate
            # in the write-back L2 via the translated miss path.
            return miss_path(cu_id, asid, vpn, vline, line_index, True,
                             t_hit, fill_l1=False)

        # Whole-hierarchy miss → translation is finally needed.  The
        # common (leading-page, no-invalidation) spine of ``_miss_path``
        # is inlined here; synonym replays and shootdowns bail out to
        # the methods, which own that logic.
        h._n_l2_misses += 1
        # Inlined ``IOMMU.translate`` prologue + shared-TLB probe.
        t_iommu = t_hit + gpu_to_iommu
        window = int(t_iommu // sampler_ic)
        scounts[window] = scounts.get(window, 0) + 1
        if window > sampler._max_window:
            sampler._max_window = window
        iommu._n_accesses += 1
        iommu._ever_translated = True
        if iommu_unlimited:
            service_start = t_iommu
        elif port_banks is not None:
            if bank_low:
                service_start = port_banks[vpn % n_port_banks].request(t_iommu)
            else:
                service_start = port_banks[
                    (vpn >> 9) % n_port_banks].request(t_iommu)
        else:
            service_start = port_request(t_iommu)
        iommu.queue_cycles += service_start - t_iommu
        t_tr = service_start + iommu_tlb_latency
        tkey = (asid << 52) | vpn
        if tkey == stlb._memo_key:
            stlb.hits += 1
            sentry = stlb._memo_entry
        else:
            sentry = stlb_entries.get(tkey)
            if sentry is None:
                stlb.misses += 1
            else:
                stlb_entries.move_to_end(tkey)
                stlb.hits += 1
                stlb._memo_key = tkey
                stlb._memo_entry = sentry
        if sentry is not None:
            iommu._n_tlb_hits += 1
            ppn = sentry.ppn
            permissions = sentry.permissions
            finish = t_tr
            is_large = sentry.is_large
            lb_vpn = sentry.large_base_vpn
            lb_ppn = sentry.large_base_ppn
        else:
            ppn, permissions, finish, _, is_large, lb_vpn, lb_ppn = (
                iommu_translate_miss(tkey, vpn, t_tr, t_iommu, asid))
        if not permissions._value_ & (2 if is_write else 1):
            raise PermissionFault(vpn, is_write, permissions)
        t_fbt = finish + l2_to_fbt + fbt_lookup
        if is_large and counter_policy:
            check = fbt_check_access(
                asid, vpn, ppn, permissions, line_index, is_write,
                is_large=True, large_base_vpn=lb_vpn, large_base_ppn=lb_ppn,
            )
        else:
            # Inlined base-page ``FBT.check_access``: BT probe, then the
            # leading case completes here — no AccessCheck object, no
            # invalidations — while allocation/synonym build one.
            bt_set = bt_sets[ppn & bt_set_mask]
            entry = bt_set.get(ppn)
            bt.lookups += 1
            if entry is None:
                check = fbt_allocate(asid, vpn, ppn, permissions, is_write)
            else:
                bt_set.move_to_end(ppn)
                bt.hits += 1
                if entry.leading_asid == asid and entry.leading_vpn == vpn:
                    if is_write:
                        entry.written = True
                        # Full-line store: allocate in the write-back
                        # L2, no fetch.
                        fill_l2(asid, vpn, line_index, ppn, True,
                                permissions, t_fbt)
                        return t_fbt + l1_to_l2
                    t_mem = dram_line(t_fbt)
                    fill_l2(asid, vpn, line_index, ppn, False, permissions,
                            t_mem)
                    fill_l1(cu_id, asid, vpn, key, permissions)
                    return t_mem + l1_to_l2
                # Synonym: mirror ``check_access``'s synonym arm.
                fbt_counters.add("fbt.synonym_accesses")
                if fault_on_rw and (is_write or entry.written):
                    fbt_counters.add("fbt.rw_synonym_faults")
                    raise ReadWriteSynonymFault(ppn, entry.leading_vpn, vpn)
                if is_write:
                    entry.written = True
                check = AccessCheck(
                    status="synonym", entry=entry,
                    leading_asid=entry.leading_asid,
                    leading_vpn=entry.leading_vpn,
                    replay_hits_l2=entry.line_cached(line_index),
                )
        if check.invalidations or check.status == "synonym":
            for order in check.invalidations:
                execute_invalidation(order, t_fbt)
            if check.status == "synonym":
                return synonym_replay(cu_id, asid, vpn, check, ppn,
                                      line_index, is_write, t_fbt, True)
        if is_write:
            # Full-line store: allocate in the write-back L2, no fetch.
            fill_l2(asid, vpn, line_index, ppn, True, permissions, t_fbt)
            return t_fbt + l1_to_l2
        t_mem = dram_line(t_fbt)
        fill_l2(asid, vpn, line_index, ppn, False, permissions, t_mem)
        fill_l1(cu_id, asid, vpn, key, permissions)
        return t_mem + l1_to_l2

    return access
