"""The I/O memory-management unit (IOMMU).

The IOMMU holds the structure the whole paper revolves around: a TLB
shared by all compute units, with a *bandwidth limit* (one access per
cycle in the baseline — footnote 2 points out prior work unrealistically
assumed infinite bandwidth).  Requests that miss go to the multi-
threaded page-table walker through the page-walk cache.  In the virtual
cache design ("VC With OPT") the forward-backward table is additionally
consulted on shared-TLB misses as a second-level TLB, which hides most
page walks (§4.1 reports ≈74% of shared TLB misses hit in the FBT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.engine.resources import BankedServer, ThroughputServer
from repro.engine.stats import Counters, IntervalSampler
from repro.memsys.page_table import PageTable
from repro.memsys.page_table_walker import PageTableWalker
from repro.memsys.page_walk_cache import PageWalkCache
from repro.memsys.permissions import Permissions
from repro.memsys.tlb import TLB


__all__ = ["IOMMU", "IOMMUConfig", "SecondLevelTLB", "TranslationOutcome"]

class SecondLevelTLB(Protocol):
    """What the IOMMU needs from an FBT acting as a second-level TLB."""

    def forward_translate(self, asid: int, vpn: int) -> Optional[tuple]:
        """Translate (asid, vpn) if it is a leading page, else ``None``.

        Returns ``(ppn, permissions, is_large, large_base_vpn,
        large_base_ppn)``; a second level that only holds base pages may
        return just ``(ppn, permissions)``.
        """


@dataclass(frozen=True)
class IOMMUConfig:
    """Sizing and timing of the IOMMU (Table 1 defaults)."""

    shared_tlb_entries: Optional[int] = 512
    bandwidth: float = 1.0  # shared-TLB accesses accepted per cycle
    tlb_latency: float = 4.0  # large associative structure
    ptw_threads: int = 16
    pwc_size_bytes: int = 8192
    pwc_hit_latency: float = 2.0
    pwc_memory_latency: float = 100.0
    # §3.2's "multi-banked large IOMMU TLB" alternative: with n_banks>1
    # each bank accepts ``bandwidth`` accesses/cycle, but requests
    # conflict per bank.  ``bank_select`` picks the VPN bits used:
    # "low" (vpn % n) interleaves pages; "high" mirrors the paper's
    # observation that banking by higher-order address bits makes
    # conflicts common (a whole region maps to one bank).
    n_banks: int = 1
    bank_select: str = "low"

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("IOMMU bandwidth must be positive")
        if self.n_banks < 1:
            raise ValueError("need at least one IOMMU TLB bank")
        if self.bank_select not in ("low", "high"):
            raise ValueError("bank_select must be 'low' or 'high'")


@dataclass
class TranslationOutcome:
    """A completed translation, with timing and provenance."""

    vpn: int
    ppn: int
    permissions: Permissions
    source: str  # "shared_tlb" | "fbt" | "walk"
    arrival: float
    finish: float
    is_large: bool = False
    large_base_vpn: int = 0
    large_base_ppn: int = 0

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


class IOMMU:
    """Shared TLB + page-table walker + page-walk cache (+ optional FBT)."""

    SAMPLE_INTERVAL_US = 1.0  # the paper samples access rates per microsecond

    def __init__(
        self,
        config: IOMMUConfig,
        page_tables: Dict[int, PageTable],
        frequency_ghz: float = 0.7,
        second_level: Optional[SecondLevelTLB] = None,
        obs=None,
    ) -> None:
        if not page_tables:
            raise ValueError("IOMMU needs at least one page table")
        self.config = config
        self.page_tables = dict(page_tables)
        self.shared_tlb = TLB(capacity=config.shared_tlb_entries, name="iommu-tlb")
        if config.n_banks > 1:
            self.port = BankedServer(config.n_banks, rate_per_bank=config.bandwidth)
            self._port_banks = self.port.banks
        else:
            self.port = ThroughputServer(rate=config.bandwidth)
            self._port_banks = None
        self.unlimited_bandwidth = config.bandwidth == float("inf")
        # Hot-path scalars, hoisted out of the config for ``translate``.
        self._n_port_banks = config.n_banks
        self._bank_select_low = config.bank_select == "low"
        self._tlb_latency = config.tlb_latency
        self.pwc = PageWalkCache(
            size_bytes=config.pwc_size_bytes,
            hit_latency=config.pwc_hit_latency,
            memory_latency=config.pwc_memory_latency,
        )
        self._walkers = {
            asid: PageTableWalker(table, self.pwc, config.ptw_threads)
            for asid, table in self.page_tables.items()
        }
        self.second_level = second_level
        interval_cycles = self.SAMPLE_INTERVAL_US * 1000.0 * frequency_ghz
        self.access_sampler = IntervalSampler(interval_cycles)
        self._counters = Counters()
        # Exact float total of queueing waits; the ``iommu.queue_cycles``
        # counter is round(total) so sub-cycle waits are not truncated
        # away per request.
        self.queue_cycles = 0.0
        # Deferred hot-path event counts (flushed via the ``counters``
        # property; only nonzero counts materialize, matching the
        # key-presence semantics of per-event ``Counters.add``).
        self._n_accesses = 0
        self._n_tlb_hits = 0
        self._n_tlb_misses = 0
        self._n_fbt_hits = 0
        self._n_fbt_misses = 0
        self._n_walks = 0
        # ``iommu.queue_cycles`` exists exactly when a translation has
        # ever been serviced (it may legitimately be zero).
        self._ever_translated = False

        # Observability (repro.obs): latency histograms + request tracing.
        # All hot-path instrumentation is guarded so obs=None costs one
        # attribute check per translation.
        self._tracer = obs.tracer if obs is not None else None
        self._queue_hist = None
        self._walk_hist = None
        self._translate_hist = None
        # Windowed time series (obs.metrics.timeline); None unless the
        # caller enabled a timeline before building the hierarchy.
        self._timeline = obs.metrics.timeline if obs is not None else None
        if obs is not None:
            metrics = obs.metrics
            self._queue_hist = metrics.histogram("iommu.queue_delay")
            self._walk_hist = metrics.histogram("iommu.walk_latency")
            self._translate_hist = metrics.histogram("iommu.translate_latency")
            ptw_hist = metrics.histogram("iommu.ptw_queue_delay")
            for walker in self._walkers.values():
                walker.threads.delay_histogram = ptw_hist

    # -- counters ---------------------------------------------------------
    @property
    def counters(self) -> Counters:
        """The IOMMU's counter bag, with pending hot-path deltas flushed."""
        self._flush_counters()
        return self._counters

    def _flush_counters(self) -> None:
        counters = self._counters
        if self._n_accesses:
            counters.add("iommu.accesses", self._n_accesses)
            self._n_accesses = 0
        if self._ever_translated:
            counters.set("iommu.queue_cycles", round(self.queue_cycles))
        if self._n_tlb_hits:
            counters.add("iommu.tlb_hits", self._n_tlb_hits)
            self._n_tlb_hits = 0
        if self._n_tlb_misses:
            counters.add("iommu.tlb_misses", self._n_tlb_misses)
            self._n_tlb_misses = 0
        if self._n_fbt_hits:
            counters.add("iommu.fbt_hits", self._n_fbt_hits)
            self._n_fbt_hits = 0
        if self._n_fbt_misses:
            counters.add("iommu.fbt_misses", self._n_fbt_misses)
            self._n_fbt_misses = 0
        if self._n_walks:
            counters.add("iommu.walks", self._n_walks)
            self._n_walks = 0

    # -- helpers ----------------------------------------------------------
    def _tlb_key(self, asid: int, vpn: int) -> int:
        # Homonym-safe key: the shared TLB is effectively ASID-tagged.
        return (asid << 52) | vpn

    # -- translation path ---------------------------------------------------
    def translate(self, vpn: int, now: float, asid: int = 0) -> TranslationOutcome:
        """Translate ``vpn`` arriving at the IOMMU at time ``now``.

        Models the paper's serialization: the request first queues for
        the shared TLB port, then (on a miss) consults the FBT if one is
        attached as a second-level TLB, and finally walks the page table.
        Raises :class:`PageFault` for unmapped pages (handled by the CPU
        in the real system).  The compiled access closures of
        :mod:`repro.system.fastpath` inline this method's shared-TLB
        prologue and call :meth:`_translate_miss_parts` on a miss.
        """
        # Inlined ``access_sampler.record(now)`` — one dict upsert per
        # translation is hot enough to skip the method dispatch.
        sampler = self.access_sampler
        window = int(now // sampler.interval_cycles)
        counts = sampler._window_counts
        counts[window] = counts.get(window, 0) + 1
        if window > sampler._max_window:
            sampler._max_window = window
        self._n_accesses += 1
        self._ever_translated = True
        if self.unlimited_bandwidth:
            service_start = now
        elif self._port_banks is not None:
            # "low" interleaves pages over the banks; "high" maps each
            # 2 MB region to one bank.
            if self._bank_select_low:
                bank = vpn % self._n_port_banks
            else:
                bank = (vpn >> 9) % self._n_port_banks
            service_start = self._port_banks[bank].request(now)
        else:
            service_start = self.port.request(now)
        self.queue_cycles += service_start - now
        if self._queue_hist is not None:
            self._queue_hist.record(service_start - now)
        timeline = self._timeline
        if timeline is not None:
            timeline.record("iommu.accesses", now)
            wait = service_start - now
            if wait:
                # Summed waits per epoch; epoch-mean queue depth follows
                # by Little's law (sum / epoch_cycles) at render time.
                timeline.record("iommu.queue_wait", now, wait)
            if not self.unlimited_bandwidth:
                # Port occupancy: each accepted access holds its
                # (banked) port for 1/rate cycles.
                timeline.record("iommu.busy", service_start,
                                1.0 / self.config.bandwidth)
        tracer = self._tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            tracer.emit("iommu.enter", now, vpn=vpn, asid=asid)
            tracer.emit("iommu.dequeue", service_start, vpn=vpn,
                        wait=service_start - now)
        t = service_start + self._tlb_latency

        # Inlined ``shared_tlb.lookup`` (micro-memo + LRU probe); the
        # counter and memo updates mirror :meth:`TLB.lookup` exactly.
        key = (asid << 52) | vpn
        tlb = self.shared_tlb
        if key == tlb._memo_key:
            tlb.hits += 1
            entry = tlb._memo_entry
        else:
            entry = tlb._entries.get(key)
            if entry is None:
                tlb.misses += 1
            else:
                tlb._entries.move_to_end(key)
                tlb.hits += 1
                tlb._memo_key = key
                tlb._memo_entry = entry
        if entry is not None:
            self._n_tlb_hits += 1
            if timeline is not None:
                timeline.record("iommu.tlb_hits", t)
            if self._translate_hist is not None:
                self._translate_hist.record(t - now)
            if tracing:
                tracer.emit("iommu.tlb_hit", t, vpn=vpn)
            return TranslationOutcome(
                vpn=vpn, ppn=entry.ppn, permissions=entry.permissions,
                source="shared_tlb", arrival=now, finish=t,
                is_large=entry.is_large, large_base_vpn=entry.large_base_vpn,
                large_base_ppn=entry.large_base_ppn)
        (ppn, permissions, finish, source, is_large, large_base_vpn,
         large_base_ppn) = self._translate_miss_parts(key, vpn, t, now, asid)
        return TranslationOutcome(
            vpn=vpn, ppn=ppn, permissions=permissions, source=source,
            arrival=now, finish=finish, is_large=is_large,
            large_base_vpn=large_base_vpn, large_base_ppn=large_base_ppn)

    def _translate_miss_parts(self, key: int, vpn: int, t: float, now: float,
                              asid: int) -> tuple:
        """Shared-TLB-miss tail of :meth:`translate`, without the outcome.

        Returns ``(ppn, permissions, finish, source, is_large,
        large_base_vpn, large_base_ppn)``.  Split out so the compiled
        access closures can inline the (far more common) shared-TLB-hit
        prologue, pay a method call only on a miss, and consume the
        tuple without building an outcome object.
        """
        timeline = self._timeline
        tracer = self._tracer
        tracing = tracer is not None and tracer.enabled
        self._n_tlb_misses += 1

        if self.second_level is not None:
            # FBT-as-second-level-TLB: one more associative lookup.
            t += self.config.tlb_latency
            hit = self.second_level.forward_translate(asid, vpn)
            if hit is not None:
                ppn, permissions, *large = hit
                is_large, large_base_vpn, large_base_ppn = (
                    large or (False, 0, 0))
                self._n_fbt_hits += 1
                if timeline is not None:
                    timeline.record("iommu.fbt_hits", t)
                if self._translate_hist is not None:
                    self._translate_hist.record(t - now)
                if tracing:
                    tracer.emit("iommu.fbt_hit", t, vpn=vpn)
                self.shared_tlb.insert(
                    key, ppn, permissions, t, is_large=is_large,
                    large_base_vpn=large_base_vpn,
                    large_base_ppn=large_base_ppn)
                return (ppn, permissions, t, "fbt", is_large, large_base_vpn,
                        large_base_ppn)
            self._n_fbt_misses += 1

        if tracing:
            tracer.emit("walk.start", t, vpn=vpn, asid=asid)
        walk = self._walkers[asid].walk(vpn, t)
        self._n_walks += 1
        if timeline is not None:
            timeline.record("iommu.walks", t)
        if self._walk_hist is not None:
            self._walk_hist.record(walk.finish - t)
        if self._translate_hist is not None:
            self._translate_hist.record(walk.finish - now)
        if tracing:
            tracer.emit("walk.finish", walk.finish, vpn=vpn,
                        latency=walk.finish - t)
        self.shared_tlb.insert(
            key, walk.result.ppn, walk.result.permissions, walk.finish,
            is_large=walk.result.is_large,
            large_base_vpn=walk.result.large_base_vpn,
            large_base_ppn=walk.result.large_base_ppn,
        )
        result = walk.result
        return (result.ppn, result.permissions, walk.finish, "walk",
                result.is_large, result.large_base_vpn, result.large_base_ppn)

    # -- shootdown ------------------------------------------------------------
    def invalidate(self, vpn: int, asid: int = 0) -> bool:
        """Drop one shared-TLB translation (part of a TLB shootdown)."""
        return self.shared_tlb.invalidate(self._tlb_key(asid, vpn))

    def invalidate_all(self) -> int:
        """Drop every shared-TLB translation."""
        return self.shared_tlb.invalidate_all()
