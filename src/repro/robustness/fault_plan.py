"""Deterministic VM-event fault injection (chaos testing).

The paper's transparency claim (§4) is that the virtual hierarchy stays
correct under the full set of hostile OS events: TLB shootdowns, page
migrations (remap), page-outs (unmap), and permission downgrades —
including remaps the OS performs *without* the shootdown reaching the
GPU first, which the FBT discovers on the next translation
(``fbt.stale_remaps``).  A :class:`FaultPlan` turns a seed and a fault
rate into a reproducible schedule of such events, and a
:class:`FaultInjector` wraps any hierarchy to interleave them into the
access stream, playing the OS's role in the resulting page faults
(page-in on access to an unmapped page, permission restore + shootdown
on a write to a downgraded page).

Everything is keyed off ``random.Random(str)`` seeding, which hashes the
seed string with SHA-512 independent of ``PYTHONHASHSEED`` — the same
``(trace, rate, seed)`` always yields the same plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.engine.stats import Counters
from repro.memsys.addressing import lines_per_page, page_number
from repro.memsys.permissions import PageFault, PermissionFault, Permissions

_ASID_SHIFT = 52
_LINES_PER_PAGE = lines_per_page()

#: Every fault kind the injector knows how to drive.
KINDS: Tuple[str, ...] = (
    "shootdown", "remap", "silent_remap", "unmap", "permission_downgrade",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled VM event, fired before access number ``index``."""

    index: int
    kind: str
    vpn: int
    asid: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of VM events for one trace."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    rate: float = 0.0

    #: Distinct pages considered as fault targets (bounds plan-build cost
    #: on huge traces; the first pages touched are the ones that matter).
    MAX_CANDIDATE_PAGES = 512

    def __len__(self) -> int:
        return len(self.events)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    @classmethod
    def for_trace(
        cls,
        trace,
        rate: float,
        seed: int = 0,
        asid: int = 0,
        kinds: Tuple[str, ...] = KINDS,
    ) -> "FaultPlan":
        """Build a plan injecting ``rate`` events per coalesced request.

        Targets are pages the trace actually touches, restricted to 4 KB
        (non-large) mappings — remap/unmap at 4 KB granularity inside a
        2 MB mapping is not a legal OS operation.
        """
        if rate < 0:
            raise ValueError("fault rate must be nonnegative")
        unknown = set(kinds) - set(KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        small_ranges = [
            (page_number(m.base_va), page_number(m.base_va) + m.n_pages)
            for m in trace.address_space.mappings if not m.large
        ]
        candidates: List[int] = []
        seen = set()
        # Every coalesced request, in CU-major order, as its line address.
        lines = trace.coalesced_per_cu()[0]
        n_requests = len(lines)
        for line in lines:
            vpn = line // _LINES_PER_PAGE
            if vpn not in seen:
                seen.add(vpn)
                if (len(candidates) < cls.MAX_CANDIDATE_PAGES
                        and any(lo <= vpn < hi for lo, hi in small_ranges)):
                    candidates.append(vpn)
        n_events = min(int(round(rate * n_requests)), n_requests)
        if n_events == 0 or not candidates:
            return cls(events=(), seed=seed, rate=rate)
        rng = random.Random(f"faultplan:{seed}:{rate!r}:{trace.name}")
        indices = sorted(rng.sample(range(n_requests), n_events))
        events = tuple(
            FaultEvent(index=index, kind=rng.choice(kinds),
                       vpn=rng.choice(candidates), asid=asid)
            for index in indices
        )
        return cls(events=events, seed=seed, rate=rate)


class FaultInjector:
    """Wrap a hierarchy, interleaving a :class:`FaultPlan` into accesses.

    The wrapper is transparent to :func:`~repro.system.run.simulate`:
    attribute access falls through to the wrapped hierarchy, ``counters``
    merges the hierarchy's bag with the injector's ``chaos.*`` event
    counts, and ``audit_target`` lets the invariant auditor inspect the
    real hierarchy.  The injector also plays OS: accesses that hit an
    injected unmap or permission downgrade fault, and the handler pages
    the data back in / restores the permissions (with the mandatory
    shootdown — the caches and TLBs were filled with the downgraded
    permissions before the fault surfaced) and retries.
    """

    #: OS-retry bound per access; a loop here means the handlers failed
    #: to clear the fault and the simulation must not spin forever.
    MAX_OS_RETRIES = 8

    def __init__(self, hierarchy, plan: FaultPlan, address_space,
                 asid: int = 0, tracer=None, trace_ctx=None) -> None:
        self._inner = hierarchy
        self.audit_target = hierarchy
        self.plan = plan
        self._space = address_space
        self._events = plan.events
        self._next_event = 0
        self._n_accesses = 0
        self._chaos = Counters()
        # Pages the injector unmapped / downgraded, with their original
        # permissions, keyed by (asid, vpn) of the *access* stream.
        self._paged_out: Dict[Tuple[int, int], Permissions] = {}
        self._downgraded: Dict[Tuple[int, int], Permissions] = {}
        self._default_asid = asid
        # Optional telemetry: every applied fault becomes a span in the
        # trace stream (child of ``trace_ctx`` when one is given).
        self._tracer = tracer
        self._trace_ctx = trace_ctx

    def __getattr__(self, name):
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    @property
    def counters(self) -> Counters:
        merged = Counters()
        merged.merge(self._inner.counters.as_dict())
        merged.merge(self._chaos.as_dict())
        return merged

    def finish(self, now: float) -> None:
        self._inner.finish(now)

    # -- the access path --------------------------------------------------
    def access(self, cu_id: int, line: int, is_write: bool, now: float,
               asid: int = 0) -> float:
        events = self._events
        i = self._next_event
        if i < len(events) and events[i].index <= self._n_accesses:
            while i < len(events) and events[i].index <= self._n_accesses:
                self._apply(events[i], now)
                i += 1
            self._next_event = i
        self._n_accesses += 1

        inner_access = self._inner.access
        for _ in range(self.MAX_OS_RETRIES):
            try:
                return inner_access(cu_id, line, is_write, now, asid=asid)
            except PageFault as fault:
                self._handle_page_fault(fault, asid)
            except PermissionFault as fault:
                self._handle_permission_fault(fault, asid, now)
        raise RuntimeError(
            f"access to line {line:#x} still faulting after "
            f"{self.MAX_OS_RETRIES} OS fault-handling retries"
        )

    # -- OS fault handlers -------------------------------------------------
    def _handle_page_fault(self, fault: PageFault, asid: int) -> None:
        permissions = self._paged_out.pop((asid, fault.vpn), None)
        if permissions is None:
            # Not one of ours: a genuine bug, surface it.
            raise fault
        self._space.page_in(fault.vpn, permissions)
        self._chaos.add("chaos.page_ins")

    def _handle_permission_fault(self, fault: PermissionFault, asid: int,
                                 now: float) -> None:
        original = self._downgraded.pop((asid, fault.vpn), None)
        if original is None:
            raise fault
        self._space.page_table.set_permissions(fault.vpn, original)
        # TLBs and cache lines were filled with the downgraded
        # permissions before the fault propagated; they must go.
        self._inner.shootdown(asid, fault.vpn, now)
        self._chaos.add("chaos.permission_restores")

    # -- event application -------------------------------------------------
    def _apply(self, event: FaultEvent, now: float) -> None:
        self._chaos.add("chaos.events")
        kind, vpn, asid = event.kind, event.vpn, event.asid
        if self._tracer is not None:
            fields: Dict[str, object] = {
                "name": f"chaos.{kind}", "dur": 0.0, "kind": kind,
                "vpn": vpn, "asid": asid, "index": event.index,
            }
            if self._trace_ctx is not None:
                fields.update(self._trace_ctx.child().span_fields())
            self._tracer.emit("span", now, **fields)
        key = (asid, vpn)
        page_table = self._space.page_table

        if kind == "shootdown":
            self._inner.shootdown(asid, vpn, now)
            self._chaos.add("chaos.shootdowns")
            return

        # The remaining kinds manipulate the mapping itself; they only
        # make sense while the page is actually mapped.
        if key in self._paged_out or page_table.lookup(vpn) is None:
            self._chaos.add("chaos.skipped")
            return

        if kind == "remap":
            # The OS protocol: shoot the translation down everywhere,
            # then migrate the page to a new frame.
            self._inner.shootdown(asid, vpn, now)
            self._space.remap_page(vpn)
            self._chaos.add("chaos.remaps")
        elif kind == "silent_remap":
            if getattr(self._inner, "handles_stale_remap", False):
                # Only the translations are dropped — the FBT keeps its
                # stale entry and must detect the remap itself on the
                # next translation (fbt.stale_remaps).
                self._space.remap_page(vpn)
                self._invalidate_translations(asid, vpn, now)
                self._chaos.add("chaos.silent_remaps")
            else:
                # Designs without stale-remap detection get the full
                # shootdown protocol instead.
                self._inner.shootdown(asid, vpn, now)
                self._space.remap_page(vpn)
                self._chaos.add("chaos.remaps")
        elif kind == "unmap":
            current = self._space.unmap_page(vpn)
            self._inner.shootdown(asid, vpn, now)
            # Page back in with the pre-downgrade permissions if a
            # downgrade was pending on this page.
            self._paged_out[key] = self._downgraded.pop(key, current)
            self._chaos.add("chaos.unmaps")
        elif kind == "permission_downgrade":
            if key in self._downgraded:
                self._chaos.add("chaos.skipped")
                return
            translation = page_table.lookup(vpn)
            _, permissions = translation
            if not permissions & Permissions.WRITE:
                self._chaos.add("chaos.skipped")
                return
            self._downgraded[key] = permissions
            page_table.set_permissions(vpn, Permissions.READ_ONLY)
            self._inner.shootdown(asid, vpn, now)
            self._chaos.add("chaos.permission_downgrades")
        else:  # pragma: no cover - plans are validated at build time
            raise ValueError(f"unknown fault kind {kind!r}")

    def _invalidate_translations(self, asid: int, vpn: int,
                                 now: float) -> None:
        """Drop only the *translations* for a page (silent remap)."""
        inner = self._inner
        key = (asid << _ASID_SHIFT) | vpn
        for tlb in getattr(inner, "per_cu_tlbs", None) or ():
            tlb.invalidate(key, now)
        iommu = getattr(inner, "iommu", None)
        if iommu is not None:
            iommu.invalidate(vpn, asid)


__all__ = ["KINDS", "FaultEvent", "FaultPlan", "FaultInjector"]
