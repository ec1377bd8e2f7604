"""Translation lookaside buffers.

Models both the small per-CU L1 TLBs (32/64/128 entries, fully
associative, LRU) and the large shared IOMMU TLB (512 or 16K entries).
``capacity=None`` gives the infinite TLB used for the "inf" bars of
Figure 2 and the IDEAL MMU of Figure 4.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.memsys.permissions import Permissions


__all__ = ["TLB", "TLBEntry"]

class TLBEntry:
    """One cached translation.

    ``__slots__``: TLB entries are allocated on every fill and probed on
    every translation, so they carry no per-instance ``__dict__``.
    """

    __slots__ = ("vpn", "ppn", "permissions", "is_large",
                 "large_base_vpn", "large_base_ppn")

    def __init__(
        self,
        vpn: int,
        ppn: int,
        permissions: Permissions = Permissions.READ_WRITE,
        # Large-page provenance (carried so downstream structures — the
        # FBT above all — can apply their large-page policy on hits too).
        is_large: bool = False,
        large_base_vpn: int = 0,
        large_base_ppn: int = 0,
    ) -> None:
        self.vpn = vpn
        self.ppn = ppn
        self.permissions = permissions
        self.is_large = is_large
        self.large_base_vpn = large_base_vpn
        self.large_base_ppn = large_base_ppn

    def __repr__(self) -> str:
        return (
            f"TLBEntry(vpn={self.vpn!r}, ppn={self.ppn!r}, "
            f"permissions={self.permissions!r}, is_large={self.is_large!r}, "
            f"large_base_vpn={self.large_base_vpn!r}, "
            f"large_base_ppn={self.large_base_ppn!r})"
        )


class TLB:
    """A fully-associative, LRU translation buffer.

    A direct-mapped *last-translation micro-memo* (``_memo_key`` /
    ``_memo_entry``) sits in front of the full probe: a single tag
    compare against the most recently used key.  The memo is exactly one
    entry — never wider — because a memo hit skips the LRU refresh, and
    only the MRU key can do that without perturbing eviction order (it
    is already at the recency-list tail, so ``move_to_end`` would be a
    no-op).  Every hit and fill path updates the memo and every
    invalidation path clears it, so the invariant "the memo holds the
    MRU key, or nothing" holds even when shootdowns bypass the hierarchy
    (the chaos fault injector invalidates TLBs directly).  Counters are
    attributed identically on memo and full-probe hits, so simulation
    outputs stay bit-identical.

    The ``now`` parameters of the access and shootdown methods are
    accepted and ignored: callers pass the simulated time positionally
    (``insert`` takes ``is_large`` after it).  Figure 12 tracks TLB
    entry lifetimes in the hierarchy, not here.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        name: str = "tlb",
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("TLB capacity must be positive (or None for infinite)")
        self.capacity = capacity
        self.name = name
        self._entries: OrderedDict[int, TLBEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Keys are nonnegative ASID-qualified page numbers; -1 never matches.
        self._memo_key = -1
        self._memo_entry: Optional[TLBEntry] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    # -- access path ----------------------------------------------------
    def lookup(self, vpn: int, now: float = 0.0) -> Optional[TLBEntry]:
        """Translate ``vpn``: LRU-refreshing hit, or None on miss."""
        if vpn == self._memo_key:
            # Memo hit: the key is already MRU, so the LRU refresh is
            # skipped as a provable no-op; counters unchanged vs a probe.
            self.hits += 1
            return self._memo_entry
        entry = self._entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(vpn)
        self.hits += 1
        self._memo_key = vpn
        self._memo_entry = entry
        return entry

    def insert(
        self,
        vpn: int,
        ppn: int,
        permissions: Permissions = Permissions.READ_WRITE,
        now: float = 0.0,
        is_large: bool = False,
        large_base_vpn: int = 0,
        large_base_ppn: int = 0,
    ) -> Optional[TLBEntry]:
        """Fill a translation; return the LRU victim entry, if any."""
        existing = self._entries.get(vpn)
        if existing is not None:
            existing.ppn = ppn
            existing.permissions = permissions
            existing.is_large = is_large
            existing.large_base_vpn = large_base_vpn
            existing.large_base_ppn = large_base_ppn
            self._entries.move_to_end(vpn)
            self._memo_key = vpn
            self._memo_entry = existing
            return None
        victim = None
        if self.capacity is not None and len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
        entry = TLBEntry(vpn=vpn, ppn=ppn, permissions=permissions,
                         is_large=is_large,
                         large_base_vpn=large_base_vpn,
                         large_base_ppn=large_base_ppn)
        self._entries[vpn] = entry
        # The fill is the new MRU; this also covers the capacity-1 case
        # where the evicted victim was the memoized key.
        self._memo_key = vpn
        self._memo_entry = entry
        return victim

    # -- shootdown ------------------------------------------------------
    def invalidate(self, vpn: int, now: float = 0.0) -> bool:
        """Single-entry shootdown; True if an entry was dropped.

        Clears the micro-memo when it holds the shot-down key, so a
        remap/unmap can never be served a stale memoized translation.
        """
        if vpn == self._memo_key:
            self._memo_key = -1
            self._memo_entry = None
        return self._entries.pop(vpn, None) is not None

    def invalidate_all(self, now: float = 0.0) -> int:
        """All-entry shootdown; returns the number of entries dropped."""
        self._memo_key = -1
        self._memo_entry = None
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    # -- stats ----------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
