"""Set-associative cache model.

The same mechanical cache backs every cache-like structure in the SoC:
the per-CU 32 KB L1s (write-through, no write-allocate), the shared 2 MB
8-banked L2 (write-back), and the 8 KB page-walk cache.  Whether the
cache is indexed by virtual or physical line addresses is the *caller's*
choice — the cache just stores line addresses plus per-line metadata
(dirty bit, page permissions, and for virtual caches the owning virtual
page, which is what the extra "virtual tag" bits in §4.3 pay for).

Replacement is LRU within a set.  Eviction returns the victim so the
hierarchy can write back dirty data and keep the backward table's
inclusion bit vectors up to date.

This module is the innermost ring of the simulation hot path — every
coalesced request performs one to three cache lookups — so the access
methods are deliberately flat: set selection is a bitmask (the
power-of-two set count makes ``%`` a bit slice, as in hardware), the
resident-line count is maintained incrementally instead of summed on
demand, and :class:`CacheLine` uses ``__slots__`` to keep per-line
records small and attribute access cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.memsys.addressing import is_power_of_two, lines_per_page
from repro.memsys.permissions import Permissions


__all__ = ["Cache", "CacheConfig", "CacheLine"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache.

    ``size_bytes``/``line_size``/``associativity`` must give a
    power-of-two number of sets so simple modulo indexing is a bit
    slice, as in hardware.
    """

    size_bytes: int
    line_size: int = 128
    associativity: int = 8
    n_banks: int = 1
    write_back: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ValueError("cache size must divide evenly into sets")
        if not is_power_of_two(self.n_sets):
            raise ValueError(f"number of sets ({self.n_sets}) must be a power of two")
        if self.n_banks < 1:
            raise ValueError("need at least one bank")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


class CacheLine:
    """Metadata stored with each resident line."""

    __slots__ = ("line_addr", "dirty", "permissions", "page")

    def __init__(
        self,
        line_addr: int,
        dirty: bool = False,
        permissions: Permissions = Permissions.READ_WRITE,
        page: Optional[int] = None,  # owning page number (virtual for VCs)
    ) -> None:
        self.line_addr = line_addr
        self.dirty = dirty
        self.permissions = permissions
        self.page = page

    def __repr__(self) -> str:
        return (
            f"CacheLine(line_addr={self.line_addr!r}, dirty={self.dirty!r}, "
            f"permissions={self.permissions!r}, page={self.page!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheLine):
            return NotImplemented
        return (
            self.line_addr == other.line_addr
            and self.dirty == other.dirty
            and self.permissions == other.permissions
            and self.page == other.page
        )


class Cache:
    """An LRU set-associative cache of line addresses."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._sets: List[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        # Power-of-two set count (validated by CacheConfig): indexing is
        # a bitmask, exactly the bit slice hardware uses.
        self._set_mask = config.n_sets - 1
        self._associativity = config.associativity
        self._n_resident = 0
        # page number -> count of resident lines, for fast page invalidation
        self._page_lines: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    # -- indexing -------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def bank_of(self, line_addr: int) -> int:
        """Bank selected by the line address modulo the bank count.

        Low-order interleaving sends consecutive lines to different
        banks, so streaming accesses spread across the banked L2 instead
        of serializing on one bank.  (For a power-of-two bank count
        below the set count, these are the low bits that *start* the
        set index — the bank is a slice of the set bits.)
        """
        return line_addr % self.config.n_banks

    # -- queries --------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        """Probe without touching LRU state or hit/miss counters."""
        return line_addr in self._sets[line_addr & self._set_mask]

    def peek(self, line_addr: int) -> Optional[CacheLine]:
        """Return the resident line's metadata without LRU update."""
        return self._sets[line_addr & self._set_mask].get(line_addr)

    def __len__(self) -> int:
        return self._n_resident

    def resident_lines(self) -> Iterable[CacheLine]:
        """Iterate over every resident line (test/diagnostic helper)."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def resident_pages(self) -> Dict[int, int]:
        """Map of page number → number of resident lines from that page."""
        return dict(self._page_lines)

    # -- access path ----------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Access a line: on hit, refresh LRU and return it; else None."""
        cache_set = self._sets[line_addr & self._set_mask]
        line = cache_set.get(line_addr)
        if line is None:
            self.misses += 1
            return None
        cache_set.move_to_end(line_addr)
        self.hits += 1
        return line

    def insert(
        self,
        line_addr: int,
        dirty: bool = False,
        permissions: Permissions = Permissions.READ_WRITE,
        page: Optional[int] = None,
    ) -> Optional[CacheLine]:
        """Fill ``line_addr``; return the evicted victim line, if any.

        Inserting a line that is already resident refreshes its LRU
        position and merges the dirty bit (a write-back cache must not
        lose dirtiness on a refill).
        """
        cache_set = self._sets[line_addr & self._set_mask]
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            existing.permissions = permissions
            cache_set.move_to_end(line_addr)
            return None
        victim = None
        if len(cache_set) >= self._associativity:
            _, victim = cache_set.popitem(last=False)
            self._n_resident -= 1
            if victim.page is not None:
                self._forget_page_line(victim)
        cache_set[line_addr] = CacheLine(line_addr, dirty, permissions, page)
        self._n_resident += 1
        if page is not None:
            page_lines = self._page_lines
            page_lines[page] = page_lines.get(page, 0) + 1
        return victim

    def mark_dirty(self, line_addr: int) -> bool:
        """Set the dirty bit of a resident line; False if not resident."""
        line = self._sets[line_addr & self._set_mask].get(line_addr)
        if line is None:
            return False
        line.dirty = True
        return True

    # -- invalidation ---------------------------------------------------
    def invalidate_line(self, line_addr: int) -> Optional[CacheLine]:
        """Drop one line; return it (caller handles write-back) or None."""
        cache_set = self._sets[line_addr & self._set_mask]
        line = cache_set.pop(line_addr, None)
        if line is not None:
            self._n_resident -= 1
            if line.page is not None:
                self._forget_page_line(line)
        return line

    def invalidate_page(self, page: int) -> List[CacheLine]:
        """Drop every resident line belonging to ``page``; return them.

        Used for FBT-entry evictions and TLB shootdowns, where all data
        cached under a virtual page must leave the hierarchy.
        """
        if self._page_lines.get(page, 0) == 0:
            return []
        dropped: List[CacheLine] = []
        for cache_set in self._sets:
            for line_addr in [a for a, ln in cache_set.items() if ln.page == page]:
                dropped.append(cache_set.pop(line_addr))
        self._n_resident -= len(dropped)
        self._page_lines.pop(page, None)
        return dropped

    def invalidate_all(self) -> List[CacheLine]:
        """Flush the whole cache; return all previously resident lines."""
        dropped: List[CacheLine] = []
        for cache_set in self._sets:
            dropped.extend(cache_set.values())
            cache_set.clear()
        self._n_resident = 0
        self._page_lines.clear()
        return dropped

    def _forget_page_line(self, line: CacheLine) -> None:
        remaining = self._page_lines.get(line.page, 0) - 1
        if remaining > 0:
            self._page_lines[line.page] = remaining
        else:
            self._page_lines.pop(line.page, None)

    # -- stats ----------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def lines_of_page_resident(self, page: int) -> int:
        """How many lines of ``page`` are currently resident."""
        return self._page_lines.get(page, 0)

    def max_lines_per_page(self) -> int:
        """Upper bound used to size per-page bit vectors."""
        return lines_per_page(self.config.line_size)
