"""Property-based tests (hypothesis) on core data-structure invariants."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fbt import ForwardBackwardTable
from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.page_table import FrameAllocator, PageTable
from repro.memsys.permissions import Permissions, ReadWriteSynonymFault
from repro.memsys.tlb import TLB
from repro.gpu.coalescer import Coalescer

# ---------------------------------------------------------------------------
# Cache vs a reference LRU model
# ---------------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "insert", "invalidate"]),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=200,
)


class ReferenceLRU:
    """A trivially-correct set-associative LRU model."""

    def __init__(self, n_sets, assoc):
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def lookup(self, line):
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return True
        return False

    def insert(self, line):
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = True

    def invalidate(self, line):
        self.sets[line % self.n_sets].pop(line, None)

    def resident(self):
        return {line for s in self.sets for line in s}


@given(cache_ops)
@settings(max_examples=200, deadline=None)
def test_cache_matches_reference_lru(ops):
    cache = Cache(CacheConfig(size_bytes=4 * 4 * 128, line_size=128,
                              associativity=4))  # 4 sets × 4 ways
    ref = ReferenceLRU(n_sets=4, assoc=4)
    for op, line in ops:
        if op == "lookup":
            assert (cache.lookup(line) is not None) == ref.lookup(line)
        elif op == "insert":
            cache.insert(line)
            ref.insert(line)
        else:
            cache.invalidate_line(line)
            ref.invalidate(line)
    assert {l.line_addr for l in cache.resident_lines()} == ref.resident()


@given(cache_ops)
@settings(max_examples=100, deadline=None)
def test_cache_page_counts_consistent(ops):
    cache = Cache(CacheConfig(size_bytes=4 * 4 * 128, line_size=128,
                              associativity=4))
    for op, line in ops:
        if op == "insert":
            cache.insert(line, page=line // 8)
        elif op == "invalidate":
            cache.invalidate_line(line)
        else:
            cache.lookup(line)
    # The page index always agrees with actual residency.
    from collections import Counter
    actual = Counter(l.page for l in cache.resident_lines() if l.page is not None)
    assert dict(actual) == cache.resident_pages()


# ---------------------------------------------------------------------------
# TLB never exceeds capacity; hits+misses == accesses
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=30), max_size=300),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_tlb_capacity_and_accounting(vpns, capacity):
    tlb = TLB(capacity=capacity)
    for vpn in vpns:
        if tlb.lookup(vpn) is None:
            tlb.insert(vpn, vpn + 1000)
        assert len(tlb) <= capacity
    assert tlb.hits + tlb.misses == len(vpns)
    # Every resident translation is correct.
    for vpn in list(vpns):
        entry = tlb.lookup(vpn)
        if entry is not None:
            assert entry.ppn == vpn + 1000


# ---------------------------------------------------------------------------
# Page table: mapping then walking is the identity
# ---------------------------------------------------------------------------

@given(st.dictionaries(st.integers(min_value=0, max_value=2 ** 36 - 1),
                       st.integers(min_value=0, max_value=2 ** 24 - 1),
                       max_size=50))
@settings(max_examples=100, deadline=None)
def test_page_table_roundtrip(mappings):
    pt = PageTable(FrameAllocator())
    for vpn, ppn in mappings.items():
        pt.map(vpn, ppn)
    for vpn, ppn in mappings.items():
        walk = pt.walk(vpn)
        assert walk.ppn == ppn
        assert len(walk.node_addresses) == 4
        assert pt.lookup(vpn) == (ppn, Permissions.READ_WRITE)
    assert pt.n_mappings == len(mappings)


# ---------------------------------------------------------------------------
# Coalescer: lane-preserving, line-deduplicating
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=1,
                max_size=32))
@settings(max_examples=200, deadline=None)
def test_coalescer_partitions_lanes(addresses):
    reqs = Coalescer(line_size=128).coalesce(addresses)
    # Every lane lands in exactly one request...
    assert sum(r.n_lanes for r in reqs) == len(addresses)
    # ...request line addresses are unique and cover exactly the lines.
    lines = [r.line_addr for r in reqs]
    assert len(lines) == len(set(lines))
    assert set(lines) == {a // 128 for a in addresses}


# ---------------------------------------------------------------------------
# FBT invariants under random access streams
# ---------------------------------------------------------------------------

fbt_accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),   # vpn
        st.integers(min_value=0, max_value=7),    # ppn
        st.integers(min_value=0, max_value=31),   # line index
        st.booleans(),                            # write
    ),
    max_size=150,
)


@given(fbt_accesses)
@settings(max_examples=150, deadline=None)
def test_fbt_ft_bt_bijection(accesses):
    fbt = ForwardBackwardTable(n_entries=16, associativity=2,
                               fault_on_rw_synonym=False)
    for vpn, ppn, line_index, is_write in accesses:
        check = fbt.check_access(0, vpn, ppn, Permissions.READ_WRITE,
                                 line_index, is_write)
        entry = check.entry
        if check.status != "synonym":
            fbt.note_l2_fill(ppn, line_index)
        # Invariant: the FT maps each live entry's leading page back to it.
        assert fbt.ft.lookup(entry.leading_asid, entry.leading_vpn) is entry

    # Global invariants: FT and BT pair one-to-one; leading pages unique.
    entries = fbt.bt.entries()
    assert len(fbt.ft) == len(entries)
    leading = [(e.leading_asid, e.leading_vpn) for e in entries]
    assert len(set(leading)) == len(leading)
    for e in entries:
        assert fbt.ft.lookup(e.leading_asid, e.leading_vpn) is e
        assert fbt.forward_translate(e.leading_asid, e.leading_vpn)[0] == e.ppn


@given(fbt_accesses)
@settings(max_examples=100, deadline=None)
def test_fbt_rw_synonym_fault_conditions(accesses):
    """With faulting on, a raised fault always involves a true synonym."""
    fbt = ForwardBackwardTable(n_entries=64, associativity=4)
    leading_of = {}
    for vpn, ppn, line_index, is_write in accesses:
        try:
            fbt.check_access(0, vpn, ppn, Permissions.READ_WRITE,
                             line_index, is_write)
        except ReadWriteSynonymFault as fault:
            assert fault.ppn == ppn
            assert fault.vpn == vpn
            assert fault.leading_vpn != vpn
            continue
        entry = fbt.bt.peek(ppn)
        if entry is not None:
            leading_of[ppn] = entry.leading_vpn


# ---------------------------------------------------------------------------
# BT bit vector == L2 contents, end to end through the hierarchy
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),   # cu
                          st.integers(min_value=0, max_value=11),  # page
                          st.integers(min_value=0, max_value=31),  # line
                          st.booleans()),                          # write
                max_size=120))
@settings(max_examples=60, deadline=None)
def test_vc_bit_vectors_track_l2_exactly(accesses):
    from repro.core.virtual_hierarchy import VirtualCacheHierarchy, line_key
    from repro.memsys.address_space import AddressSpace
    from repro.memsys.iommu import IOMMUConfig
    from repro.system.config import SoCConfig

    config = SoCConfig(
        n_cus=4,
        l1=CacheConfig(size_bytes=2 * 1024, line_size=128, associativity=2,
                       write_back=False, write_allocate=False),
        l2=CacheConfig(size_bytes=16 * 1024, line_size=128, associativity=4,
                       n_banks=2, write_back=True, write_allocate=True),
        per_cu_tlb_entries=None,
        iommu=IOMMUConfig(shared_tlb_entries=16),
        fbt_entries=32,
        fbt_associativity=4,
    )
    space = AddressSpace(asid=0)
    m = space.mmap(12)
    h = VirtualCacheHierarchy(config, {0: space.page_table})
    t = 0.0
    for cu, page, line, is_write in accesses:
        va = m.base_va + page * 4096 + line * 128
        t = h.access(cu, va // 128, is_write, t) + 1

    # For every BT entry, the bit vector equals the L2's actual contents.
    for entry in h.fbt.bt.entries():
        for idx in range(32):
            key = line_key(entry.leading_asid,
                           entry.leading_vpn * 32 + idx)
            assert entry.line_cached(idx) == h.l2.contains(key), (
                f"page {entry.leading_vpn:#x} line {idx}"
            )
