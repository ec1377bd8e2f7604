#!/usr/bin/env python
"""Domain example: virtual-memory corner cases on a virtual cache hierarchy.

The hard part of virtual caching was never the happy path — it is
synonyms, TLB shootdowns, and physically-addressed coherence.  This
example drives each §4.1/§4.2 mechanism of the forward-backward table
directly and prints what the hardware does:

* read-only synonyms: detected at the BT and replayed with the leading
  virtual address (no duplication in the caches);
* read-write synonyms: conservatively faulted (GPUs lack precise
  exceptions);
* single-entry TLB shootdown: filtered by the FT when nothing is
  cached, selective invalidation (bit vector) when something is;
* CPU coherence probes: reverse-translated through the BT, or filtered
  outright when the GPU caches nothing from the page.

Run with::

    python examples/synonyms_and_shootdowns.py
"""

from repro.core.virtual_hierarchy import VirtualCacheHierarchy, line_key
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import line_address, page_number
from repro.memsys.directory import CoherenceProbe, Directory
from repro.memsys.permissions import Permissions, ReadWriteSynonymFault
from repro.system.config import SoCConfig


def read(h, cu, va, now):
    return h.access(cu, line_address(va), False, now)


def write(h, cu, va, now):
    return h.access(cu, line_address(va), True, now)


def main() -> None:
    config = SoCConfig()
    space = AddressSpace(asid=0)
    h = VirtualCacheHierarchy(config, {0: space.page_table})

    # -- read-only synonyms ------------------------------------------------
    shared = space.mmap(2, permissions=Permissions.READ_ONLY)
    alias = space.map_synonym(shared)
    print(f"mapped {shared.n_pages} read-only pages at {shared.base_va:#x} "
          f"with a synonym at {alias.base_va:#x}")

    t = read(h, 0, shared.base_va, 0.0)
    t = read(h, 1, alias.base_va, t)  # synonymous access from another CU
    replays = h.counters["vc.synonym_replays"]
    lead = line_key(0, line_address(shared.base_va))
    other = line_key(0, line_address(alias.base_va))
    print(f"  synonym replays: {replays}; "
          f"leading line cached: {h.l2.contains(lead)}, "
          f"alias line cached: {h.l2.contains(other)} "
          f"(no duplication — the BT enforces one leading address)")

    # -- read-write synonyms -------------------------------------------------
    rw = space.mmap(1)
    rw_alias = space.map_synonym(rw)
    t = write(h, 0, rw.base_va, t)
    try:
        read(h, 1, rw_alias.base_va, t)
        print("  ERROR: read-write synonym went undetected!")
    except ReadWriteSynonymFault as fault:
        print(f"  read-write synonym correctly faulted: {fault}")

    # -- TLB shootdown ----------------------------------------------------------
    vpn = page_number(shared.base_va)
    print(f"\nshootdown of cached page {vpn:#x}: "
          f"{'invalidated' if h.shootdown(0, vpn, t) else 'filtered'}")
    print(f"shootdown of never-cached page 0x999: "
          f"{'invalidated' if h.shootdown(0, 0x999, t) else 'filtered by the FT'}")
    print(f"L1 flushes so far: {h.counters['vc.l1_flushes']} "
          f"(invalidation filters spare the untouched CUs)")

    # -- coherence probes ---------------------------------------------------------
    directory = Directory()
    data = space.mmap(1)
    t = read(h, 0, data.base_va, t)
    pa_line = space.translate(data.base_va) // config.line_size
    directory.record_gpu_fill(pa_line)

    probe = h.handle_probe(directory.make_probe(pa_line), t)
    print(f"\nprobe to cached physical line {pa_line:#x}: "
          f"forwarded as virtual line {probe.forwarded_virtual_line:#x}")
    probe2 = h.handle_probe(directory.make_probe(0xABCDE), t)
    print(f"probe to uncached physical line 0xabcde: "
          f"{'filtered by the BT' if probe2.filtered else 'forwarded'}")
    print(f"\nFBT stats: {h.fbt.counters.as_dict()}")


if __name__ == "__main__":
    main()
