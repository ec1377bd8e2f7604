#!/usr/bin/env python
"""Domain example: bring your own workload.

Shows the full public API for evaluating a *custom* kernel against the
MMU designs: lay out data structures in a simulated address space,
record the per-lane addresses your kernel would issue (here: a sparse
embedding-table lookup, the kind of gather that dominates recommender
inference), and run it through the Table 2 designs.

The embedding gather is deliberately pathological for TLBs — every lane
reads a different row of a multi-megabyte table — yet row popularity is
Zipf-skewed, so the caches keep the hot rows. Exactly the regime where
the paper says a virtual cache hierarchy shines.

Run with::

    python examples/custom_workload.py
"""

import numpy as np

from repro import (
    BASELINE_512,
    IDEAL_MMU,
    TABLE2_DESIGNS,
    SoCConfig,
    simulate,
)
from repro.analysis.report import format_table
from repro.memsys.address_space import AddressSpace
from repro.workloads.device import (
    WRITE,
    DeviceArray,
    TraceBuilder,
    warp_lanes,
    warp_schedule,
    warp_slots,
)

N_CUS = 16


def build_embedding_trace(
    n_rows: int = 200_000,
    row_bytes: int = 64,
    n_lookups: int = 48_000,
    zipf_exponent: float = 1.2,
    seed: int = 7,
):
    """An embedding-table inference kernel as a memory trace."""
    rng = np.random.default_rng(seed)
    space = AddressSpace(asid=0)
    tb = TraceBuilder(n_cus=N_CUS)

    table = DeviceArray(space, n_rows * (row_bytes // 4), 4, "embedding_table")
    indices = DeviceArray(space, n_lookups, 4, "lookup_indices")
    output = DeviceArray(space, n_lookups * (row_bytes // 4), 4, "output")

    # Zipf-popular rows, scattered over the table (as hashed IDs are).
    ranks = np.arange(1, n_rows + 1) ** (-zipf_exponent)
    cdf = np.cumsum(ranks / ranks.sum())
    perm = rng.permutation(n_rows)
    rows = perm[np.searchsorted(cdf, rng.random(n_lookups))]

    # One warp per 32 lookups, dealt to the CUs round-robin; lane l of a
    # warp handles lookup start + l.
    cus, starts, counts = warp_schedule(n_lookups, N_CUS)
    lookup = warp_lanes(starts, counts)
    # Per warp, in program order: (lane addresses, live lanes, flags).
    tb.emit_block(*warp_slots(cus, [
        # Load the indices (streaming, coalesced)...
        (indices.addr_array(lookup), counts, 0),
        # ...gather one embedding row per lane (the divergent access)...
        (table.addr_array(rows[lookup] * (row_bytes // 4)), counts, 0),
        # ...and store the pooled result.
        (output.addr_array(lookup), counts, WRITE),
    ]))

    return tb.build("embedding_lookup", space, issue_interval=40.0,
                    suite="custom", high_bandwidth=True)


def main() -> None:
    trace = build_embedding_trace()
    print(f"embedding workload: {trace.n_instructions} instructions, "
          f"{trace.footprint_pages()} pages, "
          f"divergence {trace.mean_divergence():.1f}\n")

    config = SoCConfig()
    page_tables = {0: trace.address_space.page_table}
    rows = []
    ideal_cycles = None
    for design in TABLE2_DESIGNS:
        hierarchy = design.build(config, page_tables)
        result = simulate(trace, hierarchy, design.soc_config(config),
                          design=design.name)
        if ideal_cycles is None:
            ideal_cycles = result.cycles  # IDEAL MMU is first in Table 2
        rows.append([
            design.name,
            f"{result.cycles:,.0f}",
            f"{ideal_cycles / result.cycles:.2f}",
            f"{result.counters.get('iommu.accesses', 0):,}",
        ])
    print(format_table(
        ["design", "cycles", "perf vs IDEAL", "IOMMU TLB accesses"], rows,
    ))


if __name__ == "__main__":
    main()
