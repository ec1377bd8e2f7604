"""repro — Filtering Translation Bandwidth with Virtual Caching (ASPLOS 2018).

A trace-driven GPU memory-system simulator reproducing Yoon, Lowe-Power
and Sohi's virtual cache hierarchy: baseline per-CU-TLB + IOMMU
translation, the forward-backward table (FBT), whole-hierarchy and
L1-only virtual caching, 15 Rodinia/Pannotia-like workloads, and
experiment drivers regenerating every table and figure of the paper.

Quick start::

    from repro import quickstart
    result = quickstart("pagerank")

or at a lower level::

    from repro.workloads.registry import load
    from repro.system import SoCConfig, simulate, BASELINE_512, VC_WITH_OPT

    trace = load("pagerank", scale=0.25)
    config = SoCConfig()
    tables = {0: trace.address_space.page_table}
    base = simulate(trace, BASELINE_512.build(config, tables),
                    BASELINE_512.soc_config(config))
    vc = simulate(trace, VC_WITH_OPT.build(config, tables),
                  VC_WITH_OPT.soc_config(config))
    print(vc.speedup_over(base))
"""

from repro.system.config import SoCConfig
from repro.system.designs import (
    BASELINE_16K,
    BASELINE_512,
    BASELINE_LARGE_PER_CU,
    IDEAL_MMU,
    L1_ONLY_VC_128,
    L1_ONLY_VC_32,
    MMUDesign,
    TABLE2_DESIGNS,
    VC_WITHOUT_OPT,
    VC_WITH_OPT,
)
from repro.obs import (
    JsonLinesTracer,
    MetricsRegistry,
    Observability,
    RecordingTracer,
)
from repro.system.run import SimulationResult, simulate

__version__ = "1.0.0"


def quickstart(workload: str = "pagerank", scale: float = 0.25):
    """Run one workload through the ideal, baseline, and VC designs.

    Returns a dict of design name → :class:`SimulationResult`.
    """
    from repro.workloads.registry import load

    trace = load(workload, scale=scale)
    config = SoCConfig()
    tables = {0: trace.address_space.page_table}
    results = {}
    for design in (IDEAL_MMU, BASELINE_512, VC_WITH_OPT):
        hierarchy = design.build(config, tables)
        results[design.name] = simulate(
            trace, hierarchy, design.soc_config(config), design=design.name
        )
    return results


__all__ = [
    "SoCConfig", "MMUDesign", "TABLE2_DESIGNS",
    "IDEAL_MMU", "BASELINE_512", "BASELINE_16K", "BASELINE_LARGE_PER_CU",
    "VC_WITHOUT_OPT", "VC_WITH_OPT", "L1_ONLY_VC_32", "L1_ONLY_VC_128",
    "SimulationResult", "simulate", "quickstart",
    "Observability", "MetricsRegistry",
    "JsonLinesTracer", "RecordingTracer",
]
