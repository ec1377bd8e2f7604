"""Workload calibration harness.

The trace-driven model matches the paper's *regimes*, not its cycle
counts; the knob that anchors a workload in the right regime is its
``issue_interval`` — the compute cycles between memory instructions,
i.e. the arithmetic-intensity of the kernel.  Given a target shared-TLB
demand λ (misses per cycle, the quantity Figure 3 plots), this module
measures a workload and recommends the interval that produces it:

    ideal_cycles(interval) ≈ (instructions × interval + extra_requests) / n_CUs
    λ(interval) = tlb_misses / ideal_cycles(interval)

`calibrate` inverts that relation; `measure` reports the achieved
operating point so a recalibration can be verified.  This is exactly
the procedure that set the intervals baked into
:mod:`repro.workloads.pannotia` and :mod:`repro.workloads.rodinia`
(see DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.report import format_table
from repro.system.config import SoCConfig
from repro.system.designs import BASELINE_512, IDEAL_MMU, VC_WITH_OPT
from repro.system.run import simulate
from repro.workloads.compiled import CompiledTrace


__all__ = [
    "OperatingPoint",
    "calibration_report",
    "measure",
    "recommend_interval",
]


@dataclass
class OperatingPoint:
    """A workload's measured translation-bandwidth operating point."""

    workload: str
    issue_interval: float
    instructions: int
    requests: int
    tlb_misses: int
    vc_translations: int
    ideal_cycles: float
    baseline_cycles: float

    @property
    def demand(self) -> float:
        """Baseline shared-TLB demand λ (misses per ideal cycle)."""
        return self.tlb_misses / self.ideal_cycles if self.ideal_cycles else 0.0

    @property
    def vc_demand(self) -> float:
        """Virtual-hierarchy demand (translations per ideal cycle)."""
        return (self.vc_translations / self.ideal_cycles
                if self.ideal_cycles else 0.0)

    @property
    def baseline_slowdown(self) -> float:
        return (self.baseline_cycles / self.ideal_cycles
                if self.ideal_cycles else 0.0)

    @property
    def filter_rate(self) -> float:
        """Fraction of baseline translation traffic the VC removes."""
        if self.tlb_misses == 0:
            return 0.0
        return 1.0 - self.vc_translations / self.tlb_misses

    def row(self):
        return [self.workload, f"{self.issue_interval:.0f}",
                f"{self.demand:.2f}", f"{self.vc_demand:.2f}",
                f"{self.baseline_slowdown:.2f}x", f"{self.filter_rate:.2f}"]


def measure(trace: CompiledTrace, config: Optional[SoCConfig] = None) -> OperatingPoint:
    """Measure a trace's operating point (three simulations)."""
    config = config if config is not None else SoCConfig()
    tables = {trace.address_space.asid: trace.address_space.page_table}
    ideal = simulate(trace, IDEAL_MMU.build(config, tables),
                     IDEAL_MMU.soc_config(config))
    base = simulate(trace, BASELINE_512.build(config, tables),
                    BASELINE_512.soc_config(config))
    vc = simulate(trace, VC_WITH_OPT.build(config, tables),
                  VC_WITH_OPT.soc_config(config))
    return OperatingPoint(
        workload=trace.name,
        issue_interval=trace.issue_interval,
        instructions=trace.n_instructions,
        requests=base.requests,
        tlb_misses=base.counters.get("tlb.misses", 0),
        vc_translations=vc.counters.get("iommu.accesses", 0),
        ideal_cycles=ideal.cycles,
        baseline_cycles=base.cycles,
    )


def recommend_interval(
    point: OperatingPoint,
    target_demand: float,
    n_cus: int = 16,
    minimum: float = 4.0,
    max_vc_demand: Optional[float] = 0.45,
) -> float:
    """The issue interval putting ``point``'s workload at ``target_demand``.

    Uses the linear issue model: total issue cycles ≈ instructions ×
    interval + (requests − instructions), spread over ``n_cus``.  When
    ``max_vc_demand`` is set, the interval is also stretched until the
    virtual hierarchy's own demand stays under it (so VC ≈ ideal holds,
    as the paper reports even for the streaming workloads).
    """
    if target_demand <= 0:
        raise ValueError("target demand must be positive")
    extra = max(0, point.requests - point.instructions)

    def interval_for(total_translations: float, demand: float) -> float:
        ideal_target = total_translations / demand
        return (ideal_target * n_cus - extra) / max(1, point.instructions)

    interval = interval_for(point.tlb_misses, target_demand)
    if max_vc_demand is not None and point.vc_translations:
        interval = max(interval,
                       interval_for(point.vc_translations, max_vc_demand))
    return max(minimum, interval)


def calibration_report(points: Dict[str, OperatingPoint]) -> str:
    """A table of operating points for a set of measured workloads."""
    rows = [p.row() for p in points.values()]
    return format_table(
        ["workload", "interval", "λ baseline", "λ VC", "slowdown",
         "filter rate"],
        rows,
        title="Calibration operating points",
    )
