"""Figure 3: IOMMU TLB access rate analysis.

With 32-entry per-CU TLBs and an *unlimited-bandwidth* shared TLB (the
measurement configuration of the paper — footnote: "assumes that the
IOMMU TLB can be accessed any number of times per cycle, which is
impractical"), samples shared-TLB accesses per cycle over one-
microsecond intervals and reports mean, one standard deviation, and the
maximum, sorted by mean.

Paper findings: about one access per cycle on average, bursts above two
(up to >4), and graph-based (Pannotia) workloads far above traditional
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import bar_chart, section
from repro.engine.stats import RateStats
from repro.experiments.common import ALL_WORKLOADS, GLOBAL_CACHE, ResultCache, resolve_workloads
from repro.experiments.sweepspec import SweepSpec, run_sweep
from repro.system.designs import baseline_unlimited_bandwidth
from repro.workloads.registry import is_high_bandwidth


__all__ = ["Fig3Result", "main", "run"]


@dataclass
class Fig3Result:
    """Per-workload shared-TLB access-rate statistics."""

    rates: Dict[str, RateStats]

    def sorted_workloads(self) -> List[str]:
        """Workloads by descending mean access rate (the figure's x order)."""
        return sorted(self.rates, key=lambda w: self.rates[w].mean, reverse=True)

    def render(self) -> str:
        order = self.sorted_workloads()
        chart = bar_chart(
            [f"{w}{'*' if is_high_bandwidth(w) else ' '}" for w in order],
            [self.rates[w].mean for w in order],
            unit=" acc/cy",
        )
        details = "\n".join(
            f"{w:15s} mean={self.rates[w].mean:6.3f}  std={self.rates[w].std:6.3f}"
            f"  max={self.rates[w].maximum:6.3f}"
            f"  frac>1/cy={self.rates[w].fraction_above(1.0):5.2f}"
            for w in order
        )
        note = ("* = paper's high-translation-bandwidth group; "
                "sorted by mean accesses/cycle (unlimited IOMMU TLB bandwidth)")
        return section("Figure 3: IOMMU TLB accesses per cycle",
                       chart + "\n\n" + details + "\n\n" + note)


def run(cache: ResultCache = None, workloads=None) -> Fig3Result:
    """Regenerate Figure 3."""
    cache = cache if cache is not None else GLOBAL_CACHE
    names = resolve_workloads(workloads, ALL_WORKLOADS)
    design = baseline_unlimited_bandwidth()
    results = run_sweep(
        SweepSpec.grid(names, (design,), name="fig3"), cache).results
    rates = {w: result.iommu_rate for w, result in zip(names, results)}
    return Fig3Result(rates=rates)


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
