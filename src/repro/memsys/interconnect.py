"""On-chip interconnect latencies.

Table 1: a dance-hall NoC inside the GPU (CUs to L2 banks) and a point-
to-point network between the GPU and the rest of the SoC.  Crucially,
translation requests to the IOMMU travel over the PCIe *protocol* even
on-die, adding transfer latency to every private-TLB miss (§2.1, [22]).
Latencies here are one-way fixed costs; contention is modelled at the
endpoint servers, not in the network.
"""

from __future__ import annotations

from dataclasses import dataclass


__all__ = ["InterconnectConfig"]


@dataclass(frozen=True)
class InterconnectConfig:
    """One-way latencies (GPU cycles) between SoC components."""

    l1_to_l2: float = 20.0       # CU/L1 to a shared-L2 bank (dance-hall NoC)
    l2_to_dram: float = 0.0      # folded into the DRAM latency
    gpu_to_iommu: float = 100.0  # PCIe-protocol translation request
    iommu_to_gpu: float = 100.0  # translation response
    l2_to_fbt: float = 10.0      # §5: "10 cycle interconnect latency between a GPU L2 cache and FBT"
    fbt_lookup: float = 5.0      # §5: "5 cycles for FBT lookups"

    def __post_init__(self) -> None:
        for name in (
            "l1_to_l2", "l2_to_dram", "gpu_to_iommu",
            "iommu_to_gpu", "l2_to_fbt", "fbt_lookup",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"latency {name} must be nonnegative")
