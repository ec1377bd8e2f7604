"""DRAM timing model.

Table 1 gives 192 GB/s of memory bandwidth.  At the 700 MHz GPU clock
that is ≈274 bytes per cycle; a 128-byte line fill therefore costs a
little under half a cycle of bandwidth on top of a fixed access latency.
DRAM is modelled as a single bandwidth-limited link — enough to make
memory-bound phases show up without modelling channels/rows.
"""

from __future__ import annotations

from repro.engine.resources import BandwidthLink


__all__ = ["DRAM"]

class DRAM:
    """Fixed-latency, bandwidth-limited main memory."""

    def __init__(
        self,
        latency_cycles: float = 160.0,
        bandwidth_gbps: float = 192.0,
        frequency_ghz: float = 0.7,
        line_size: int = 128,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        bytes_per_cycle = bandwidth_gbps / frequency_ghz
        self.line_size = line_size
        self._link = BandwidthLink(latency=latency_cycles, bytes_per_cycle=bytes_per_cycle)

    @property
    def reads(self) -> int:
        return self._link.total_requests

    def access_line(self, now: float) -> float:
        """Fetch (or write back) one cache line; return completion time."""
        return self._link.request(now, self.line_size)

    def access(self, now: float, n_bytes: int) -> float:
        """Transfer ``n_bytes``; return completion time."""
        return self._link.request(now, n_bytes)
