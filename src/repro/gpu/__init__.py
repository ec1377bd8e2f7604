"""GPU substrate: coalescer, scratchpad."""

from repro.gpu.coalescer import CoalescedRequest, Coalescer
from repro.gpu.scratchpad import Scratchpad

__all__ = ["CoalescedRequest", "Coalescer", "Scratchpad"]
