"""Shared-resource queueing models and statistics primitives."""

from repro.engine.resources import (
    BandwidthLink,
    BankedServer,
    ThreadPool,
    ThroughputServer,
)
from repro.engine.stats import (
    Counters,
    IntervalSampler,
    LifetimeTracker,
    RateStats,
    cdf,
    fraction_at_or_below,
)

__all__ = [
    "ThroughputServer",
    "BankedServer",
    "ThreadPool",
    "BandwidthLink",
    "Counters",
    "IntervalSampler",
    "LifetimeTracker",
    "RateStats",
    "cdf",
    "fraction_at_or_below",
]
