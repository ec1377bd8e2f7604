"""Workload registry: the 15 simulated benchmarks.

The paper's two suites, with the same names and the same
high/low-translation-bandwidth grouping it uses in §5.2 (Figures 9 and
10 show the high-bandwidth group; the low-bandwidth five see little
change from any MMU design).

``REPRO_SCALE`` (environment variable, default 1.0) scales every
workload's problem size / iteration count — useful for quick test runs
(< 1) or longer, closer-to-paper runs (> 1).  Traces are memoized per
``(name, scale, seed)`` because generation (running the algorithms) can
cost as much as simulating them.

Every generator returns a :class:`~repro.workloads.compiled.CompiledTrace`
— its lanes coalesced once, in one vectorized pass — and :func:`load`
and :func:`load_fresh` hand that object to the caller, so no path
coalesces a trace twice.  When a trace cache directory is configured
(:func:`set_trace_cache`, or the ``REPRO_TRACE_CACHE`` environment
variable — which the setter also exports so spawned pool workers
inherit it), :func:`load` consults an on-disk
:class:`~repro.workloads.compiled.TraceStore` before running any
workload algorithm: a warm process mmaps the precompiled,
precoalesced arrays instead of regenerating, and a cold process
persists the generated compilation so every later process is warm.
:func:`load_fresh` never touches the store — fault injection mutates
page tables, and a mutated compilation must never be shared.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.workloads import pannotia, rodinia
from repro.workloads.compiled import CompiledTrace, TraceStore

__all__ = [
    "HIGH_BANDWIDTH",
    "LOW_BANDWIDTH",
    "PANNOTIA",
    "RODINIA",
    "WORKLOADS",
    "WorkloadFactory",
    "clear_cache",
    "default_scale",
    "is_high_bandwidth",
    "load",
    "load_fresh",
    "set_trace_cache",
    "trace_cache_stats",
]

WorkloadFactory = Callable[..., CompiledTrace]

PANNOTIA: Dict[str, WorkloadFactory] = {
    "bc": pannotia.bc,
    "color_maxmin": pannotia.color_maxmin,
    "color_max": pannotia.color_max,
    "fw": pannotia.fw,
    "fw_block": pannotia.fw_block,
    "mis": pannotia.mis,
    "pagerank": pannotia.pagerank,
    "pagerank_spmv": pannotia.pagerank_spmv,
}

RODINIA: Dict[str, WorkloadFactory] = {
    "kmeans": rodinia.kmeans,
    "backprop": rodinia.backprop,
    "bfs": rodinia.bfs,
    "hotspot": rodinia.hotspot,
    "lud": rodinia.lud,
    "nw": rodinia.nw,
    "pathfinder": rodinia.pathfinder,
}

WORKLOADS: Dict[str, WorkloadFactory] = {**PANNOTIA, **RODINIA}

# §5.2's grouping: all Pannotia kernels plus bfs and lud demand high
# translation bandwidth; the other five Rodinia kernels do not.
HIGH_BANDWIDTH: Tuple[str, ...] = (
    "bc", "color_maxmin", "color_max", "fw", "fw_block", "mis",
    "pagerank", "pagerank_spmv", "bfs", "lud",
)
LOW_BANDWIDTH: Tuple[str, ...] = (
    "kmeans", "backprop", "hotspot", "nw", "pathfinder",
)

_cache: Dict[Tuple[str, float, Optional[int]], CompiledTrace] = {}

# On-disk compiled-trace store.  ``_trace_store`` is resolved lazily
# from REPRO_TRACE_CACHE unless set_trace_cache() pinned it explicitly.
_trace_store: Optional[TraceStore] = None
_trace_store_pinned = False


def set_trace_cache(root: Optional[Union[str, Path]]) -> Optional[TraceStore]:
    """Point :func:`load` at an on-disk compiled-trace store (or disable).

    Also exports (or clears) ``REPRO_TRACE_CACHE`` so pool workers
    spawned by the experiment drivers resolve the same store.  Passing
    ``None`` disables the store and drops any memoized compiled traces.
    """
    global _trace_store, _trace_store_pinned
    _trace_store_pinned = True
    if root is None:
        _trace_store = None
        os.environ.pop("REPRO_TRACE_CACHE", None)
        _cache.clear()
    else:
        _trace_store = TraceStore(Path(root))
        os.environ["REPRO_TRACE_CACHE"] = str(root)
    return _trace_store


def _store() -> Optional[TraceStore]:
    global _trace_store
    if not _trace_store_pinned and _trace_store is None:
        root = os.environ.get("REPRO_TRACE_CACHE")
        if root:
            _trace_store = TraceStore(Path(root))
    return _trace_store


def trace_cache_stats() -> Dict[str, int]:
    """This process's trace-store traffic (all zero when disabled)."""
    store = _store()
    if store is None:
        return {"hits": 0, "misses": 0, "stores": 0}
    return {"hits": store.hits, "misses": store.misses,
            "stores": store.stores}


def default_scale() -> float:
    """The REPRO_SCALE environment override (default 1.0)."""
    try:
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError as exc:
        raise ValueError("REPRO_SCALE must be a number") from exc
    if scale <= 0:
        raise ValueError("REPRO_SCALE must be positive")
    return scale


def load(name: str, scale: Optional[float] = None,
         seed: Optional[int] = None) -> CompiledTrace:
    """Build (or fetch the memoized) compiled trace for workload ``name``.

    A store hit mmaps the stored compilation; a miss, or no store,
    returns the generator's own compilation (a miss persists it first).
    """
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(sorted(WORKLOADS))}"
        )
    if scale is None:
        scale = default_scale()
    key = (name, scale, seed)
    if key not in _cache:
        store = _store()
        trace = store.load(name, scale, seed) if store is not None else None
        if trace is None:
            trace = load_fresh(name, scale, seed)
            if store is not None:
                store.store(trace, scale, seed)
        _cache[key] = trace
    return _cache[key]


def load_fresh(name: str, scale: Optional[float] = None,
               seed: Optional[int] = None) -> CompiledTrace:
    """Build a private, non-memoized trace instance.

    Fault injection mutates the trace's page table (remaps, unmaps), so
    chaos runs must never share the memoized instance other experiments
    see.  The fresh trace is not entered into the cache either.
    """
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(sorted(WORKLOADS))}"
        )
    if scale is None:
        scale = default_scale()
    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return WORKLOADS[name](**kwargs)


def clear_cache() -> None:
    """Drop memoized traces (tests use this to control memory)."""
    _cache.clear()


def is_high_bandwidth(name: str) -> bool:
    """Whether the paper groups this workload as high translation bandwidth."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    return name in HIGH_BANDWIDTH
