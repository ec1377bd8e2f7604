"""Observability: tracing, metrics, and run manifests.

This package is the simulator's measurement layer.  The paper's claims
are about *where time goes* — queueing at the shared IOMMU TLB port,
not walk latency — and flat end-of-run counters cannot show that.  The
four pieces here can:

* :mod:`repro.obs.tracer` — structured per-request event tracing
  (JSON-lines), zero-overhead when disabled;
* :mod:`repro.obs.metrics` — a hierarchical registry of counters,
  gauges, and log-scale latency histograms (p50/p95/p99);
* :mod:`repro.obs.manifest` — JSON run artifacts (config, workload,
  design, git SHA, wall-clock, all metrics);
* :mod:`repro.obs.trace_context` — span identity for wall-clock
  ``span`` records: service requests, and the pipeline stages the
  CLI's ``--profile`` prints.

:class:`Observability` bundles them so one object threads through the
hierarchy constructors, the IOMMU, and ``simulate()``:

>>> from repro.obs import Observability, RecordingTracer
>>> obs = Observability(tracer=RecordingTracer())
>>> # hierarchy = VC_WITH_OPT.build(config, page_tables, obs=obs)
>>> # result = simulate(trace, hierarchy, config, obs=obs)

Attaching an ``Observability`` never changes simulated timing: the
instrumentation only *observes* the timestamps the timing model already
computes.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.manifest import (
    build_manifest,
    git_sha,
    load_manifest,
    write_manifest,
)
from repro.obs.metrics import LatencyHistogram, MetricsRegistry, MetricsScope
from repro.obs.promexp import render_prometheus, validate_exposition
from repro.obs.timeline import Timeline
from repro.obs.trace_context import ContextTracer, TraceContext
from repro.obs.tracer import (
    NULL_TRACER,
    JsonLinesTracer,
    NullTracer,
    RecordingTracer,
)

__all__ = [
    "NULL_TRACER",
    "ContextTracer",
    "JsonLinesTracer",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsScope",
    "NullTracer",
    "Observability",
    "RecordingTracer",
    "Timeline",
    "TraceContext",
    "build_manifest",
    "git_sha",
    "load_manifest",
    "render_prometheus",
    "validate_exposition",
    "write_manifest",
]


class Observability:
    """A tracer + metrics registry travelling together.

    Components accept ``obs=None``; when None they skip all
    instrumentation (the zero-overhead default) and the physical and
    full-VC hierarchies run their compiled access paths.  Attaching a
    bundle selects the instrumented method paths; the tracer may still
    be :data:`NULL_TRACER` — metrics and manifests work without
    tracing.  (Wall-clock pipeline profiling is not part of the
    bundle: it times the pipeline around the simulator, so its tracer
    rides on :class:`~repro.experiments.common.ResultCache` instead.)
    """

    def __init__(
        self,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def tracing(self) -> bool:
        """True when the attached tracer actually records events."""
        return self.tracer.enabled

    def with_fields(self, **fields) -> "Observability":
        """A view whose tracer stamps ``fields`` onto every event.

        Metrics are *shared* with this bundle — only the
        tracer is wrapped (see :class:`~repro.obs.trace_context.ContextTracer`),
        which is how a trace context binds to the events a simulation
        emits.  When tracing is off this returns ``self`` unchanged,
        preserving the zero-overhead path.
        """
        if not fields or not self.tracer.enabled:
            return self
        return Observability(
            tracer=ContextTracer(self.tracer, **fields),
            metrics=self.metrics,
        )

    def close(self) -> None:
        """Release the tracer's sink (flushes a file-backed trace)."""
        self.tracer.close()
