"""Wire protocol for the simulation service.

The server and client speak plain JSON over HTTP.  This module owns
everything both sides must agree on without importing each other:

* **Request validation** — :func:`parse_simulate_request` turns a
  decoded JSON body into validated :class:`PointSpec` records, raising
  :class:`ProtocolError` (which carries the HTTP status to answer
  with) on anything malformed: unknown workloads or designs, bad
  scales, non-scalar config overrides.  Each field goes through the
  same check a :class:`~repro.experiments.sweepspec.SweepSpec` field
  does (a design is a canonical Table 2 name such as ``"VC With
  OPT"``, its slug ``"vc-with-opt"``, or an inline design object), and
  every :class:`~repro.experiments.sweepspec.SweepSpecError` becomes a
  400.  :func:`parse_sweep_request` validates a whole spec.
* **Result payloads** — :func:`result_payload` serializes one slim
  :class:`~repro.system.run.SimulationResult` plus its cache-tier
  provenance (``memo`` — served from the in-process memo; ``disk`` —
  loaded from the persistent cache; ``computed`` — a fresh simulation
  ran for this request).

Every point's identity is the same complete fingerprint the disk cache
uses (:func:`~repro.experiments.disk_cache.point_fingerprint`), so
single-flight coalescing, the disk cache, and sweep checkpoints all
agree on what "the same point" means.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments import sweepspec
from repro.experiments.disk_cache import point_fingerprint
from repro.system.config import SoCConfig
from repro.system.designs import DESIGNS_BY_NAME, MMUDesign, design_slug
from repro.system.run import SimulationResult

__all__ = [
    "DESIGNS_BY_NAME",
    "ERROR_BAD_REQUEST",
    "ERROR_DEADLINE",
    "ERROR_DRAINING",
    "ERROR_INTERNAL",
    "ERROR_NOT_FOUND",
    "ERROR_NO_REPLICAS",
    "ERROR_OVERLOADED",
    "ERROR_SWEEP_FAILED",
    "PointSpec",
    "ProtocolError",
    "design_slug",
    "parse_deadline_header",
    "parse_simulate_request",
    "parse_sweep_request",
    "result_payload",
]

#: Machine-readable error codes carried in every error body.
ERROR_BAD_REQUEST = "bad_request"
ERROR_NOT_FOUND = "not_found"
ERROR_DRAINING = "draining"
ERROR_SWEEP_FAILED = "sweep_failed"
ERROR_INTERNAL = "internal_error"
#: The sharding gateway ran out of healthy replicas for a request.
ERROR_NO_REPLICAS = "no_replicas"
#: Admission control shed the request: accepting it would push the
#: server past its ``max_inflight`` point budget.  Answered with 429
#: and a ``Retry-After`` hint.
ERROR_OVERLOADED = "overloaded"
#: The caller's ``X-Deadline-Ms`` budget ran out before (or while)
#: computing the request; answered with 504 instead of dead work.
ERROR_DEADLINE = "deadline_exceeded"

#: Hard cap on points per request: a service request is an experiment
#: wave, not an unbounded sweep (run those through the CLI).
MAX_POINTS_PER_REQUEST = 256


class ProtocolError(ValueError):
    """A request the service must reject, with the HTTP status to use.

    ``retry_after`` (seconds, optional) is surfaced as a ``Retry-After``
    header so shed requests (429) carry a concrete back-off hint.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def body(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.code, "message": self.message}
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return body

    def headers(self) -> Dict[str, str]:
        """Extra response headers this error carries (may be empty)."""
        if self.retry_after is None:
            return {}
        return {"Retry-After": format(max(0.0, self.retry_after), ".3f")}


def parse_deadline_header(headers: Mapping[str, str]) -> Optional[float]:
    """Parse ``X-Deadline-Ms`` into an absolute ``time.monotonic`` instant.

    Returns ``None`` when the header is absent.  A non-numeric value is
    a 400; a budget that is already spent (``<= 0``) is answered 504
    up front — accepting it would only produce dead work.
    """
    value = headers.get("x-deadline-ms")
    if value is None:
        return None
    try:
        ms = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"X-Deadline-Ms must be a number of milliseconds, got {value!r}")
    if ms <= 0:
        raise ProtocolError(
            504, ERROR_DEADLINE,
            "deadline already exhausted on arrival (X-Deadline-Ms <= 0)")
    return time.monotonic() + ms / 1000.0


@dataclass(frozen=True)
class PointSpec:
    """One fully resolved experiment point a request asks for.

    ``fingerprint`` is the complete identity (workload, scale, design,
    lifetimes, invariant auditing, config hash) shared with the disk
    cache and checkpoint layers; the server keys single-flight
    coalescing on it.
    """

    workload: str
    design: MMUDesign
    track_lifetimes: bool
    scale: float
    config: SoCConfig
    check_invariants: bool
    fingerprint: str

    @classmethod
    def build(
        cls,
        workload: str,
        design: MMUDesign,
        track_lifetimes: bool,
        scale: float,
        config: SoCConfig,
        check_invariants: bool,
    ) -> "PointSpec":
        return cls(
            workload=workload,
            design=design,
            track_lifetimes=track_lifetimes,
            scale=scale,
            config=config,
            check_invariants=check_invariants,
            fingerprint=point_fingerprint(
                workload, scale, design, track_lifetimes, config,
                check_invariants=check_invariants),
        )


def parse_simulate_request(
    body: Any,
    default_scale: float,
    base_config: SoCConfig,
    check_invariants: bool = False,
) -> List[PointSpec]:
    """Validate a decoded ``/v1/simulate`` (or job-submit) body.

    Accepts either ``{"points": [{...}, ...]}`` or a single-point
    shorthand ``{"workload": ..., "design": ...}``.  Request-level
    ``scale`` and ``config`` apply to every point.  The returned list
    preserves request order (duplicates included — the server coalesces
    them, the response answers each).  Fields are checked as in a
    :class:`~repro.experiments.sweepspec.SweepSpec`, but no spec is
    built: a point's unknown keys are ignored, and an inline design may
    reuse a preset's name.
    """
    try:
        return _simulate_points(body, default_scale, base_config,
                                check_invariants)
    except sweepspec.SweepSpecError as exc:
        raise ProtocolError(400, ERROR_BAD_REQUEST, str(exc))


def _simulate_points(body: Any, default_scale: float,
                     base_config: SoCConfig,
                     check_invariants: bool) -> List[PointSpec]:
    if not isinstance(body, dict):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"request body must be a JSON object, got {type(body).__name__}")
    scale = sweepspec.validate_scale(body.get("scale"))
    if scale is None:
        scale = default_scale
    config = base_config
    if body.get("config") is not None:
        config = sweepspec.apply_overrides(base_config, body["config"])

    if "points" in body:
        raw_points = body["points"]
        if not isinstance(raw_points, list) or not raw_points:
            raise ProtocolError(
                400, ERROR_BAD_REQUEST,
                "'points' must be a non-empty array of point objects")
    elif "workload" in body or "design" in body:
        raw_points = [body]
    else:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            "request needs either 'points' or a 'workload'/'design' pair")
    if len(raw_points) > MAX_POINTS_PER_REQUEST:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"too many points in one request "
            f"({len(raw_points)} > {MAX_POINTS_PER_REQUEST})")

    specs: List[PointSpec] = []
    for index, raw in enumerate(raw_points):
        where = f"points[{index}]"
        if not isinstance(raw, dict):
            raise ProtocolError(
                400, ERROR_BAD_REQUEST,
                f"{where} must be an object, got {type(raw).__name__}")
        workload = sweepspec.resolve_workload(raw.get("workload"), where)
        design = sweepspec.resolve_design(raw.get("design"), where)
        track = sweepspec.require_bool(raw.get("track_lifetimes", False),
                                       f"{where}.track_lifetimes")
        specs.append(PointSpec.build(
            workload, design, track, scale, config, check_invariants))
    return specs


def parse_sweep_request(
    body: Any,
    default_scale: float,
    base_config: SoCConfig,
    check_invariants: bool = False,
) -> Tuple[sweepspec.SweepSpec, List[PointSpec]]:
    """Validate a ``/v1/sweep`` body: ``{"sweep": {<SweepSpec JSON>}}``.

    The spec's own strict validation runs first (every
    :class:`~repro.experiments.sweepspec.SweepSpecError` maps to 400
    with the spec's message), then service policy applies on top:

    * fault-plan specs are rejected — fault injection mutates page
      tables, so those runs are never cacheable and run CLI-side only;
    * ``check_invariants: true`` requires a server started with
      auditing on, otherwise its fingerprints could never match the
      server's cache tiers;
    * the expanded point list is capped at ``MAX_POINTS_PER_REQUEST``
      like any other request.

    Returns the parsed spec plus its fully resolved points (spec order,
    one :class:`PointSpec` per point).
    """
    if not isinstance(body, dict):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"request body must be a JSON object, got {type(body).__name__}")
    unknown = sorted(set(body) - {"sweep"})
    if unknown:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"a sweep request carries only a 'sweep' object; unknown "
            f"key(s) {', '.join(map(repr, unknown))}")
    if "sweep" not in body:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST, "request needs a 'sweep' object")
    try:
        spec = sweepspec.SweepSpec.from_dict(body["sweep"])
        config = spec.apply_config(base_config)
    except sweepspec.SweepSpecError as exc:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST, f"invalid sweep spec: {exc}")
    if spec.faults is not None:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            "fault-plan sweeps are not served over the wire (fault "
            "injection is never cached); run the spec through "
            "'repro-experiment sweep' instead")
    if spec.check_invariants and not check_invariants:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            "spec requests check_invariants but this server runs without "
            "invariant auditing; start it with --check-invariants")
    scale = spec.scale if spec.scale is not None else default_scale
    points = spec.resolved_points()
    if len(points) > MAX_POINTS_PER_REQUEST:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"sweep expands to too many points "
            f"({len(points)} > {MAX_POINTS_PER_REQUEST})")
    return spec, [
        PointSpec.build(workload, design, track, scale, config,
                        check_invariants)
        for workload, design, track in points
    ]


def result_payload(
    spec: PointSpec,
    result: SimulationResult,
    tier: str,
    coalesced: bool,
    include_counters: bool = False,
) -> Dict[str, Any]:
    """JSON-ready payload for one resolved point.

    ``tier`` is the cache tier that satisfied the point for *this*
    request; ``coalesced`` marks points that joined another request's
    in-flight computation rather than starting their own.
    """
    payload: Dict[str, Any] = {
        "workload": spec.workload,
        "design": spec.design.name,
        "design_slug": design_slug(spec.design.name),
        "scale": spec.scale,
        "track_lifetimes": spec.track_lifetimes,
        "fingerprint": spec.fingerprint,
        "tier": tier,
        "coalesced": coalesced,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "requests": result.requests,
        "wall_clock_seconds": result.wall_clock_seconds,
    }
    if include_counters:
        payload["counters"] = dict(result.counters)
    return payload
