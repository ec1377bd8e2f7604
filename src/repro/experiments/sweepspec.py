"""Declarative sweep plans: one serializable spec for every entry point.

A :class:`SweepSpec` is the single, versioned, JSON-(de)serializable
description of an experiment sweep — *which* points to run (a
``workloads × designs`` grid or an explicit point list), *how* to run
them (scale, scalar :class:`~repro.system.config.SoCConfig` overrides,
lifetime tracking, invariant auditing, an optional fault plan), and
*what* to report (output selection).  The same spec drives:

* the figure drivers (:mod:`repro.experiments.fig4` and friends build
  their point enumerations as specs and run them through
  :func:`run_sweep`),
* the CLI (``repro-experiment sweep SPEC.json``),
* the service (``POST /v1/sweep`` — validated by
  :func:`repro.service.protocol.parse_sweep_request`, journaled as a
  durable job, shardable through the gateway).

Validation is strict and typed: every rejected spec raises a
:class:`SweepSpecError` subclass with a precise message, which the
service maps to HTTP 400.  The field checks (:func:`resolve_workload`,
:func:`resolve_design`, :func:`validate_scale`, :func:`require_bool`,
:func:`apply_overrides`) are public: ``/v1/simulate`` validates its
points with them without building a spec.
:meth:`SweepSpec.fingerprint` is a stable SHA-256 over the canonical
serialized form (the optional ``name`` label excluded), so identical
plans hash identically regardless of JSON key order or which defaults
were spelled out.

The generated schema reference lives at ``docs/SWEEPSPEC.md``
(:mod:`repro.experiments.spec_doc` renders it; a drift test keeps it
honest).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.system.config import SoCConfig
from repro.system.designs import (
    MMUDesign,
    design_from_dict,
    design_slug,
    design_to_dict,
    lookup_design,
)
from repro.workloads import registry

__all__ = [
    "BadFieldError",
    "BadScaleError",
    "ConflictingFieldsError",
    "FaultSpec",
    "OutputSpec",
    "SPEC_VERSION",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "SweepSpecError",
    "UnknownDesignError",
    "UnknownWorkloadError",
    "VersionSkewError",
    "apply_overrides",
    "design_to_wire",
    "require_bool",
    "resolve_design",
    "resolve_workload",
    "run_sweep",
    "validate_scale",
]

#: The current spec schema version.  Bump on any incompatible change;
#: :class:`VersionSkewError` rejects every other value so a spec written
#: for a different schema can never be silently misread.
SPEC_VERSION = 1


# -- the typed error taxonomy (each maps to HTTP 400 on /v1/sweep) --------

class SweepSpecError(ValueError):
    """Base class: a sweep spec that failed validation."""


class UnknownDesignError(SweepSpecError):
    """A design slug/name that matches no preset."""


class UnknownWorkloadError(SweepSpecError):
    """A workload name missing from the registry."""


class BadScaleError(SweepSpecError):
    """A scale that is not a positive number (or null)."""


class ConflictingFieldsError(SweepSpecError):
    """Fields that contradict each other (grid + points, faults + lifetimes)."""


class VersionSkewError(SweepSpecError):
    """A spec written for a different schema version."""


class BadFieldError(SweepSpecError):
    """Any other malformed field: unknown keys, wrong types, bad overrides."""


def _known_design_slugs() -> List[str]:
    from repro.system.designs import PRESET_DESIGNS

    return sorted({design_slug(d.name) for d in PRESET_DESIGNS})


def resolve_design(entry: Any, where: str) -> MMUDesign:
    """One design entry — a preset slug/name or an inline object."""
    if isinstance(entry, str):
        design = lookup_design(entry)
        if design is None:
            raise UnknownDesignError(
                f"{where}: unknown design {entry!r}; known designs: "
                f"{', '.join(_known_design_slugs())} (or an inline design "
                f"object)")
        return design
    if isinstance(entry, dict):
        try:
            return design_from_dict(entry)
        except ValueError as exc:
            raise BadFieldError(f"{where}: invalid inline design: {exc}")
    raise BadFieldError(
        f"{where}: a design must be a preset slug string or an inline "
        f"design object, got {type(entry).__name__}")


def design_to_wire(design: MMUDesign) -> Union[str, Dict[str, Any]]:
    """Serialize a design as its preset slug, or inline when no preset matches."""
    if lookup_design(design.name) == design:
        return design_slug(design.name)
    return design_to_dict(design)


def require_bool(value: Any, where: str) -> bool:
    """``value`` if it is a boolean; :class:`BadFieldError` otherwise."""
    if not isinstance(value, bool):
        raise BadFieldError(f"{where} must be a boolean, got {value!r}")
    return value


def _reject_unknown_keys(obj: Dict[str, Any], known: Sequence[str],
                         where: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise BadFieldError(
            f"{where}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(known)}")


# -- spec sections --------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """The fault plan: sweep each point under these VM-event rates.

    Fault runs are never cached (injection mutates page tables), always
    audit invariants, and run CLI-side only — ``/v1/sweep`` rejects
    fault-plan specs.
    """

    rates: Tuple[float, ...]
    seed: int = 0
    invariant_interval: int = 64

    def __post_init__(self) -> None:
        if not isinstance(self.rates, tuple) or not self.rates:
            raise BadFieldError(
                "faults.rates must be a non-empty array of rates")
        for rate in self.rates:
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise BadFieldError(
                    f"faults.rates entries must be numbers, got {rate!r}")
            if rate < 0:
                raise BadFieldError(
                    f"faults.rates entries must be nonnegative, got {rate}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise BadFieldError(
                f"faults.seed must be an integer, got {self.seed!r}")
        if isinstance(self.invariant_interval, bool) \
                or not isinstance(self.invariant_interval, int) \
                or self.invariant_interval < 1:
            raise BadFieldError(
                f"faults.invariant_interval must be an integer >= 1, "
                f"got {self.invariant_interval!r}")

    @classmethod
    def from_dict(cls, obj: Any) -> "FaultSpec":
        if not isinstance(obj, dict):
            raise BadFieldError(
                f"'faults' must be an object, got {type(obj).__name__}")
        _reject_unknown_keys(
            obj, ("rates", "seed", "invariant_interval"), "faults")
        rates = obj.get("rates")
        if not isinstance(rates, list):
            raise BadFieldError("faults.rates must be a non-empty array")
        return cls(
            rates=tuple(rates),
            seed=obj.get("seed", 0),
            invariant_interval=obj.get("invariant_interval", 64),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rates": [float(rate) for rate in self.rates],
            "seed": self.seed,
            "invariant_interval": self.invariant_interval,
        }


@dataclass(frozen=True)
class OutputSpec:
    """What each result carries beyond cycles/instructions/requests."""

    include_counters: bool = False

    def __post_init__(self) -> None:
        require_bool(self.include_counters, "output.include_counters")

    @classmethod
    def from_dict(cls, obj: Any) -> "OutputSpec":
        if not isinstance(obj, dict):
            raise BadFieldError(
                f"'output' must be an object, got {type(obj).__name__}")
        _reject_unknown_keys(obj, ("include_counters",), "output")
        return cls(include_counters=obj.get("include_counters", False))

    def to_dict(self) -> Dict[str, Any]:
        return {"include_counters": self.include_counters}


@dataclass(frozen=True)
class SweepPoint:
    """One explicit (workload, design, track_lifetimes) point."""

    workload: str
    design: MMUDesign
    track_lifetimes: bool = False

    @classmethod
    def from_dict(cls, obj: Any, where: str) -> "SweepPoint":
        if not isinstance(obj, dict):
            raise BadFieldError(
                f"{where} must be an object, got {type(obj).__name__}")
        _reject_unknown_keys(
            obj, ("workload", "design", "track_lifetimes"), where)
        return cls(
            workload=resolve_workload(obj.get("workload"), where),
            design=resolve_design(obj.get("design"), where),
            track_lifetimes=require_bool(
                obj.get("track_lifetimes", False),
                f"{where}.track_lifetimes"),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "workload": self.workload,
            "design": design_to_wire(self.design),
        }
        if self.track_lifetimes:
            out["track_lifetimes"] = True
        return out


def resolve_workload(name: Any, where: str) -> str:
    """``name`` if the registry knows it; a :class:`SweepSpecError` otherwise."""
    if not isinstance(name, str):
        raise BadFieldError(
            f"{where}: workload must be a string, got {type(name).__name__}")
    if name not in registry.WORKLOADS:
        raise UnknownWorkloadError(
            f"{where}: unknown workload {name!r}; known workloads: "
            f"{', '.join(sorted(registry.WORKLOADS))}")
    return name


def validate_scale(scale: Any) -> Optional[float]:
    """A positive scale as a float, or ``None`` for the default."""
    if scale is None:
        return None
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise BadScaleError(
            f"'scale' must be a positive number or null, "
            f"got {scale!r}")
    if not scale > 0:
        raise BadScaleError(f"'scale' must be positive, got {scale}")
    return float(scale)


def apply_overrides(base: SoCConfig, config: Any) -> SoCConfig:
    """``base`` with scalar top-level SoCConfig overrides applied.

    Only plain int/float fields (``n_cus``, ``cu_window``,
    ``dram_latency``, …) may be overridden, each with a number or null;
    nested structures (cache/IOMMU configs) would need their own schema
    and are rejected, so a typo cannot silently build a half-default
    config.  One ``dataclasses.replace`` applies the overrides and runs
    SoCConfig's own checks; every rejection is a :class:`BadFieldError`.
    """
    if not isinstance(config, dict):
        raise BadFieldError(
            f"'config' must be an object of SoCConfig field overrides, "
            f"got {type(config).__name__}")
    if not config:
        return base
    field_names = {f.name for f in dataclasses.fields(SoCConfig)}
    for key, value in config.items():
        if key not in field_names:
            raise BadFieldError(f"config: unknown SoCConfig field {key!r}")
        current = getattr(base, key)
        if isinstance(current, bool) or \
                not isinstance(current, (int, float, type(None))):
            raise BadFieldError(
                f"config: SoCConfig field {key!r} is not a scalar; only "
                f"scalar fields can be overridden")
        if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))):
            raise BadFieldError(
                f"config: override for {key!r} must be a number or null, "
                f"got {type(value).__name__}")
    try:
        return dataclasses.replace(base, **config)
    except (TypeError, ValueError) as exc:
        raise BadFieldError(f"config: invalid override: {exc}")


# -- the spec itself ------------------------------------------------------

_TOP_LEVEL_KEYS = ("version", "name", "workloads", "designs", "points",
                   "scale", "config", "track_lifetimes", "check_invariants",
                   "faults", "output")


@dataclass(frozen=True)
class SweepSpec:
    """One complete, validated, serializable experiment plan.

    Exactly one enumeration mode is set: a ``workloads × designs`` grid
    (expanded workload-major, matching the figure drivers) or an
    explicit ``points`` list (order preserved).  Everything else is
    execution policy shared by every point.
    """

    workloads: Tuple[str, ...] = ()
    designs: Tuple[MMUDesign, ...] = ()
    points: Tuple[SweepPoint, ...] = ()
    scale: Optional[float] = None
    config: Dict[str, Any] = field(default_factory=dict)
    track_lifetimes: bool = False
    check_invariants: bool = False
    faults: Optional[FaultSpec] = None
    output: OutputSpec = field(default_factory=OutputSpec)
    #: Free-form label; excluded from the fingerprint.
    name: Optional[str] = None
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if self.version != SPEC_VERSION:
            raise VersionSkewError(
                f"spec version {self.version!r} is not supported; this "
                f"build reads version {SPEC_VERSION}")
        if self.name is not None and not isinstance(self.name, str):
            raise BadFieldError(
                f"'name' must be a string or null, got {self.name!r}")
        if self.points and (self.workloads or self.designs):
            raise ConflictingFieldsError(
                "give either a workloads×designs grid or an explicit "
                "'points' list, not both")
        if not self.points:
            if not self.workloads or not self.designs:
                raise BadFieldError(
                    "spec needs either non-empty 'workloads' and 'designs' "
                    "(a grid) or a non-empty 'points' list")
        for index, workload in enumerate(self.workloads):
            resolve_workload(workload, f"workloads[{index}]")
        for index, design in enumerate(self.designs):
            if not isinstance(design, MMUDesign):
                raise BadFieldError(
                    f"designs[{index}] must be an MMUDesign, "
                    f"got {type(design).__name__}")
        names_seen: Dict[str, MMUDesign] = {}
        for design in self._all_designs():
            prior = names_seen.setdefault(design.name, design)
            if prior != design:
                raise ConflictingFieldsError(
                    f"two different designs share the name "
                    f"{design.name!r}; results are keyed by design name, "
                    f"so names must be unique within a spec")
        validate_scale(self.scale)
        apply_overrides(SoCConfig(), self.config)
        require_bool(self.track_lifetimes, "'track_lifetimes'")
        require_bool(self.check_invariants, "'check_invariants'")
        if self.faults is not None:
            if self.track_lifetimes or any(
                    p.track_lifetimes for p in self.points):
                raise ConflictingFieldsError(
                    "a fault-plan sweep never tracks lifetimes "
                    "(chaos runs are not cached); drop 'track_lifetimes'")

    def _all_designs(self) -> Iterable[MMUDesign]:
        if self.points:
            return (p.design for p in self.points)
        return iter(self.designs)

    # -- construction -----------------------------------------------------
    @classmethod
    def grid(cls, workloads: Iterable[str], designs: Iterable,
             **kwargs: Any) -> "SweepSpec":
        """A workloads×designs grid spec.

        ``designs`` entries may be :class:`MMUDesign` objects or preset
        slugs/names (resolved through the registry, like JSON specs).
        """
        resolved = tuple(
            design if isinstance(design, MMUDesign)
            else resolve_design(design, f"designs[{index}]")
            for index, design in enumerate(designs))
        return cls(workloads=tuple(workloads), designs=resolved, **kwargs)

    @classmethod
    def explicit(cls, points: Iterable[Tuple], **kwargs: Any) -> "SweepSpec":
        """An explicit-points spec from ``(workload, design[, track])`` tuples.

        Each design may be an :class:`MMUDesign` or a preset slug/name.
        """
        resolved = []
        for index, point in enumerate(points):
            if len(point) == 2:
                workload, design = point
                track = False
            else:
                workload, design, track = point
            if not isinstance(design, MMUDesign):
                design = resolve_design(design, f"points[{index}].design")
            resolved.append(SweepPoint(workload, design, bool(track)))
        return cls(points=tuple(resolved), **kwargs)

    @classmethod
    def from_dict(cls, obj: Any) -> "SweepSpec":
        """Parse and strictly validate a decoded JSON spec."""
        if not isinstance(obj, dict):
            raise BadFieldError(
                f"a sweep spec must be a JSON object, "
                f"got {type(obj).__name__}")
        _reject_unknown_keys(obj, _TOP_LEVEL_KEYS, "spec")
        if "version" not in obj:
            raise VersionSkewError(
                f"spec has no 'version' field; this build reads "
                f"version {SPEC_VERSION}")
        version = obj["version"]
        if isinstance(version, bool) or not isinstance(version, int):
            raise VersionSkewError(
                f"'version' must be an integer, got {version!r}")
        workloads = obj.get("workloads", [])
        if not isinstance(workloads, list):
            raise BadFieldError(
                f"'workloads' must be an array of workload names, "
                f"got {type(workloads).__name__}")
        raw_designs = obj.get("designs", [])
        if not isinstance(raw_designs, list):
            raise BadFieldError(
                f"'designs' must be an array of design slugs or inline "
                f"design objects, got {type(raw_designs).__name__}")
        designs = tuple(resolve_design(entry, f"designs[{index}]")
                        for index, entry in enumerate(raw_designs))
        raw_points = obj.get("points", [])
        if not isinstance(raw_points, list):
            raise BadFieldError(
                f"'points' must be an array of point objects, "
                f"got {type(raw_points).__name__}")
        points = tuple(SweepPoint.from_dict(entry, f"points[{index}]")
                       for index, entry in enumerate(raw_points))
        config = obj.get("config", {})
        faults = (FaultSpec.from_dict(obj["faults"])
                  if obj.get("faults") is not None else None)
        output = (OutputSpec.from_dict(obj["output"])
                  if obj.get("output") is not None else OutputSpec())
        return cls(
            version=version,
            name=obj.get("name"),
            workloads=tuple(workloads),
            designs=designs,
            points=points,
            scale=obj.get("scale"),
            config=dict(config) if isinstance(config, dict) else config,
            track_lifetimes=obj.get("track_lifetimes", False),
            check_invariants=obj.get("check_invariants", False),
            faults=faults,
            output=output,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            decoded = json.loads(text)
        except ValueError as exc:
            raise BadFieldError(f"spec is not valid JSON: {exc}")
        return cls.from_dict(decoded)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (defaults omitted, designs as wire form)."""
        out: Dict[str, Any] = {"version": self.version}
        if self.name is not None:
            out["name"] = self.name
        if self.points:
            out["points"] = [p.to_dict() for p in self.points]
        else:
            out["workloads"] = list(self.workloads)
            out["designs"] = [design_to_wire(d) for d in self.designs]
        if self.scale is not None:
            out["scale"] = self.scale
        if self.config:
            out["config"] = dict(self.config)
        if self.track_lifetimes:
            out["track_lifetimes"] = True
        if self.check_invariants:
            out["check_invariants"] = True
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.output != OutputSpec():
            out["output"] = self.output.to_dict()
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    def fingerprint(self) -> str:
        """Stable SHA-256 of the canonical form, ``name`` excluded."""
        canonical = self.to_dict()
        canonical.pop("name", None)
        blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- expansion --------------------------------------------------------
    def resolved_points(self) -> List[Tuple[str, MMUDesign, bool]]:
        """The full point list, ready for ``ResultCache.run_many``.

        Grid mode expands workload-major (all designs for the first
        workload, then the next), matching the figure drivers' native
        enumeration order.
        """
        if self.points:
            return [(p.workload, p.design, p.track_lifetimes)
                    for p in self.points]
        return [(w, d, self.track_lifetimes)
                for w in self.workloads for d in self.designs]

    def fault_points(self) -> List[Tuple[str, MMUDesign, float]]:
        """The fault grid: rate innermost, matching the chaos driver."""
        if self.faults is None:
            raise ValueError("spec has no fault plan")
        return [(workload, design, rate)
                for workload, design, _track in self.resolved_points()
                for rate in self.faults.rates]

    def apply_config(self, base: SoCConfig) -> SoCConfig:
        """``base`` with this spec's scalar overrides applied."""
        return apply_overrides(base, self.config)


# -- running a (non-fault) spec through a ResultCache ---------------------

@dataclass
class SweepOutcome:
    """Results of one :func:`run_sweep`, in spec point order."""

    spec: SweepSpec
    points: List[Tuple[str, MMUDesign, bool]]
    results: List[Any]
    simulations_run: int
    scale: float

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready report (``--sweep-out``); honours output selection."""
        include_counters = self.spec.output.include_counters
        points = []
        for (workload, design, track), result in zip(self.points,
                                                     self.results):
            entry: Dict[str, Any] = {
                "workload": workload,
                "design": design.name,
                "design_slug": design_slug(design.name),
                "track_lifetimes": track,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "requests": result.requests,
            }
            if include_counters:
                entry["counters"] = dict(result.counters)
            points.append(entry)
        return {
            "name": self.spec.name,
            "fingerprint": self.spec.fingerprint(),
            "scale": self.scale,
            "simulations_run": self.simulations_run,
            "points": points,
        }

    def render(self) -> str:
        label = self.spec.name or "unnamed"
        header = (f"{'workload':14s} {'design':28s} {'cycles':>14s} "
                  f"{'instructions':>13s} {'requests':>10s}")
        lines = [
            f"Sweep {label!r} (fingerprint {self.spec.fingerprint()[:12]}, "
            f"scale {self.scale:g}): {len(self.points)} point(s), "
            f"{self.simulations_run} simulated, "
            f"{len(self.points) - self.simulations_run} from cache",
            "",
            header,
            "-" * len(header),
        ]
        for (workload, design, _track), result in zip(self.points,
                                                      self.results):
            lines.append(
                f"{workload:14s} {design.name:28s} {result.cycles:14.0f} "
                f"{result.instructions:13d} {result.requests:10d}")
        return "\n".join(lines)


def run_sweep(spec: SweepSpec, cache, trace_ctx=None) -> SweepOutcome:
    """Run a non-fault spec through a ``ResultCache`` (memo/disk tiers apply).

    The cache's scale/config/auditing are temporarily overridden by the
    spec's and restored afterwards, exactly as the service does per
    request.  Fault-plan specs run through
    :func:`repro.experiments.chaos.run_spec` instead (fault injection
    mutates page tables and must never populate the caches).
    """
    if spec.faults is not None:
        raise ValueError(
            "fault-plan specs run through chaos.run_spec, not run_sweep")
    saved = (cache.scale, cache.config, cache.check_invariants)
    before = cache.simulations_run
    try:
        if spec.scale is not None:
            cache.scale = spec.scale
        cache.config = spec.apply_config(cache.config)
        if spec.check_invariants:
            cache.check_invariants = True
        effective = cache.effective_scale()
        points = spec.resolved_points()
        results = cache.run_many(points, trace_ctx=trace_ctx)
    finally:
        cache.scale, cache.config, cache.check_invariants = saved
    return SweepOutcome(
        spec=spec, points=points, results=results,
        simulations_run=cache.simulations_run - before, scale=effective)
