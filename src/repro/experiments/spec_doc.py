"""Generate ``docs/SWEEPSPEC.md`` from the real SweepSpec schema.

The spec reference is *generated*, never hand-edited, exactly like
``docs/CLI.md``: this module walks the :mod:`repro.experiments.sweepspec`
dataclasses (field sets are drift-checked against
``dataclasses.fields``, the documented error taxonomy against the
actual :class:`~repro.experiments.sweepspec.SweepSpecError` subclasses),
validates every worked example by parsing it with
:meth:`SweepSpec.from_dict` at render time, and renders the markdown
committed at ``docs/SWEEPSPEC.md``.  ``tests/test_spec_doc.py`` fails
whenever the committed file differs from what this module renders.
Regenerate with::

    PYTHONPATH=src python -m repro.experiments.spec_doc > docs/SWEEPSPEC.md
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, Dict, List, Tuple

from repro.experiments import sweepspec
from repro.experiments.sweepspec import (
    FaultSpec,
    OutputSpec,
    SweepPoint,
    SweepSpec,
)
from repro.system.designs import (
    PRESET_DESIGNS,
    MMUDesign,
    design_slug,
)
from repro.workloads import registry

__all__ = [
    "ERROR_DESCRIPTIONS",
    "FIELD_DOCS",
    "main",
    "render_spec_doc",
]

#: field name → (JSON type, validation rules / meaning).  One entry per
#: dataclass field; generation fails loudly when a field is added,
#: removed, or renamed without updating its row here.
FIELD_DOCS: Dict[type, Dict[str, Tuple[str, str]]] = {
    SweepSpec: {
        "version": ("integer (required)",
                    "Must equal the build's `SPEC_VERSION` "
                    f"(currently {sweepspec.SPEC_VERSION}); anything else "
                    "is `VersionSkewError`, so a spec written for a "
                    "different schema is never silently misread."),
        "name": ("string or null",
                 "Free-form label for reports and job listings; "
                 "**excluded from the fingerprint**, so renaming a sweep "
                 "never invalidates its cached results."),
        "workloads": ("array of strings",
                      "Grid mode: workload trace names (see "
                      "`repro-experiment workloads --list`). Unknown "
                      "names are `UnknownWorkloadError`. Must be paired "
                      "with `designs` and is mutually exclusive with "
                      "`points`."),
        "designs": ("array of strings or objects",
                    "Grid mode: preset slugs/names (see "
                    "`repro-experiment designs --list`) or inline design "
                    "objects. Unknown slugs are `UnknownDesignError`. "
                    "Two designs may not share a name "
                    "(`ConflictingFieldsError`): results are keyed by "
                    "design name."),
        "points": ("array of point objects",
                   "Explicit mode: run exactly these points in exactly "
                   "this order. Mutually exclusive with the "
                   "`workloads`×`designs` grid (`ConflictingFieldsError` "
                   "when both are given, `BadFieldError` when neither)."),
        "scale": ("positive number or null",
                  "Workload scale factor. `null`/omitted inherits the "
                  "runner's default (CLI `--scale`, the service's base "
                  "scale). Zero, negative, or non-numeric is "
                  "`BadScaleError`."),
        "config": ("object",
                   "Scalar `SoCConfig` field overrides (`n_cus`, "
                   "`dram_latency`, ...), applied on top of the runner's "
                   "base config. Unknown fields, non-scalar fields "
                   "(`l1`, `iommu`, ...), and non-numeric values are "
                   "`BadFieldError` — same contract as the service's "
                   "request-level `config`."),
        "track_lifetimes": ("boolean (default false)",
                            "Collect translation-lifetime histograms "
                            "(Figure 12 instrumentation) for every grid "
                            "point. Conflicts with `faults` "
                            "(`ConflictingFieldsError`)."),
        "check_invariants": ("boolean (default false)",
                             "Audit FBT/cache structural invariants "
                             "during every simulation. Part of each "
                             "point's cache fingerprint. On `/v1/sweep` "
                             "this requires a server started with "
                             "`--check-invariants` (400 otherwise)."),
        "faults": ("object or null",
                   "A fault plan (see below) turns the sweep into a "
                   "chaos grid: uncached, always invariant-audited, "
                   "CLI-only (`/v1/sweep` answers 400)."),
        "output": ("object",
                   "Output selection (see below)."),
    },
    FaultSpec: {
        "rates": ("non-empty array of numbers >= 0",
                  "VM-event fault rates (events per coalesced request) "
                  "swept per point, innermost in the expansion — the "
                  "exact grid order of `repro-experiment chaos`."),
        "seed": ("integer (default 0)",
                 "Seed for the deterministic fault schedule; a failing "
                 "point reproduces exactly from its printed parameters."),
        "invariant_interval": ("integer >= 1 (default 64)",
                               "Requests between mid-run invariant "
                               "audits."),
    },
    OutputSpec: {
        "include_counters": ("boolean (default false)",
                             "Include each result's full event-counter "
                             "map in sweep reports (`--sweep-out`) and "
                             "`/v1/sweep` point payloads."),
    },
    SweepPoint: {
        "workload": ("string (required)",
                     "Workload trace name, validated like grid-mode "
                     "`workloads` entries."),
        "design": ("string or object (required)",
                   "Preset slug/name or inline design object, validated "
                   "like grid-mode `designs` entries."),
        "track_lifetimes": ("boolean (default false)",
                            "Per-point lifetime tracking (grid mode uses "
                            "the spec-level toggle instead)."),
    },
    MMUDesign: {
        "name": ("string (required, non-empty)",
                 "Design label; results and cache entries are keyed by "
                 "it, so distinct parameter sets need distinct names."),
        "kind": ("string (default \"physical\")",
                 "Hierarchy flavour: `physical` (baseline MMU), `vc` "
                 "(full virtual hierarchy), or `l1vc` (L1-only virtual "
                 "cache)."),
        "ideal": ("boolean (default false)",
                  "Zero-cost translation (the paper's IDEAL MMU)."),
        "per_cu_tlb_entries": ("integer >= 1 or null (default 32)",
                               "Per-CU TLB capacity; `null` means "
                               "infinite."),
        "iommu_entries": ("integer >= 1 or null (default 512)",
                          "Shared IOMMU TLB capacity; `null` means "
                          "infinite."),
        "iommu_bandwidth": ("number > 0 or null (default 1.0)",
                            "Shared TLB accesses per cycle; `null` means "
                            "unlimited (JSON has no `Infinity`)."),
        "fbt_as_second_level_tlb": ("boolean (default false)",
                                    "The paper's OPT: consult the "
                                    "backward table as a second-level "
                                    "TLB before the page walker."),
    },
}

#: error class name → (when it is raised).  Drift-checked against the
#: actual ``SweepSpecError`` subclasses in :mod:`sweepspec`.
ERROR_DESCRIPTIONS: Dict[str, str] = {
    "UnknownDesignError": "A design slug/name that matches no preset "
                          "(the message lists every known slug).",
    "UnknownWorkloadError": "A workload name missing from the registry "
                            "(the message lists every known name).",
    "BadScaleError": "A `scale` that is not a positive number or null.",
    "ConflictingFieldsError": "Fields that contradict each other: grid "
                              "+ `points` both given, duplicate design "
                              "names, or `faults` combined with "
                              "lifetime tracking.",
    "VersionSkewError": "A missing `version`, a non-integer one, or one "
                        "this build does not read.",
    "BadFieldError": "Any other malformed field: unknown keys, wrong "
                     "types, bad config overrides, bad inline designs, "
                     "an empty/half-specified grid.",
}

#: Worked examples, one per section; each is parsed with
#: ``SweepSpec.from_dict`` at render time, so an example that stops
#: validating breaks generation (and the drift test) immediately.
EXAMPLE_GRID: Dict[str, Any] = {
    "version": 1,
    "name": "fig4-baseline-sweep",
    "workloads": ["bfs", "kmeans"],
    "designs": ["ideal-mmu", "baseline-512", "baseline-16k"],
    "scale": 0.05,
}

EXAMPLE_POINTS: Dict[str, Any] = {
    "version": 1,
    "name": "mixed-points",
    "points": [
        {"workload": "bfs", "design": "vc-with-opt"},
        {"workload": "pagerank", "design": "baseline-16k",
         "track_lifetimes": True},
    ],
    "config": {"n_cus": 8, "dram_latency": 160},
}

EXAMPLE_FAULTS: Dict[str, Any] = {
    "version": 1,
    "name": "chaos-smoke",
    "workloads": ["bfs"],
    "designs": ["baseline-512", "vc-with-opt"],
    "scale": 0.05,
    "faults": {"rates": [0.002], "seed": 0},
}

EXAMPLE_INLINE_DESIGN: Dict[str, Any] = {
    "version": 1,
    "name": "bandwidth-study",
    "workloads": ["bfs"],
    "designs": [
        "ideal-mmu",
        {"name": "Baseline 16K @ 2/cycle", "iommu_entries": 16384,
         "iommu_bandwidth": 2.0},
    ],
    "output": {"include_counters": True},
}


def _check_field_docs() -> None:
    for cls, docs in FIELD_DOCS.items():
        actual = {f.name for f in dataclasses.fields(cls)}
        documented = set(docs)
        if documented != actual:
            raise RuntimeError(
                f"FIELD_DOCS for {cls.__name__} is out of sync with the "
                f"dataclass (missing: {sorted(actual - documented)}, "
                f"stale: {sorted(documented - actual)}); update "
                f"repro/experiments/spec_doc.py")


def _check_error_docs() -> None:
    actual = {name for name in dir(sweepspec)
              if isinstance(getattr(sweepspec, name), type)
              and issubclass(getattr(sweepspec, name),
                             sweepspec.SweepSpecError)
              and getattr(sweepspec, name) is not sweepspec.SweepSpecError}
    documented = set(ERROR_DESCRIPTIONS)
    if documented != actual:
        raise RuntimeError(
            f"ERROR_DESCRIPTIONS is out of sync with the SweepSpecError "
            f"subclasses (missing: {sorted(actual - documented)}, "
            f"stale: {sorted(documented - actual)}); update "
            f"repro/experiments/spec_doc.py")


def _field_table(cls: type, lines: List[str]) -> None:
    lines.append("| Field | Type | Meaning / validation |")
    lines.append("|---|---|---|")
    for field in dataclasses.fields(cls):
        type_text, rules = FIELD_DOCS[cls][field.name]
        lines.append(f"| `{field.name}` | {type_text} | {rules} |")
    lines.append("")


def _example(example: Dict[str, Any], lines: List[str]) -> None:
    spec = SweepSpec.from_dict(example)  # an invalid example fails loudly
    lines.append("```json")
    lines.append(json.dumps(example, indent=2))
    lines.append("```")
    lines.append("")
    lines.append(f"expands to **{len(spec.resolved_points())} point(s)**, "
                 f"fingerprint `{spec.fingerprint()[:16]}…`")
    lines.append("")


def render_spec_doc() -> str:
    """Render the complete markdown SweepSpec reference."""
    _check_field_docs()
    _check_error_docs()
    lines: List[str] = []
    lines.append("# SweepSpec reference")
    lines.append("")
    lines.append("> **Generated file — do not edit by hand.**  This page "
                 "is rendered from the real schema by "
                 "`repro.experiments.spec_doc` (field tables are checked "
                 "against the dataclasses, every example is re-validated "
                 "at render time); `tests/test_spec_doc.py` fails if it "
                 "drifts from the code.  Regenerate with:")
    lines.append("> ")
    lines.append("> ```bash")
    lines.append("> PYTHONPATH=src python -m repro.experiments.spec_doc "
                 "> docs/SWEEPSPEC.md")
    lines.append("> ```")
    lines.append("")
    lines.append(
        "A **SweepSpec** is the one serializable experiment plan every "
        "entry point consumes: `repro-experiment sweep SPEC.json` runs it "
        "through the result cache (full `--jobs`/`--cache-dir`/"
        "`--checkpoint`/retry support), `POST /v1/sweep` submits it as a "
        "job (the gateway shards its points across replicas; only a "
        "plain `serve --jobs-journal PATH` journals it before the ack, "
        "so it survives a restart), and the figure drivers and "
        "`chaos` build their own point enumerations as specs "
        "internally.  Validation "
        "is strict: every rejected spec raises a typed "
        "`SweepSpecError` subclass with a precise message, which the "
        "service maps to HTTP 400.")
    lines.append("")
    lines.append(f"The current schema version is "
                 f"**{sweepspec.SPEC_VERSION}**.")
    lines.append("")

    lines.append("## Top-level fields")
    lines.append("")
    lines.append("Exactly one enumeration mode is set: a "
                 "`workloads`×`designs` grid (expanded workload-major — "
                 "all designs for the first workload, then the next, "
                 "matching the figure drivers) or an explicit `points` "
                 "list (order preserved).")
    lines.append("")
    _field_table(SweepSpec, lines)
    lines.append("A grid sweep (the committed "
                 "`examples/specs/fig4_sweep.json`):")
    lines.append("")
    _example(EXAMPLE_GRID, lines)

    lines.append("## Explicit points (`points[]`)")
    lines.append("")
    _field_table(SweepPoint, lines)
    lines.append("An explicit-points sweep with config overrides:")
    lines.append("")
    _example(EXAMPLE_POINTS, lines)

    lines.append("## Fault plan (`faults`)")
    lines.append("")
    lines.append("A spec with a fault plan is a chaos grid: each point "
                 "replays its workload through a fault-injecting wrapper "
                 "(TLB shootdowns, remaps, unmaps, permission "
                 "downgrades) with the invariant auditor enabled.  Fault "
                 "runs mutate page tables, so they are **never cached** "
                 "and **never served over the wire** — `/v1/sweep` "
                 "answers 400; run them with `repro-experiment sweep`.")
    lines.append("")
    _field_table(FaultSpec, lines)
    lines.append("The expansion order is rate-innermost over the "
                 "resolved points — exactly `repro-experiment chaos`'s "
                 "grid (the committed `examples/specs/chaos_sweep.json`):")
    lines.append("")
    _example(EXAMPLE_FAULTS, lines)

    lines.append("## Output selection (`output`)")
    lines.append("")
    _field_table(OutputSpec, lines)

    lines.append("## Inline designs")
    lines.append("")
    lines.append("Anywhere a design is named, an object may appear "
                 "instead of a preset slug — the sweep-variant designs "
                 "the figure drivers build programmatically "
                 "(bandwidth-swept baselines, TLB-size sweeps) all "
                 "serialize this way.  Infinite capacities/bandwidth "
                 "serialize as `null` (JSON has no `Infinity`).")
    lines.append("")
    _field_table(MMUDesign, lines)
    lines.append("A bandwidth-study sweep mixing a preset and an inline "
                 "design, with counters selected:")
    lines.append("")
    _example(EXAMPLE_INLINE_DESIGN, lines)

    lines.append("## Validation errors")
    lines.append("")
    lines.append("Every error subclasses `SweepSpecError` "
                 "(a `ValueError`); `/v1/sweep` maps each to HTTP 400 "
                 "with the same message, prefixed `invalid sweep spec:`.")
    lines.append("")
    lines.append("| Error | Raised on |")
    lines.append("|---|---|")
    for name in sorted(ERROR_DESCRIPTIONS):
        lines.append(f"| `{name}` | {ERROR_DESCRIPTIONS[name]} |")
    lines.append("")

    lines.append("## Fingerprinting")
    lines.append("")
    lines.append("`SweepSpec.fingerprint()` is the SHA-256 of the "
                 "canonical serialized form (sorted keys, defaults "
                 "omitted, designs in wire form, `name` excluded).  Two "
                 "specs that expand to the same plan hash identically "
                 "regardless of JSON key order or which defaults were "
                 "spelled out; any change to the plan itself changes the "
                 "hash.  Individual *points* are cached under the "
                 "existing disk-cache fingerprint (workload, scale, "
                 "design, lifetimes, auditing, config hash), so "
                 "different sweeps share cached points.")
    lines.append("")

    lines.append("## Design presets")
    lines.append("")
    lines.append("`repro-experiment designs` prints the same registry "
                 "with capacities and bandwidths:")
    lines.append("")
    lines.append("| Slug | Canonical name | Kind |")
    lines.append("|---|---|---|")
    for design in PRESET_DESIGNS:
        lines.append(f"| `{design_slug(design.name)}` | {design.name} "
                     f"| `{design.kind}` |")
    lines.append("")

    lines.append("## Workloads")
    lines.append("")
    lines.append("`repro-experiment workloads` prints suites and "
                 "bandwidth classes; the names are:")
    lines.append("")
    lines.append(", ".join(f"`{name}`"
                           for name in sorted(registry.WORKLOADS)))
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    sys.stdout.write(render_spec_doc())
    return 0


if __name__ == "__main__":
    sys.exit(main())
