"""SweepSpec: strict validation, stable fingerprints, golden parity.

The declarative sweep plan must (a) reject every malformed document
with a *typed* error and a precise message, (b) fingerprint by content
— not key order, not the label — and (c) enumerate bit-identically to
the bespoke loops it replaced in the fig4 driver and the chaos harness,
and resolve an explicit point list in order.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import chaos
from repro.experiments.common import ResultCache
from repro.experiments.sweepspec import (
    BadFieldError,
    BadScaleError,
    ConflictingFieldsError,
    FaultSpec,
    SweepSpec,
    SweepSpecError,
    UnknownDesignError,
    UnknownWorkloadError,
    VersionSkewError,
    design_to_wire,
    run_sweep,
)
from repro.system.designs import (
    BASELINE_512,
    BASELINE_16K,
    IDEAL_MMU,
    PRESET_DESIGNS,
    VC_WITH_OPT,
    design_from_dict,
    design_to_dict,
    design_slug,
    lookup_design,
)

SCALE = 0.02

GRID = {"version": 1, "workloads": ["bfs"], "designs": ["baseline-512"]}


def _with(**overrides):
    doc = dict(GRID)
    doc.update(overrides)
    return {k: v for k, v in doc.items() if v is not ...}


# -- validation: every failure is a typed error with a precise message ----

BAD_SPECS = [
    pytest.param(_with(designs=["nope"]), UnknownDesignError,
                 "unknown design 'nope'", id="unknown-design-slug"),
    pytest.param(_with(workloads=["nope"]), UnknownWorkloadError,
                 "unknown workload 'nope'", id="unknown-workload"),
    pytest.param(_with(scale=0), BadScaleError, "positive",
                 id="scale-zero"),
    pytest.param(_with(scale=-1), BadScaleError, "positive",
                 id="scale-negative"),
    pytest.param(_with(scale="x"), BadScaleError, "number",
                 id="scale-string"),
    pytest.param(_with(points=[{"workload": "bfs",
                                "design": "baseline-512"}]),
                 ConflictingFieldsError, "not both", id="grid-and-points"),
    pytest.param(_with(workloads=..., designs=...), BadFieldError,
                 "needs either", id="no-mode"),
    pytest.param(_with(workloads=...), BadFieldError, "needs either",
                 id="half-grid"),
    pytest.param(_with(version=2), VersionSkewError, "version 2",
                 id="version-skew"),
    pytest.param(_with(version=...), VersionSkewError, "version",
                 id="version-missing"),
    pytest.param(_with(frobnicate=1), BadFieldError, "frobnicate",
                 id="unknown-top-level-key"),
    pytest.param(_with(config={"no_such_knob": 3}), BadFieldError,
                 "no_such_knob", id="bad-config-override"),
    pytest.param(_with(designs=[{"name": "x", "kind": "warp"}]),
                 BadFieldError, "invalid inline design",
                 id="bad-inline-design"),
    pytest.param(_with(faults={"rates": []}), BadFieldError,
                 "non-empty", id="empty-fault-rates"),
    pytest.param(_with(faults={"rates": [-0.1]}), BadFieldError,
                 "nonnegative", id="negative-fault-rate"),
    pytest.param(_with(faults={"rates": [0.1]}, track_lifetimes=True),
                 ConflictingFieldsError, "lifetimes",
                 id="faults-with-lifetimes"),
    pytest.param(_with(designs=["baseline-512",
                                {"name": "Baseline 512",
                                 "iommu_entries": 1024}]),
                 ConflictingFieldsError, "keyed by design name",
                 id="duplicate-design-names"),
]


@pytest.mark.parametrize("doc,error,fragment", BAD_SPECS)
def test_bad_spec_raises_typed_error(doc, error, fragment):
    with pytest.raises(error, match=fragment):
        SweepSpec.from_dict(doc)
    assert issubclass(error, SweepSpecError)
    assert issubclass(error, ValueError)


def test_duplicate_names_with_identical_params_are_fine():
    # The name-collision rule only bites when the *parameters* differ;
    # repeating one design (slug, canonical name, identical inline
    # object) is merely redundant, never ambiguous.
    inline = design_to_dict(BASELINE_512)
    spec = SweepSpec.from_dict(
        _with(designs=[inline, "baseline-512", "Baseline 512"]))
    assert [d.name for d in spec.designs] == ["Baseline 512"] * 3


# -- fingerprints: content-addressed, label-free, order-free --------------

def test_fingerprint_ignores_key_order_and_name():
    a = SweepSpec.from_dict(
        {"version": 1, "name": "alpha", "workloads": ["bfs", "kmeans"],
         "designs": ["ideal-mmu", "baseline-512"], "scale": 0.05})
    shuffled = {"scale": 0.05, "designs": ["ideal-mmu", "baseline-512"],
                "name": "omega", "workloads": ["bfs", "kmeans"],
                "version": 1}
    b = SweepSpec.from_dict(shuffled)
    assert a.fingerprint() == b.fingerprint()
    assert len(a.fingerprint()) == 64


def test_fingerprint_tracks_content():
    base = SweepSpec.from_dict(_with())
    assert base.fingerprint() != SweepSpec.from_dict(
        _with(scale=0.1)).fingerprint()
    assert base.fingerprint() != SweepSpec.from_dict(
        _with(designs=["baseline-16k"])).fingerprint()
    assert base.fingerprint() != SweepSpec.from_dict(
        _with(config={"n_cus": 8})).fingerprint()
    assert base.fingerprint() != SweepSpec.from_dict(
        _with(check_invariants=True)).fingerprint()


def test_json_round_trip_is_identity():
    spec = SweepSpec.from_dict(
        {"version": 1, "name": "rt", "workloads": ["bfs"],
         "designs": ["baseline-512",
                     design_to_dict(dataclasses.replace(
                         BASELINE_512, name="BW2", iommu_bandwidth=2.0))],
         "scale": 0.05, "config": {"n_cus": 8},
         "faults": {"rates": [0.001, 0.002], "seed": 7}})
    again = SweepSpec.from_json(spec.to_json())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    assert json.loads(spec.to_json()) == spec.to_dict()


def test_presets_serialize_as_slugs_and_round_trip():
    for design in PRESET_DESIGNS:
        wire = design_to_wire(design)
        assert wire == design_slug(design.name)
        assert lookup_design(wire) == design
    # A tweaked preset is no longer the registry design: inline form.
    tweaked = dataclasses.replace(BASELINE_512, iommu_bandwidth=2.0)
    wire = design_to_wire(tweaked)
    assert isinstance(wire, dict)
    assert design_from_dict(wire) == tweaked


# -- golden parity: spec enumeration == the bespoke loops it replaced -----

def test_fig4_grid_matches_hand_enumeration():
    """The fig4 grid through a JSON round-tripped spec is bit-identical
    to the old hand-rolled ``run_many`` enumeration."""
    from repro.experiments.fig4 import DESIGNS

    names = ("bfs", "kmeans")
    by_hand = ResultCache(scale=SCALE)
    expected = by_hand.run_many(
        [(w, d) for w in names for d in DESIGNS])

    spec = SweepSpec.from_json(
        SweepSpec.grid(names, DESIGNS, name="fig4",
                       scale=SCALE).to_json())
    via_spec = ResultCache()
    outcome = run_sweep(spec, via_spec)

    assert set(by_hand._results) == set(via_spec._results)
    assert len(outcome.results) == len(expected)
    for ours, theirs in zip(outcome.results, expected):
        assert ours.cycles == theirs.cycles
        assert ours.instructions == theirs.instructions
        assert dict(ours.counters) == dict(theirs.counters)


#: An explicit point list across figures: bfs under the three Figure 4
#: baselines and one Figure 9 virtual-cache design.
HOT_PATH_POINTS = (("bfs", IDEAL_MMU), ("bfs", BASELINE_512),
                   ("bfs", BASELINE_16K), ("bfs", VC_WITH_OPT))


def test_explicit_points_resolve_in_order():
    spec = SweepSpec.explicit(list(HOT_PATH_POINTS), name="hot-path")
    resolved = spec.resolved_points()
    assert [(w, d.name) for w, d, _t in resolved] == \
        [(w, d.name) for w, d in HOT_PATH_POINTS]
    assert all(t is False for _w, _d, t in resolved)


def test_chaos_run_and_run_spec_are_bit_identical():
    """``chaos.run`` (which now builds a spec) and ``chaos.run_spec`` on
    the JSON round-trip of the same plan yield equal ChaosPoints."""
    designs = (BASELINE_512,)
    direct = chaos.run(workloads=("bfs",), rates=(0.002,), seed=3,
                       scale=SCALE, designs=designs)
    spec = SweepSpec.from_json(SweepSpec.grid(
        ("bfs",), designs, scale=SCALE,
        faults=FaultSpec(rates=(0.002,), seed=3)).to_json())
    replay = chaos.run_spec(spec)
    assert replay.seed == direct.seed
    assert replay.points == direct.points  # frozen dataclass equality


def test_fault_points_expand_rate_innermost():
    spec = SweepSpec.grid(("bfs", "kmeans"), (IDEAL_MMU, BASELINE_16K),
                          faults=FaultSpec(rates=(0.1, 0.2)))
    expanded = [(w, d.name, r) for w, d, r in spec.fault_points()]
    assert expanded == [
        ("bfs", "IDEAL MMU", 0.1), ("bfs", "IDEAL MMU", 0.2),
        ("bfs", "Baseline 16K", 0.1), ("bfs", "Baseline 16K", 0.2),
        ("kmeans", "IDEAL MMU", 0.1), ("kmeans", "IDEAL MMU", 0.2),
        ("kmeans", "Baseline 16K", 0.1), ("kmeans", "Baseline 16K", 0.2),
    ]


# -- the runner: cache isolation and the zero-resim warm path -------------

def test_run_sweep_restores_cache_and_filters_warm_runs(tmp_path):
    cache = ResultCache(scale=0.5, cache_dir=str(tmp_path))
    saved_config = cache.config
    spec = SweepSpec.grid(("bfs",), (IDEAL_MMU,), scale=SCALE,
                          config={"dram_latency": 160})
    cold = run_sweep(spec, cache)
    assert cold.simulations_run == 1
    assert cold.scale == SCALE
    # The spec's scale/config applied during the run, then rolled back.
    assert cache.scale == 0.5
    assert cache.config is saved_config

    warm = run_sweep(spec, cache)
    assert warm.simulations_run == 0
    assert warm.results[0].cycles == cold.results[0].cycles


def test_run_sweep_rejects_fault_plans():
    spec = SweepSpec.grid(("bfs",), (IDEAL_MMU,),
                          faults=FaultSpec(rates=(0.1,)))
    with pytest.raises(ValueError, match="chaos"):
        run_sweep(spec, ResultCache(scale=SCALE))


def test_outcome_report_shape():
    spec = SweepSpec.from_dict(_with(name="shape", scale=SCALE))
    outcome = run_sweep(spec, ResultCache())
    payload = outcome.as_dict()
    assert payload["name"] == "shape"
    assert payload["fingerprint"] == spec.fingerprint()
    assert payload["simulations_run"] == 1
    (point,) = payload["points"]
    assert point["workload"] == "bfs"
    assert point["design_slug"] == "baseline-512"
    assert "counters" not in point  # output.include_counters defaults off
    assert "Sweep 'shape'" in outcome.render()
    assert "baseline" in outcome.render().lower()
