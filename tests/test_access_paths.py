"""Differential access-path harness: the compiled path vs the method path.

Physical and full-VC hierarchies implement their access path twice:

* the *method path* — the hierarchy classes' own ``access`` methods,
  which run whenever an :class:`~repro.obs.Observability` bundle is
  attached (metrics only, or with a recording tracer);
* the *compiled path* — the closures of :mod:`repro.system.fastpath`,
  which shadow ``access`` on uninstrumented builds.

L1-only VC has one method path.  This module builds small cases — a
SoC config, hierarchy options that ``MMUDesign.build`` cannot all
reach, an address space with 4 KB pages, one 2 MB page and a synonym
alias, a hand-made trace with writes, and an optional fault plan — and
runs each one three ways through ``simulate(..., check_invariants=True)``:
with no bundle, with ``Observability()`` and with
``Observability(tracer=RecordingTracer())``.  Cycles, instructions,
requests and every counter must agree.

A case is plain JSON, so ``tests/golden_access_corpus.json`` can pin
about 30 of them together with the outcomes the method path produced
when they were recorded; the reference outlives any later change to
either path.  Regenerate it (only when an intentional model change
shifts results) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_access_paths.py
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.l1_only import L1OnlyVirtualHierarchy
from repro.core.virtual_hierarchy import VirtualCacheHierarchy
from repro.memsys.address_space import AddressSpace
from repro.memsys.addressing import PAGE_SIZE, page_number
from repro.memsys.cache import CacheConfig
from repro.memsys.iommu import IOMMUConfig
from repro.obs import Observability, RecordingTracer
from repro.robustness.fault_plan import KINDS, FaultEvent, FaultInjector, FaultPlan
from repro.system.config import SoCConfig
from repro.system.physical_hierarchy import PhysicalHierarchy
from repro.system.run import simulate

from tests.conftest import compile_streams

CORPUS_PATH = Path(__file__).parent / "golden_access_corpus.json"
LINE = 128
#: The three ways every case runs: the compiled path (method path for
#: L1-only), the metrics-only method path and the traced method path.
MODES = ("none", "metrics", "traced")
HIERARCHY_KINDS = ("physical", "ideal", "vc", "l1vc")
#: Instruction flags (bit0 = write, bit1 = scratchpad) of each trace op.
_OP_FLAGS = {"r": 0, "w": 1, "s": 2}
L2_BANKS = (1, 2, 3, 4, 5, 8)
#: Lines probed within a page: a few neighbours (bank and set spread)
#: and the last line of the page.
LINES = (0, 1, 2, 3, 31)
#: Subpages of the 2 MB page: the base, neighbours, and the last one.
LARGE_SUBPAGES = (0, 1, 3, 511)


class _RandomPicker:
    """The two draws a case needs, from a seeded ``random.Random``."""

    def __init__(self, rng: random.Random) -> None:
        self.choice = rng.choice
        self.randint = rng.randint


class _HypothesisPicker:
    """The same draws through hypothesis, so failures shrink."""

    def __init__(self, draw) -> None:
        self._draw = draw

    def choice(self, options):
        return self._draw(st.sampled_from(list(options)))

    def randint(self, lo: int, hi: int) -> int:
        return self._draw(st.integers(lo, hi))


def draw_config(pick, l2_banks=None) -> dict:
    """A case's SoC config; ``l2_banks``, when given, is fixed instead of drawn."""
    return {
        "n_cus": pick.randint(1, 4),
        "l1_sets": pick.choice((1, 2, 4)),
        "l1_ways": pick.randint(1, 8),
        "l2_sets": pick.choice((1, 2, 4, 8)),
        "l2_ways": pick.randint(1, 8),
        "l2_banks": l2_banks or pick.choice(L2_BANKS),
        "tlb_entries": pick.choice((None, 1, 4, 32)),
        "iommu_entries": pick.choice((1, 4, 16, None)),
        "iommu_banks": pick.choice((1, 2, 3)),
        "bank_select": pick.choice(("low", "high")),
        "iommu_bandwidth": pick.choice((0.5, 1.0, "inf")),
        "fbt_entries": pick.choice((4, 8, 64)),
        "cu_window": pick.choice((1, 4, 64)),
    }


def draw_case(pick, name: str = "case", kind=None, l2_banks=None) -> dict:
    """One JSON-able case: config, hierarchy, layout, trace, faults.

    ``kind`` and ``l2_banks``, when given, are fixed instead of drawn.
    """
    config = draw_config(pick, l2_banks)
    n_cus = config["n_cus"]
    layout = {
        "small_pages": pick.randint(1, 4),
        "large": pick.choice((False, True)),
        "synonym": pick.choice((False, True)),
    }
    kind = kind or pick.choice(HIERARCHY_KINDS)
    hierarchy = {"kind": kind}
    if kind == "vc":
        hierarchy["fbt_l2_tlb"] = pick.choice((False, True))
        hierarchy["synonym_remapping"] = pick.choice((False, True))
        hierarchy["large_page_policy"] = pick.choice(("subpage", "counter"))

    regions = ["a"] + (["l"] if layout["large"] else []) + (
        ["s"] if layout["synonym"] else [])
    small = range(layout["small_pages"])

    def lane():
        region = pick.choice(regions)
        page = pick.choice(LARGE_SUBPAGES if region == "l" else small)
        return [region, page, pick.choice(LINES)]

    per_cu = []
    n_lanes = 0
    for _ in range(pick.randint(1, n_cus)):
        stream = []
        for _ in range(pick.randint(1, 8)):
            op = pick.choice(("r", "r", "w", "s"))
            lanes = [lane() for _ in range(pick.randint(1, 4))]
            n_lanes += len(lanes)
            stream.append([op, lanes])
        per_cu.append(stream)

    faults = []
    small_regions = ["a"] + (["s"] if layout["synonym"] else [])
    for _ in range(pick.choice((0, 0, 1, 3))):
        faults.append([pick.randint(0, n_lanes), pick.choice(KINDS),
                       pick.choice(small_regions), pick.choice(small)])
    return {
        "name": name,
        "asid": pick.choice((0, 3)),
        "config": config,
        "hierarchy": hierarchy,
        "layout": layout,
        "trace": {"issue_interval": pick.choice((1.0, 4.0)),
                  "per_cu": per_cu},
        "faults": faults,
    }


@st.composite
def cases(draw):
    return draw_case(_HypothesisPicker(draw))


def _base_case(name: str, hierarchy: dict, per_cu, **config) -> dict:
    base = {
        "n_cus": 2, "l1_sets": 2, "l1_ways": 2, "l2_sets": 4, "l2_ways": 4,
        "l2_banks": 8, "tlb_entries": 4, "iommu_entries": 4,
        "iommu_banks": 1, "bank_select": "low", "iommu_bandwidth": 1.0,
        "fbt_entries": 8, "cu_window": 64,
    }
    base.update(config)
    return {
        "name": name, "asid": 0, "config": base, "hierarchy": hierarchy,
        "layout": {"small_pages": 2, "large": True, "synonym": True},
        "trace": {"issue_interval": 4.0, "per_cu": per_cu},
        "faults": [],
    }


#: A 2 MB page under the counter large-page policy: CU 0 reads a line
#: of subpage 3, then CU 1 writes it.  The write hits the L2 and must
#: find the page's forward-table entry through the large page's base
#: VPN — a path no golden point reaches.
COUNTER_POLICY_WRITE = _base_case(
    "counter-policy-write",
    {"kind": "vc", "fbt_l2_tlb": True, "synonym_remapping": False,
     "large_page_policy": "counter"},
    [[["r", [["l", 3, 1]]]], [["w", [["l", 3, 1]]]]],
)

#: Three L2 banks: bank selection is not a bit slice of the line.
THREE_BANK_L2 = _base_case(
    "three-bank-l2",
    {"kind": "physical"},
    [[["r", [["a", 0, 0], ["a", 0, 1], ["a", 0, 2], ["a", 1, 3]]],
      ["w", [["a", 0, 1], ["s", 1, 3]]],
      ["r", [["a", 1, 31], ["s", 0, 2]]]],
     [["w", [["a", 0, 0], ["a", 0, 3]]],
      ["r", [["s", 0, 0], ["s", 1, 3]]]]],
    l2_banks=3,
)

EXAMPLES = (COUNTER_POLICY_WRITE, THREE_BANK_L2)


def _one_cu_case(name: str, hierarchy: dict, stream, synonym: bool) -> dict:
    case = _base_case(name, hierarchy, [stream], n_cus=1, l1_sets=1,
                      l1_ways=1, l2_sets=1, l2_ways=1, l2_banks=1)
    case["layout"] = {"small_pages": 1, "large": False, "synonym": synonym}
    return case


#: Shrunk from a fuzzing failure: the synonym replay refills the
#: leading line the first read left in the L1, and the VC counted that
#: line twice in its invalidation filter.
SYNONYM_REFILL_L1 = _one_cu_case(
    "synonym-refill-l1",
    {"kind": "vc", "fbt_l2_tlb": True, "synonym_remapping": True,
     "large_page_policy": "subpage"},
    [["r", [["a", 0, 3]]], ["r", [["s", 0, 3]]]],
    synonym=True,
)

#: Shrunk from a fuzzing failure: in a one-way L1, filling a page's
#: second line evicts its first, and the L1-only ASDT retired the
#: page's entry while the new line stayed resident.
SAME_PAGE_L1_EVICTION = _one_cu_case(
    "same-page-l1-eviction",
    {"kind": "l1vc"},
    [["r", [["a", 0, 2], ["a", 0, 0]]]],
    synonym=False,
)


def _counter_fbt_case(name: str, per_cu, small_pages: int, synonym: bool,
                      issue_interval: float, **config) -> dict:
    case = _base_case(
        name,
        {"kind": "vc", "fbt_l2_tlb": True, "synonym_remapping": False,
         "large_page_policy": "counter"},
        per_cu, l1_sets=1, l1_ways=1, l2_sets=1, l2_banks=1,
        tlb_entries=None, fbt_entries=4, **config)
    case["layout"] = {"small_pages": small_pages, "large": True,
                      "synonym": synonym}
    case["trace"]["issue_interval"] = issue_interval
    return case


#: Shrunk from two fuzzing failures under the counter large-page policy
#: with the FBT as second-level TLB: an FBT hit on a 2 MB page's
#: counter-mode entry filed the page's base subpage in the shared TLB
#: as a base page.  Once the 4-entry FBT evicted that entry, the base
#: subpage got a bit-vector entry of its own, and later fills of the
#: page's other subpages marked their lines in it — so an L2 line of
#: subpage 511 had no FBT entry, or a bit vector missed a line.
COUNTER_FBT_HIT_SUBPAGE_511 = _counter_fbt_case(
    "counter-fbt-hit-subpage-511",
    [[["r", [["s", 1, 1], ["a", 2, 2], ["s", 0, 3]]]],
     [["r", [["l", 1, 31]]],
      ["r", [["l", 0, 1], ["s", 3, 1]]],
      ["r", [["l", 0, 2], ["l", 511, 3], ["a", 1, 2], ["s", 3, 2]]]]],
    small_pages=4, synonym=True, issue_interval=1.0,
    l2_ways=3, iommu_entries=4,
)
COUNTER_FBT_HIT_BIT_VECTOR = _counter_fbt_case(
    "counter-fbt-hit-bit-vector",
    [[["r", [["l", 3, 31]]], ["r", [["l", 0, 31]]]],
     [["r", [["l", 511, 1]]],
      ["r", [["a", 1, 1], ["a", 0, 3], ["l", 0, 31], ["l", 511, 31]]],
      ["r", [["l", 3, 3]]]]],
    small_pages=3, synonym=False, issue_interval=4.0,
    l2_ways=2, iommu_entries=16,
)


# -- building and running a case ----------------------------------------

def _soc_config(c: dict) -> SoCConfig:
    l1 = CacheConfig(size_bytes=LINE * c["l1_sets"] * c["l1_ways"],
                     line_size=LINE, associativity=c["l1_ways"],
                     n_banks=1, write_back=False, write_allocate=False)
    l2 = CacheConfig(size_bytes=LINE * c["l2_sets"] * c["l2_ways"],
                     line_size=LINE, associativity=c["l2_ways"],
                     n_banks=c["l2_banks"])
    iommu = IOMMUConfig(shared_tlb_entries=c["iommu_entries"],
                        bandwidth=float(c["iommu_bandwidth"]),
                        n_banks=c["iommu_banks"],
                        bank_select=c["bank_select"])
    return SoCConfig(n_cus=c["n_cus"], l1=l1, l2=l2,
                     per_cu_tlb_entries=c["tlb_entries"], iommu=iommu,
                     cu_window=c["cu_window"], fbt_entries=c["fbt_entries"],
                     fbt_associativity=2)


def _hierarchy(h: dict, config: SoCConfig, page_tables, synonym: bool, obs):
    kind = h["kind"]
    if kind in ("physical", "ideal"):
        return PhysicalHierarchy(config, page_tables, ideal=kind == "ideal",
                                 obs=obs)
    # A mapped synonym alias is legal sharing here, not a fault.
    fault_on_rw = not synonym
    if kind == "vc":
        return VirtualCacheHierarchy(
            config, page_tables,
            fbt_as_second_level_tlb=h["fbt_l2_tlb"],
            fault_on_rw_synonym=fault_on_rw,
            large_page_policy=h["large_page_policy"],
            enable_synonym_remapping=h["synonym_remapping"],
            srt_entries=2,
            obs=obs,
        )
    return L1OnlyVirtualHierarchy(config, page_tables,
                                  fault_on_rw_synonym=fault_on_rw, obs=obs)


def build_case(case: dict, obs):
    """A fresh (trace, hierarchy, config) for one run of ``case``.

    Every run needs its own address space: fault plans remap, unmap and
    downgrade pages in the page table the hierarchy walks.
    """
    asid = case["asid"]
    layout = case["layout"]
    space = AddressSpace(asid)
    bases = {"a": space.mmap(layout["small_pages"]).base_va}
    if layout["large"]:
        bases["l"] = space.mmap(1, large_pages=True).base_va
    if layout["synonym"]:
        small = space.mappings[0]
        bases["s"] = space.map_synonym(small).base_va

    def address(region, page, line):
        return bases[region] + page * PAGE_SIZE + line * LINE

    # compile_arrays, not TraceBuilder: a CU stream may be empty.
    trace = compile_streams(
        space,
        [[([address(*lane) for lane in lanes], _OP_FLAGS[op])
          for op, lanes in stream]
         for stream in case["trace"]["per_cu"]],
        issue_interval=case["trace"]["issue_interval"], name=case["name"])
    config = _soc_config(case["config"])
    hierarchy = _hierarchy(case["hierarchy"], config,
                           {asid: space.page_table}, layout["synonym"], obs)
    if case["faults"]:
        events = tuple(
            FaultEvent(index=index, kind=kind,
                       vpn=page_number(bases[region]) + page, asid=asid)
            for index, kind, region, page in case["faults"])
        hierarchy = FaultInjector(hierarchy, FaultPlan(events=events),
                                  space, asid=asid)
    return trace, hierarchy, config


def _bundle(mode: str):
    if mode == "none":
        return None
    if mode == "metrics":
        return Observability()
    return Observability(tracer=RecordingTracer())


def run_case(case: dict, mode: str) -> dict:
    """Simulate ``case`` under one observability mode; its outcome.

    The invariant auditor runs after every instruction, so a broken
    invariant fails the case whichever path runs it.
    """
    obs = _bundle(mode)
    trace, hierarchy, config = build_case(case, obs)
    result = simulate(trace, hierarchy, config, design=case["name"],
                      asid=case["asid"], obs=obs, check_invariants=True,
                      invariant_interval=1)
    if mode == "traced":
        assert obs.tracer.events, "the tracing run recorded no events"
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "requests": result.requests,
        "counters": result.counters,
    }


def assert_paths_agree(case: dict) -> dict:
    """Run ``case`` three ways; return the metrics-only method path's outcome."""
    outcomes = {mode: run_case(case, mode) for mode in MODES}
    reference = outcomes["metrics"]
    for mode in MODES:
        assert outcomes[mode] == reference, (
            f"{mode} run disagrees with the metrics-only method path "
            f"on case {json.dumps(case)}")
    return reference


# -- differential fuzzing ------------------------------------------------

@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=cases())
@example(case=COUNTER_POLICY_WRITE)
@example(case=THREE_BANK_L2)
@example(case=SYNONYM_REFILL_L1)
@example(case=SAME_PAGE_L1_EVICTION)
@example(case=COUNTER_FBT_HIT_SUBPAGE_511)
@example(case=COUNTER_FBT_HIT_BIT_VECTOR)
def test_observability_never_changes_the_outcome(case):
    assert_paths_agree(case)


# -- metamorphic: physical designs filter privately ----------------------

#: A physical design's per-CU TLB and L1 see only their CU's requests,
#: in program order (write-through no-allocate L1, no back-invalidation,
#: TLB fills at call time), so the shared side cannot move these.
PRIVATE_COUNTERS = ("tlb.accesses", "tlb.misses", "tlb.miss_l1_hit",
                    "l1.hits", "l1.misses")
#: The shared side of a case's SoC, and the CU window that paces it.
SHARED_KNOBS = ("iommu_entries", "iommu_banks", "bank_select",
                "iommu_bandwidth", "l2_sets", "l2_ways", "l2_banks",
                "cu_window")


@st.composite
def shared_side_redraws(draw):
    """A fault-free physical case and three copies with the shared side redrawn."""
    pick = _HypothesisPicker(draw)
    case = draw_case(pick, kind="physical")
    case["faults"] = []
    variants = []
    for _ in range(3):
        shared = draw_config(pick)
        variant = json.loads(json.dumps(case))
        variant["config"].update({knob: shared[knob] for knob in SHARED_KNOBS})
        variants.append(variant)
    return case, variants


def _private_counters(case: dict) -> dict:
    counters = run_case(case, "none")["counters"]
    return {name: counters.get(name, 0) for name in PRIVATE_COUNTERS}


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(drawn=shared_side_redraws())
def test_physical_designs_filter_privately(drawn):
    case, variants = drawn
    reference = _private_counters(case)
    for variant in variants:
        assert _private_counters(variant) == reference, json.dumps(variant)


@pytest.mark.parametrize("l2_banks", L2_BANKS)
@pytest.mark.parametrize(
    "example", EXAMPLES, ids=[case["name"] for case in EXAMPLES])
def test_only_a_bundle_selects_the_method_path(example, l2_banks):
    """Physical and full-VC builds compile for every bank count."""
    case = json.loads(json.dumps(example))
    case["config"]["l2_banks"] = l2_banks
    _, compiled, _ = build_case(case, None)
    assert "access" in vars(compiled)
    _, instrumented, _ = build_case(case, Observability())
    assert "access" not in vars(instrumented)


# -- the committed corpus ------------------------------------------------

def corpus_cases() -> list:
    """The corpus: the explicit examples plus seeded random cases.

    The seeded cases cycle through the hierarchy kinds and the L2 bank
    counts together, so each kind appears with three bank counts:
    physical and full VC with 1, 3 and 5 banks, ideal and L1-only with
    2, 4 and 8.
    """
    seeded = [
        draw_case(_RandomPicker(random.Random(f"access-corpus:{i}")),
                  name=f"seeded-{i:02d}",
                  kind=HIERARCHY_KINDS[i % len(HIERARCHY_KINDS)],
                  l2_banks=L2_BANKS[i % len(L2_BANKS)])
        for i in range(28)
    ]
    return list(EXAMPLES) + seeded


def _load_corpus() -> list:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        # Recorded from the metrics-only method path, after checking
        # that all three paths agree on every case.
        entries = [{"case": case, "outcome": assert_paths_agree(case)}
                   for case in corpus_cases()]
        CORPUS_PATH.write_text(
            json.dumps({"cases": entries}, indent=1, sort_keys=True) + "\n")
    return json.loads(CORPUS_PATH.read_text())["cases"]


CORPUS = _load_corpus()


def test_corpus_covers_every_hierarchy_and_bank_count():
    kinds = {entry["case"]["hierarchy"]["kind"] for entry in CORPUS}
    assert kinds == set(HIERARCHY_KINDS)
    banks = {entry["case"]["config"]["l2_banks"] for entry in CORPUS}
    assert {3, 5} <= banks
    assert any(entry["case"]["faults"] for entry in CORPUS)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "entry", CORPUS, ids=[entry["case"]["name"] for entry in CORPUS])
def test_corpus_replays_exactly(entry, mode):
    assert run_case(entry["case"], mode) == entry["outcome"]
