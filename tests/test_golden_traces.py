"""Golden trace digests: every registered workload's generated output.

Pins, for each of the 15 registered workloads at scale 0.05 with its
default seed, a SHA-256 over seven arrays, its ``name``,
``issue_interval`` and ``metadata``, and its address-space layout (the
mapping rows the store replays, plus each mapping's physical base).
The seven arrays are the four a trace keeps, the lane addresses and
lane counts its :class:`~repro.workloads.device.TraceBuilder` recorded,
and the lanes each request serves by the dict
:class:`~repro.gpu.coalescer.Coalescer`, hashed in the order of the
seven files format 1 of the store held.  Any change to a generator, to
trace building, or to coalescing that moves a single lane, request or
frame fails here, before it can skew a simulated cycle.

Regenerate (only when an *intentional* workload change shifts traces)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.gpu.coalescer import Coalescer
from repro.workloads import registry
from repro.workloads.compiled import _ARRAY_FILES, mapping_rows

from tests.conftest import SCRATCH, load_recorded

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"

SCALE = 0.05

#: The digested arrays, in the order the seven files of format 1 of the
#: compiled-trace store held them.
DIGESTED = _ARRAY_FILES + (
    ("req_lanes", np.int64),
    ("lane_counts", np.int64),
    ("lanes", np.int64),
)


def _lanes_per_request(lanes, lane_counts, flags, line_size) -> list:
    """Lanes each request serves, by the dict Coalescer; no scratchpad."""
    coalesce = Coalescer(line_size).coalesce
    served, pos = [], 0
    for n_lanes, flag in zip(lane_counts, flags):
        if not flag & SCRATCH:
            served.extend(r.n_lanes for r in coalesce(lanes[pos:pos + n_lanes]))
        pos += n_lanes
    return served


def _digest(name: str) -> dict:
    compiled, (lanes, lane_counts, flags, _bounds) = load_recorded(name, SCALE)
    arrays = {stem: getattr(compiled, f"_{stem}") for stem, _ in _ARRAY_FILES}
    arrays["req_lanes"] = _lanes_per_request(lanes, lane_counts, flags,
                                             compiled.line_size)
    arrays["lane_counts"] = lane_counts
    arrays["lanes"] = lanes
    digest = hashlib.sha256()
    for stem, dtype in DIGESTED:
        arr = np.ascontiguousarray(arrays[stem], dtype=dtype)
        digest.update(stem.encode() + b"\0" + arr.tobytes() + b"\0")
    space = compiled.address_space
    identity = {
        "name": compiled.name,
        "issue_interval": repr(compiled.issue_interval),
        "metadata": compiled.metadata,
        "asid": space.asid,
        "mappings": mapping_rows(space),
        "physical_bases": [space.translate(m.base_va) for m in space.mappings],
    }
    digest.update(json.dumps(identity, sort_keys=True).encode())
    return {
        "sha256": digest.hexdigest(),
        "instructions": compiled.n_instructions,
        "requests": int(compiled._req_line.size),
        "lanes": len(lanes),
    }


@pytest.fixture(scope="module")
def golden():
    current = {name: _digest(name) for name in sorted(registry.WORKLOADS)}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n")
    assert GOLDEN_PATH.exists(), (
        "golden trace digests missing — run with REPRO_REGEN_GOLDEN=1 to "
        "record them"
    )
    return json.loads(GOLDEN_PATH.read_text()), current


def test_every_workload_is_pinned(golden):
    recorded, _current = golden
    assert sorted(recorded) == sorted(registry.WORKLOADS)


@pytest.mark.parametrize("name", sorted(registry.WORKLOADS))
def test_trace_digest_exact(golden, name):
    recorded, current = golden
    assert current[name] == recorded[name]
