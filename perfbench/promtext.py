"""Read the service's Prometheus text exposition: counter totals and histogram deltas.

The gateway's ``/metrics`` merges its own families with every
replica's scrape under a ``replica="..."`` label.  Scrapes taken before
and after the timed phase give its deltas: counters subtract, and
histogram buckets (cumulative, only occupied buckets exported) are
turned into per-bucket counts, summed over label sets, subtracted and
read back as interpolated percentiles.
"""

from __future__ import annotations

import math
import re
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.obs.promexp import prometheus_name

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})? (?P<value>\S+)")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

Sample = Tuple[str, FrozenSet[Tuple[str, str]]]


def parse(text: str) -> Dict[Sample, float]:
    """Every sample line as ``(name, labels) → value``."""
    out: Dict[Sample, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = frozenset(_LABEL.findall(match.group("labels") or ""))
        out[(match.group("name"), labels)] = float(match.group("value"))
    return out


def counter(parsed: Dict[Sample, float], instrument: str) -> float:
    """A counter's total (0 if never incremented).

    A source that keeps a total beside its per-label breakdown (the
    gateway counts ``gateway.sheds`` and ``gateway.sheds[replica=...]``)
    exports the total as the unlabelled sample, which is then the
    answer.  Otherwise the label sets are disjoint (one per replica in
    the merged exposition) and their samples are summed.
    """
    name = prometheus_name(instrument) + "_total"
    samples = {labels: v for (n, labels), v in parsed.items() if n == name}
    if frozenset() in samples:
        return samples[frozenset()]
    return sum(samples.values())


def gauge(parsed: Dict[Sample, float], instrument: str) -> float:
    """A gauge summed over every label set (e.g. one per replica)."""
    name = prometheus_name(instrument)
    return sum(v for (n, _), v in parsed.items() if n == name)


def buckets(parsed: Dict[Sample, float], instrument: str) -> Dict[float, float]:
    """Per-bucket (not cumulative) counts keyed by upper bound, all label sets summed.

    ``instrument`` is the registry name without any bracket labels, so
    ``gateway.forward_seconds`` gathers every replica's series.
    """
    name = prometheus_name(instrument) + "_bucket"
    series: Dict[FrozenSet, List[Tuple[float, float]]] = {}
    for (n, labels), value in parsed.items():
        if n != name:
            continue
        le = dict(labels).get("le")
        if le is None:
            continue
        key = frozenset(item for item in labels if item[0] != "le")
        series.setdefault(key, []).append((float(le), value))
    out: Dict[float, float] = {}
    for points in series.values():
        previous = 0.0
        for bound, cumulative in sorted(points):
            out[bound] = out.get(bound, 0.0) + cumulative - previous
            previous = cumulative
    return out


def delta_percentile(before: Dict[Sample, float], after: Dict[Sample, float],
                     instrument: str, q: float) -> Optional[float]:
    """The ``q``-th percentile of what a histogram recorded between two scrapes.

    Interpolates linearly inside the bucket holding the rank (bucket
    bounds grow geometrically, eight per octave).  ``None`` when
    nothing was recorded.
    """
    old = buckets(before, instrument)
    new = buckets(after, instrument)
    counts = sorted((bound, new.get(bound, 0.0) - old.get(bound, 0.0))
                    for bound in set(new) | set(old))
    total = sum(c for _, c in counts)
    if total <= 0:
        return None
    rank = total * q / 100.0
    seen = 0.0
    finite = [b for b, _ in counts if not math.isinf(b)]
    for bound, count in counts:
        if count <= 0:
            continue
        if seen + count >= rank:
            if math.isinf(bound):
                return finite[-1] if finite else 0.0
            lower = 0.0 if bound == 0 else bound / 2 ** (1 / 8)
            return lower + (bound - lower) * (rank - seen) / count
        seen += count
    return finite[-1] if finite else 0.0
