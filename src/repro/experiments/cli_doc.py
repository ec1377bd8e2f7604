"""Generate ``docs/CLI.md`` from the real ``repro-experiment`` parser.

The CLI reference is *generated*, never hand-edited: this module walks
:func:`repro.experiments.cli.build_parser` (every flag, every argument
group, every default) plus the experiment registry, and renders the
markdown committed at ``docs/CLI.md``.  ``tests/test_cli_doc.py`` fails
whenever the committed file differs from what this module renders, so
the documentation cannot drift from the code.  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.cli_doc > docs/CLI.md
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from repro.experiments.cli import EXPERIMENTS, EXTRA_COMMANDS, build_parser

__all__ = ["EXPERIMENT_DESCRIPTIONS", "main", "render_cli_doc"]

#: One-line description per experiment name.  Generation fails loudly if
#: an experiment is added without a description (or one goes stale), so
#: the drift test catches missing docs too.
EXPERIMENT_DESCRIPTIONS: Dict[str, str] = {
    "table1": "Simulated SoC configuration (paper Table 1).",
    "table2": "MMU design presets under evaluation (paper Table 2).",
    "fig2": "Per-CU TLB miss ratio and where a virtual cache would "
            "have found the data.",
    "fig3": "Shared IOMMU TLB accesses/cycle (mean ± σ, max).",
    "fig4": "Translation overhead of the baseline MMUs vs IDEAL.",
    "fig5": "Serialization overhead vs shared-TLB peak bandwidth "
            "1–4 accesses/cycle.",
    "fig8": "Shared-TLB demand: baseline vs virtual hierarchy.",
    "fig9": "Performance of all Table 2 designs relative to IDEAL.",
    "fig10": "Virtual-cache speedup over 128-entry per-CU TLBs.",
    "fig11": "Whole-hierarchy vs L1-only virtual caching.",
    "fig12": "Lifetimes: TLB entries die while cached data stays live.",
    "energy": "Energy proxies: TLB lookups avoided, IOMMU traffic (§5.3).",
    "coherence": "The backward table as a coherence filter (§4.1).",
    "validate": "Every headline paper claim vs the measured value, "
                "with acceptance bands.",
    "all": "Every experiment above, in name order.",
    "chaos": "Deterministic VM-event fault injection under invariant "
             "audit (see the chaos options below).",
    "serve": "Long-running simulation service over HTTP: batching, "
             "single-flight coalescing, cache-tier provenance, /metrics "
             "and /healthz; --replicas N shards it behind a "
             "consistent-hash gateway (see the serve options below).",
    "dashboard": "Render the translation-bandwidth telemetry dashboard "
                 "(IOMMU queue-depth / filter-rate timelines, traffic "
                 "breakdown) as a self-contained HTML page (see the "
                 "dashboard options below).",
    "loadtest": "Concurrency sweep against the simulation service: "
                "p50/p95/p99 latency, throughput, and the saturation "
                "knee; --lt-replicas sweeps a sharded gateway and "
                "reports the scaling curve (see the loadtest options "
                "below).",
    "trace": "Render a JSON-lines trace file as a span tree "
             "('trace show', see the trace options below).",
    "sweep": "Run a declarative SweepSpec JSON file ('sweep SPEC.json') "
             "through the result cache — full --jobs/--cache-dir/"
             "--checkpoint/retry support; fault-plan specs run the chaos "
             "harness (see docs/SWEEPSPEC.md and the sweep options "
             "below).",
    "designs": "Print every named MMU design preset a SweepSpec (or "
               "service point) can reference; --list prints bare slugs.",
    "workloads": "Print every workload trace name with its suite and "
                 "bandwidth class; --list prints bare names.",
}


def _invocation(action: argparse.Action) -> str:
    """How one option is spelled on the command line."""
    if not action.option_strings:  # positional
        return (action.metavar or action.dest).upper() \
            if isinstance(action.metavar or action.dest, str) else action.dest
    spelling = ", ".join(action.option_strings)
    if action.nargs != 0:
        metavar = action.metavar or action.dest.upper()
        spelling += f" {metavar}"
    return spelling


def _clean_help(action: argparse.Action) -> str:
    text = " ".join((action.help or "").split())
    return text[:1].upper() + text[1:] if text else ""


def _render_group(group: argparse._ArgumentGroup,
                  lines: List[str]) -> None:
    actions = [a for a in group._group_actions
               if not isinstance(a, argparse._HelpAction)]
    if not actions:
        return
    title = (group.title or "options")
    lines.append(f"### {title[:1].upper() + title[1:]}")
    lines.append("")
    lines.append("| Argument | Description |")
    lines.append("|---|---|")
    for action in actions:
        lines.append(f"| `{_invocation(action)}` | {_clean_help(action)} |")
    lines.append("")


def _format_usage_at_80_columns(parser: argparse.ArgumentParser) -> str:
    """Usage text wrapped at a fixed width, independent of the terminal.

    ``argparse`` wraps usage at the live terminal width (``COLUMNS``);
    pinning it keeps the generated file byte-identical everywhere.
    """
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return parser.format_usage().rstrip()
    finally:
        if saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved


def render_cli_doc() -> str:
    """Render the complete markdown CLI reference."""
    parser = build_parser()
    documented = set(EXPERIMENT_DESCRIPTIONS)
    actual = set(EXPERIMENTS) | set(EXTRA_COMMANDS)
    if documented != actual:
        missing = sorted(actual - documented)
        stale = sorted(documented - actual)
        raise RuntimeError(
            f"EXPERIMENT_DESCRIPTIONS is out of sync with the experiment "
            f"registry (missing: {missing}, stale: {stale}); update "
            f"repro/experiments/cli_doc.py")

    lines: List[str] = []
    lines.append("# `repro-experiment` CLI reference")
    lines.append("")
    lines.append("> **Generated file — do not edit by hand.**  This page is "
                 "rendered from the real `argparse` parser by "
                 "`repro.experiments.cli_doc`; `tests/test_cli_doc.py` "
                 "fails if it drifts from the code.  Regenerate with:")
    lines.append("> ")
    lines.append("> ```bash")
    lines.append("> PYTHONPATH=src python -m repro.experiments.cli_doc "
                 "> docs/CLI.md")
    lines.append("> ```")
    lines.append("")
    lines.append(parser.description or "")
    lines.append("")
    lines.append("## Usage")
    lines.append("")
    lines.append("```")
    lines.append(_format_usage_at_80_columns(parser))
    lines.append("```")
    lines.append("")
    lines.append("## Experiments")
    lines.append("")
    lines.append("The positional `EXPERIMENT` argument selects what to run "
                 "(`repro-experiment --list` prints the same set):")
    lines.append("")
    lines.append("| Experiment | What it runs |")
    lines.append("|---|---|")
    ordered = sorted(EXPERIMENTS) + list(EXTRA_COMMANDS)
    for name in ordered:
        lines.append(f"| `{name}` | {EXPERIMENT_DESCRIPTIONS[name]} |")
    lines.append("")
    lines.append("## Options")
    lines.append("")
    for group in parser._action_groups:
        _render_group(group, lines)
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    sys.stdout.write(render_cli_doc())
    return 0


if __name__ == "__main__":
    sys.exit(main())
