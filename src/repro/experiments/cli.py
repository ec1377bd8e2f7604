"""Command-line entry point: regenerate any table or figure.

Usage::

    repro-experiment fig9                     # one figure
    repro-experiment all                      # everything
    repro-experiment fig2 --scale 0.25        # quick, scaled-down run
    repro-experiment all --jobs 4 \\
        --cache-dir ~/.cache/repro            # parallel + persistent cache
    repro-experiment --list                   # valid experiment names
    repro-experiment fig3 --scale 0.25 \\
        --trace-out trace.jsonl \\
        --metrics-out manifest.json --profile # fully observed run

``--trace-out`` streams every simulated request's path (CU issue, TLB
and virtual-cache hits/misses, IOMMU queue enter/exit, page walks,
completion) as JSON lines; ``--metrics-out`` writes a run manifest with
the config, git SHA, wall-clock, and every metric including latency
histograms (IOMMU queueing delay p50/p95/p99); ``--profile`` prints a
wall-clock breakdown of the experiment pipeline.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict

from repro.experiments import (
    energy,
    fig2,
    fig3,
    fig4,
    fig5,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    tables,
)
from repro.experiments.common import GLOBAL_CACHE

__all__ = ["EXPERIMENTS", "EXTRA_COMMANDS", "build_parser", "main"]

EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table1": lambda: tables.render_table1(),
    "table2": lambda: tables.render_table2(),
    "fig2": lambda: fig2.run(GLOBAL_CACHE).render(),
    "fig3": lambda: fig3.run(GLOBAL_CACHE).render(),
    "fig4": lambda: fig4.run(GLOBAL_CACHE).render(),
    "fig5": lambda: fig5.run(GLOBAL_CACHE).render(),
    "fig8": lambda: fig8.run(GLOBAL_CACHE).render(),
    "fig9": lambda: fig9.run(GLOBAL_CACHE).render(),
    "fig10": lambda: fig10.run(GLOBAL_CACHE).render(),
    "fig11": lambda: fig11.run(GLOBAL_CACHE).render(),
    "fig12": lambda: fig12.run(GLOBAL_CACHE).render(),
    "energy": lambda: energy.run(GLOBAL_CACHE).render(),
    "coherence": lambda: _coherence(),
    "validate": lambda: _validate(),
}


def _coherence() -> str:
    from repro.experiments import coherence

    return coherence.run(GLOBAL_CACHE).render()


def _validate() -> str:
    from repro.analysis.paper_targets import collect_measurements, render_report

    return render_report(collect_measurements(GLOBAL_CACHE))


#: Subcommands dispatched outside the figure/table registry.
EXTRA_COMMANDS = ("all", "chaos", "dashboard", "designs", "loadtest",
                  "serve", "sweep", "trace", "workloads")


def _experiment_listing() -> str:
    return "\n".join(sorted(EXPERIMENTS) + list(EXTRA_COMMANDS))


def _preflight_cache_dir(cache_dir: str) -> str:
    """Prove --cache-dir is creatable and writable; '' if so, else why not.

    Runs before any simulation so a doomed sweep fails in milliseconds,
    not after hours of compute whose results then cannot be persisted.
    """
    import tempfile

    try:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        fd, probe = tempfile.mkstemp(dir=cache_dir, prefix=".writable-")
    except OSError as exc:
        return f"--cache-dir {cache_dir!r} is not writable: {exc}"
    import os

    os.close(fd)
    os.unlink(probe)
    return ""


def _build_observability(args):
    """One Observability bundle for --trace-out/--metrics-out.

    ``--profile`` alone builds none: a bundle would swap every
    hierarchy onto its instrumented method path, so the profile would
    time a different program than the unprofiled run.
    """
    if not (args.trace_out or args.metrics_out):
        return None
    from repro.obs import JsonLinesTracer, Observability

    tracer = JsonLinesTracer(args.trace_out) if args.trace_out else None
    return Observability(tracer=tracer)


def _print_designs(slugs_only: bool) -> int:
    """The ``designs`` command: every preset a SweepSpec can name."""
    from repro.system.designs import PRESET_DESIGNS, design_slug

    if slugs_only:
        for design in PRESET_DESIGNS:
            print(design_slug(design.name))
        return 0
    header = (f"{'slug':32s} {'name':30s} {'kind':9s} "
              f"{'per-CU TLB':>10s} {'IOMMU TLB':>9s} {'B/W':>9s}")
    print(header)
    print("-" * len(header))
    for design in PRESET_DESIGNS:
        per_cu = ("inf" if design.per_cu_tlb_entries is None
                  else str(design.per_cu_tlb_entries))
        iommu = ("inf" if design.iommu_entries is None
                 else str(design.iommu_entries))
        bandwidth = (f"{design.iommu_bandwidth:g}/cyc")
        print(f"{design_slug(design.name):32s} {design.name:30s} "
              f"{design.kind:9s} {per_cu:>10s} {iommu:>9s} {bandwidth:>9s}")
    print("\n(use the slug — or the full name — in SweepSpec 'designs', "
          "service points, and --lt-points)")
    return 0


def _print_workloads(names_only: bool) -> int:
    """The ``workloads`` command: every trace name a SweepSpec can use."""
    from repro.workloads import registry

    if names_only:
        for name in sorted(registry.WORKLOADS):
            print(name)
        return 0
    header = f"{'workload':16s} {'suite':10s} bandwidth"
    print(header)
    print("-" * len(header))
    for name in sorted(registry.WORKLOADS):
        suite = "pannotia" if name in registry.PANNOTIA else "rodinia"
        if name in registry.HIGH_BANDWIDTH:
            group = "high"
        elif name in registry.LOW_BANDWIDTH:
            group = "low"
        else:
            group = "-"
        print(f"{name:16s} {suite:10s} {group}")
    print("\n(use these names in SweepSpec 'workloads', service points, "
          "and --chaos-workloads)")
    return 0


def _run_sweep(args, obs) -> int:
    """The ``sweep`` command body: load, validate, run, report."""
    import json

    from repro.experiments import sweepspec

    if args.action is None:
        print("repro-experiment: error: sweep needs a spec file "
              "(repro-experiment sweep SPEC.json)", file=sys.stderr)
        return 2
    try:
        text = Path(args.action).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"repro-experiment: error: cannot read sweep spec "
              f"{args.action!r}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = sweepspec.SweepSpec.from_json(text)
    except sweepspec.SweepSpecError as exc:
        print(f"repro-experiment: error: invalid sweep spec "
              f"({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    if args.sweep_out is not None:
        parent = Path(args.sweep_out).resolve().parent
        if not parent.is_dir():
            print(f"repro-experiment: error: --sweep-out directory "
                  f"{str(parent)!r} does not exist", file=sys.stderr)
            return 2
    if spec.faults is not None:
        # A fault-plan spec is a chaos grid: uncached, always audited.
        from repro.experiments import chaos

        report = chaos.run_spec(spec, obs=obs)
        print(report.render())
        if args.sweep_out is not None:
            payload = {
                "name": spec.name,
                "fingerprint": spec.fingerprint(),
                "seed": spec.faults.seed,
                "ok": report.ok,
                "points": [{
                    "workload": p.workload, "design": p.design,
                    "rate": p.rate, "n_events": p.n_events,
                    "events_applied": p.events_applied,
                    "audits": p.audits, "cycles": p.cycles,
                    "ok": p.ok, "violation": p.violation,
                } for p in report.points],
            }
            Path(args.sweep_out).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.sweep_out}")
        return 0 if report.ok else 1
    outcome = sweepspec.run_sweep(spec, GLOBAL_CACHE)
    print(outcome.render())
    if args.sweep_out is not None:
        Path(args.sweep_out).write_text(
            json.dumps(outcome.as_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.sweep_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro-experiment`` argument parser.

    Exposed separately from :func:`main` so ``docs/CLI.md`` can be
    generated from (and drift-checked against) the real parser — see
    :mod:`repro.experiments.cli_doc`.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate tables/figures from 'Filtering Translation "
                    "Bandwidth with Virtual Caching' (ASPLOS 2018)",
    )
    parser.add_argument(
        "experiment", nargs="?", metavar="EXPERIMENT",
        help="which artefact to regenerate (see --list), or 'all'",
    )
    parser.add_argument(
        "action", nargs="?", metavar="ACTION",
        help="subaction for the 'trace' command (only 'show': render a "
             "JSON-lines trace file as a span tree), or the SPEC.json "
             "path for the 'sweep' command",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the valid experiment names and exit",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale factor (default: REPRO_SCALE env or 1.0)",
    )
    parser.add_argument(
        "--svg", metavar="DIR", default=None,
        help="additionally render the data figures as SVG files into DIR",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan missing (workload, design) simulations out over N "
             "worker processes (default: 1, fully serial; results are "
             "bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist simulation results under DIR and reuse them across "
             "invocations; entries are keyed by workload, scale, the full "
             "MMU design, and a content hash of the SoC config, so any "
             "change to those re-simulates",
    )
    parser.add_argument(
        "--trace-cache", metavar="DIR", default=None,
        help="store compiled (precoalesced, mmap-able) traces under DIR "
             "and reuse them across processes; defaults to "
             "CACHE_DIR/traces when --cache-dir is given; chaos runs "
             "never read it (fault injection mutates page tables)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a JSON-lines trace of every simulated request to PATH",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a JSON run manifest (config, git SHA, all metrics "
             "including latency histograms) to PATH",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a wall-clock profile of the experiment pipeline",
    )
    sweep_group = parser.add_argument_group(
        "sweep options (only with the 'sweep' experiment)")
    sweep_group.add_argument(
        "--sweep-out", metavar="PATH", default=None,
        help="write the sweep's JSON report (fingerprint, per-point "
             "results, simulations actually run this invocation) to PATH",
    )
    robust_group = parser.add_argument_group("robustness options")
    robust_group.add_argument(
        "--check-invariants", action="store_true",
        help="audit FBT/cache structural invariants during every "
             "simulation, failing fast with a diagnostic dump on any "
             "inconsistency (opt-in: costs simulation throughput)",
    )
    robust_group.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="append every completed sweep point to a crash-safe "
             "checkpoint file at PATH; a killed run restarted with the "
             "same checkpoint recomputes nothing that already finished",
    )
    robust_group.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any parallel sweep point that produces no "
             "result within SECONDS (default: wait forever)",
    )
    robust_group.add_argument(
        "--point-retries", type=int, default=2, metavar="N",
        help="retry a crashed/timed-out sweep point up to N times before "
             "failing the sweep (default: 2)",
    )
    chaos_group = parser.add_argument_group(
        "chaos options (only with the 'chaos' experiment)")
    chaos_group.add_argument(
        "--fault-rates", metavar="R1,R2,...", default="0.0005,0.002",
        help="comma-separated VM-event fault rates (events per coalesced "
             "request) to sweep (default: 0.0005,0.002)",
    )
    chaos_group.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed for the deterministic fault schedule (default: 0)",
    )
    chaos_group.add_argument(
        "--chaos-workloads", metavar="W1,W2,...", default="bfs,kmeans",
        help="comma-separated workloads to fault-inject (default: bfs,kmeans)",
    )
    chaos_group.add_argument(
        "--net", action="store_true",
        help="network chaos instead of VM-event chaos: spawn a sharded "
             "gateway whose replica links run through a seeded "
             "fault-injecting TCP proxy (resets, black-holes, slow-loris, "
             "corruption, truncation, latency) and assert zero wrong "
             "results and a bounded error rate",
    )
    chaos_group.add_argument(
        "--net-rates", metavar="KIND=R,...", default=None,
        help="per-connection network fault rates, e.g. "
             "'reset=0.2,corrupt=0.1'; kinds: latency, reset, blackhole, "
             "slowloris, corrupt, truncate (default: every kind in play, "
             "~45%% of connections faulted)",
    )
    chaos_group.add_argument(
        "--net-replicas", type=int, default=2, metavar="N",
        help="replicas behind the chaos gateway (default: 2)",
    )
    chaos_group.add_argument(
        "--net-requests", type=int, default=32, metavar="N",
        help="client requests driven through the faulted gateway "
             "(default: 32)",
    )
    chaos_group.add_argument(
        "--net-out", metavar="PATH", default=None,
        help="write the network-chaos report JSON to PATH",
    )
    serve_group = parser.add_argument_group(
        "serve options (only with the 'serve' experiment)")
    serve_group.add_argument(
        "--host", metavar="ADDR", default="127.0.0.1",
        help="address the simulation service binds (default: 127.0.0.1)",
    )
    serve_group.add_argument(
        "--port", type=int, default=8000, metavar="N",
        help="port the simulation service listens on; 0 picks a free "
             "port and prints it (default: 8000)",
    )
    serve_group.add_argument(
        "--batch-window", type=float, default=0.01, metavar="SECONDS",
        help="how long the server lingers collecting points into one "
             "run_many wave after the first arrives (default: 0.01)",
    )
    serve_group.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="maximum distinct points batched into one wave (default: 64)",
    )
    serve_group.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="front N 'repro-experiment serve' subprocess replicas with a "
             "consistent-hash sharding gateway on --host:--port; the "
             "replicas share --cache-dir as a common disk tier "
             "(default: 0, a plain single-process service)",
    )
    serve_group.add_argument(
        "--replica-urls", metavar="HOST:PORT,...", default=None,
        help="shard across already-running services at these addresses "
             "instead of spawning replicas (the gateway health-checks and "
             "routes but never starts or stops them; IPv6 as [ADDR]:PORT)",
    )
    serve_group.add_argument(
        "--health-interval", type=float, default=0.5, metavar="SECONDS",
        help="gateway health-probe period (jittered ±20%%); 3 consecutive "
             "failed probes evict the replica from the hash ring until it "
             "recovers (default: 0.5)",
    )
    serve_group.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission-control budget: shed work (HTTP 429 with a "
             "Retry-After hint) once N points are queued or in flight "
             "(default: unbounded)",
    )
    serve_group.add_argument(
        "--jobs-journal", metavar="PATH", default=None,
        help="persist submitted /v1/jobs to a crash-safe journal at PATH; "
             "a restarted server resumes unfinished jobs and still serves "
             "finished results (plain serve only, not --replicas)",
    )
    serve_group.add_argument(
        "--no-supervise", action="store_true",
        help="gateway mode: do not respawn dead managed replicas (default: "
             "a dead replica is respawned with capped exponential backoff, "
             "and a flapping one trips the give-up alarm)",
    )
    loadtest_group = parser.add_argument_group(
        "loadtest options (only with the 'loadtest' experiment)")
    loadtest_group.add_argument(
        "--lt-target", metavar="HOST:PORT", default=None,
        help="load-test an already-running service at HOST:PORT "
             "(default: spawn a private in-process service)",
    )
    loadtest_group.add_argument(
        "--lt-clients", metavar="N1,N2,...", default="1,2,4,8",
        help="comma-separated concurrency levels to sweep "
             "(default: 1,2,4,8)",
    )
    loadtest_group.add_argument(
        "--lt-requests", type=int, default=8, metavar="N",
        help="requests each client issues per level (default: 8)",
    )
    loadtest_group.add_argument(
        "--lt-points", metavar="W/D,...", default="bfs/baseline-512",
        help="comma-separated workload/design points each request asks "
             "for (default: bfs/baseline-512)",
    )
    loadtest_group.add_argument(
        "--lt-out", metavar="PATH", default=None,
        help="write the per-level latency/throughput report JSON to PATH",
    )
    loadtest_group.add_argument(
        "--lt-replicas", metavar="N1,N2,...", default=None,
        help="shard-scaling mode: sweep the mixed hot/cold stream against "
             "a locally spawned gateway at each replica count (e.g. 1,2,3) "
             "and report the scaling curve; mutually exclusive with "
             "--lt-target",
    )
    loadtest_group.add_argument(
        "--lt-cold-points", metavar="W/D,...", default=None,
        help="cold (cache-missing) points interleaved into the client "
             "stream; shard mode defaults to a built-in cold set",
    )
    loadtest_group.add_argument(
        "--lt-cold-every", type=int, default=0, metavar="N",
        help="make every Nth request per client a cold point "
             "(default: 0, hot-only; shard mode defaults to 8)",
    )
    loadtest_group.add_argument(
        "--lt-batch-window", type=float, default=None, metavar="SECONDS",
        help="batch window for self-spawned services/replicas "
             "(default: 0.002 plain, 0.04 shard)",
    )
    loadtest_group.add_argument(
        "--lt-max-batch", type=int, default=None, metavar="N",
        help="max points per wave for self-spawned services/replicas "
             "(default: 64 plain, 4 shard)",
    )
    dash_group = parser.add_argument_group(
        "dashboard options (only with the 'dashboard' experiment)")
    dash_group.add_argument(
        "--dash-out", metavar="PATH", default="dashboard.html",
        help="HTML file to write (default: dashboard.html)",
    )
    dash_group.add_argument(
        "--dash-workload", metavar="NAME", default="bfs",
        help="workload driven through every dashboard design "
             "(default: bfs)",
    )
    dash_group.add_argument(
        "--dash-service-metrics", metavar="PATH", default=None,
        help="a service /metrics JSON snapshot to render the cache-tier "
             "provenance panel from (optional)",
    )
    dash_group.add_argument(
        "--dash-epoch-cycles", type=float, default=1024.0, metavar="N",
        help="timeline epoch width in simulated cycles (default: 1024)",
    )
    trace_group = parser.add_argument_group(
        "trace options (only with the 'trace show' command)")
    trace_group.add_argument(
        "--trace-in", metavar="PATH", default=None,
        help="the JSON-lines trace file to render (from --trace-out)",
    )
    trace_group.add_argument(
        "--trace-id", metavar="ID", default=None,
        help="render only this trace id (default: every trace in the file)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list and args.experiment not in ("designs", "workloads"):
        print(_experiment_listing())
        return 0
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print("repro-experiment: error: no experiment given "
              "(use --list to see the choices)", file=sys.stderr)
        return 2
    if args.action is not None and args.experiment not in ("trace", "sweep"):
        print(f"repro-experiment: error: {args.experiment!r} takes no "
              f"subaction (got {args.action!r})", file=sys.stderr)
        return 2
    if args.experiment in ("designs", "workloads"):
        listing = (_print_designs if args.experiment == "designs"
                   else _print_workloads)
        try:
            return listing(args.list)
        except BrokenPipeError:
            # Piping into `head` is normal; a closed pipe is not an error.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    if args.cache_dir is not None:
        # Fail before any simulation, not after hours of compute.
        problem = _preflight_cache_dir(args.cache_dir)
        if problem:
            print(f"repro-experiment: error: {problem}", file=sys.stderr)
            return 2
    trace_cache = args.trace_cache
    if trace_cache is None and args.cache_dir is not None:
        trace_cache = str(Path(args.cache_dir) / "traces")
    if trace_cache is not None:
        # Safe to enable globally: chaos loads via load_fresh, which
        # never consults the store.
        from repro.workloads import registry

        registry.set_trace_cache(trace_cache)
    if args.experiment == "trace":
        from repro.obs.trace_view import load_events, render_traces

        if args.action != "show":
            print("repro-experiment: error: the trace command needs the "
                  "'show' subaction (repro-experiment trace show "
                  "--trace-in PATH)", file=sys.stderr)
            return 2
        if args.trace_in is None:
            print("repro-experiment: error: trace show requires "
                  "--trace-in PATH", file=sys.stderr)
            return 2
        try:
            events = load_events(args.trace_in)
        except (OSError, ValueError) as exc:
            print(f"repro-experiment: error: cannot load --trace-in "
                  f"{args.trace_in!r}: {exc}", file=sys.stderr)
            return 2
        try:
            print(render_traces(events, args.trace_id))
        except ValueError as exc:  # --trace-id not present in the file
            print(f"repro-experiment: error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # Piping into `head` is normal for large traces; a closed
            # pipe is not an error.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if args.experiment == "loadtest":
        from repro.experiments import loadtest

        try:
            levels = tuple(
                int(n) for n in args.lt_clients.split(",") if n.strip())
        except ValueError:
            print(f"repro-experiment: error: --lt-clients "
                  f"{args.lt_clients!r} is not a comma-separated list of "
                  f"integers", file=sys.stderr)
            return 2
        if not levels or any(n < 1 for n in levels):
            print("repro-experiment: error: --lt-clients needs at least "
                  "one positive level", file=sys.stderr)
            return 2
        if args.lt_requests < 1:
            print("repro-experiment: error: --lt-requests must be >= 1",
                  file=sys.stderr)
            return 2
        def _parse_points(text, flag):
            parsed = []
            for chunk in text.split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                workload, sep, design = chunk.partition("/")
                if not sep or not workload or not design:
                    print(f"repro-experiment: error: {flag} entry "
                          f"{chunk!r} is not WORKLOAD/DESIGN",
                          file=sys.stderr)
                    return None
                parsed.append((workload, design))
            return parsed

        points = _parse_points(args.lt_points, "--lt-points")
        if points is None:
            return 2
        if not points:
            print("repro-experiment: error: --lt-points needs at least "
                  "one WORKLOAD/DESIGN point", file=sys.stderr)
            return 2
        cold_points = []
        if args.lt_cold_points is not None:
            cold_points = _parse_points(args.lt_cold_points,
                                        "--lt-cold-points")
            if cold_points is None:
                return 2
        if args.lt_cold_every < 0:
            print("repro-experiment: error: --lt-cold-every must be >= 0",
                  file=sys.stderr)
            return 2
        replica_counts = None
        if args.lt_replicas is not None:
            try:
                replica_counts = tuple(
                    int(n) for n in args.lt_replicas.split(",") if n.strip())
            except ValueError:
                print(f"repro-experiment: error: --lt-replicas "
                      f"{args.lt_replicas!r} is not a comma-separated list "
                      f"of integers", file=sys.stderr)
                return 2
            if not replica_counts or any(n < 1 for n in replica_counts):
                print("repro-experiment: error: --lt-replicas needs at "
                      "least one positive replica count", file=sys.stderr)
                return 2
        return loadtest.main(
            target=args.lt_target, levels=levels,
            requests_per_client=args.lt_requests, points=points,
            scale=args.scale, jobs=args.jobs, out=args.lt_out,
            replica_counts=replica_counts, cold_points=cold_points,
            cold_every=args.lt_cold_every,
            batch_window=args.lt_batch_window, max_batch=args.lt_max_batch,
        )
    if args.experiment == "dashboard":
        from repro.experiments import dashboard

        if args.dash_epoch_cycles <= 0:
            print("repro-experiment: error: --dash-epoch-cycles must be "
                  "positive", file=sys.stderr)
            return 2
        try:
            return dashboard.main(
                workload=args.dash_workload, scale=args.scale,
                out=args.dash_out,
                service_metrics=args.dash_service_metrics,
                epoch_cycles=args.dash_epoch_cycles,
            )
        except KeyError as exc:
            print(f"repro-experiment: error: {exc.args[0]}",
                  file=sys.stderr)
            return 2
    if args.experiment == "serve":
        from repro.service.server import run_server

        if args.jobs < 1:
            print("repro-experiment: error: --jobs must be >= 1",
                  file=sys.stderr)
            return 2
        if not 0 <= args.port <= 65535:
            print("repro-experiment: error: --port must be in 0..65535",
                  file=sys.stderr)
            return 2
        if args.batch_window < 0:
            print("repro-experiment: error: --batch-window must be >= 0",
                  file=sys.stderr)
            return 2
        if args.max_batch < 1:
            print("repro-experiment: error: --max-batch must be >= 1",
                  file=sys.stderr)
            return 2
        if args.replicas < 0:
            print("repro-experiment: error: --replicas must be >= 0",
                  file=sys.stderr)
            return 2
        if args.health_interval <= 0:
            print("repro-experiment: error: --health-interval must be "
                  "positive", file=sys.stderr)
            return 2
        if args.max_inflight is not None and args.max_inflight < 1:
            print("repro-experiment: error: --max-inflight must be >= 1",
                  file=sys.stderr)
            return 2
        if args.replicas > 0 or args.replica_urls is not None:
            from repro.service.gateway import run_gateway

            if args.jobs_journal is not None:
                print("repro-experiment: error: --jobs-journal applies to "
                      "a plain serve, not --replicas (each replica would "
                      "need its own journal)", file=sys.stderr)
                return 2
            replica_urls = None
            if args.replica_urls is not None:
                replica_urls = [u.strip()
                                for u in args.replica_urls.split(",")
                                if u.strip()]
                if not replica_urls:
                    print("repro-experiment: error: --replica-urls needs "
                          "at least one HOST:PORT", file=sys.stderr)
                    return 2
            try:
                return run_gateway(
                    host=args.host, port=args.port,
                    replicas=args.replicas or 2,
                    replica_urls=replica_urls,
                    jobs=args.jobs, scale=args.scale,
                    cache_dir=args.cache_dir,
                    check_invariants=args.check_invariants,
                    batch_window=args.batch_window,
                    max_batch=args.max_batch,
                    health_interval=args.health_interval,
                    max_inflight=args.max_inflight,
                    supervise=not args.no_supervise,
                    trace_out=args.trace_out,
                    metrics_out=args.metrics_out,
                )
            except (ValueError, RuntimeError) as exc:
                print(f"repro-experiment: error: {exc}", file=sys.stderr)
                return 2
        return run_server(
            host=args.host, port=args.port, jobs=args.jobs,
            scale=args.scale, cache_dir=args.cache_dir,
            checkpoint=args.checkpoint,
            check_invariants=args.check_invariants,
            point_timeout=args.point_timeout,
            point_retries=args.point_retries,
            batch_window=args.batch_window, max_batch=args.max_batch,
            max_inflight=args.max_inflight,
            jobs_journal=args.jobs_journal,
            trace_out=args.trace_out, metrics_out=args.metrics_out,
        )
    if args.experiment == "chaos":
        if args.net:
            from repro.experiments import netchaos

            if args.net_replicas < 1:
                print("repro-experiment: error: --net-replicas must be >= 1",
                      file=sys.stderr)
                return 2
            if args.net_requests < 1:
                print("repro-experiment: error: --net-requests must be >= 1",
                      file=sys.stderr)
                return 2
            return netchaos.main(
                rates_text=args.net_rates, seed=args.chaos_seed,
                replicas=args.net_replicas, requests=args.net_requests,
                scale=args.scale, out=args.net_out,
            )
        from repro.experiments import chaos

        try:
            rates = tuple(
                float(r) for r in args.fault_rates.split(",") if r.strip())
        except ValueError:
            print(f"repro-experiment: error: --fault-rates "
                  f"{args.fault_rates!r} is not a comma-separated list of "
                  f"numbers", file=sys.stderr)
            return 2
        if not rates or any(r < 0 for r in rates):
            print("repro-experiment: error: --fault-rates needs at least "
                  "one nonnegative rate", file=sys.stderr)
            return 2
        workloads = tuple(
            w.strip() for w in args.chaos_workloads.split(",") if w.strip())
        try:
            return chaos.main(
                workloads=workloads, rates=rates, seed=args.chaos_seed,
                scale=args.scale, trace_out=args.trace_out,
                metrics_out=args.metrics_out,
            )
        except KeyError as exc:
            print(f"repro-experiment: error: {exc.args[0]}", file=sys.stderr)
            return 2
    if (args.experiment not in EXPERIMENTS
            and args.experiment not in ("all", "sweep")):
        print(f"repro-experiment: error: unknown experiment "
              f"{args.experiment!r}; valid choices are:", file=sys.stderr)
        print(_experiment_listing(), file=sys.stderr)
        return 2

    if args.jobs < 1:
        print("repro-experiment: error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.point_retries < 0:
        print("repro-experiment: error: --point-retries must be >= 0",
              file=sys.stderr)
        return 2
    if args.point_timeout is not None and args.point_timeout <= 0:
        print("repro-experiment: error: --point-timeout must be positive",
              file=sys.stderr)
        return 2
    if args.scale is not None:
        GLOBAL_CACHE.scale = args.scale
    GLOBAL_CACHE.jobs = args.jobs
    if args.cache_dir is not None:
        GLOBAL_CACHE.cache_dir = args.cache_dir
    GLOBAL_CACHE.check_invariants = args.check_invariants
    GLOBAL_CACHE.checkpoint = args.checkpoint
    GLOBAL_CACHE.point_timeout = args.point_timeout
    GLOBAL_CACHE.point_retries = args.point_retries
    if args.metrics_out is not None:
        # Fail before the run, not after: the manifest is written last.
        parent = Path(args.metrics_out).resolve().parent
        if not parent.is_dir():
            print(f"repro-experiment: error: --metrics-out directory "
                  f"{str(parent)!r} does not exist", file=sys.stderr)
            return 2
    try:
        obs = _build_observability(args)
    except OSError as exc:
        print(f"repro-experiment: error: cannot open --trace-out "
              f"{args.trace_out!r}: {exc}", file=sys.stderr)
        return 2
    if obs is not None:
        GLOBAL_CACHE.obs = obs
    profiler = None
    if args.profile:
        from repro.obs import RecordingTracer

        profiler = GLOBAL_CACHE.profiler = RecordingTracer()

    wall_start = time.time()
    chosen = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    exit_code = 0
    if args.experiment == "sweep":
        start = time.time()
        with GLOBAL_CACHE._span("experiment:sweep"):
            exit_code = _run_sweep(args, obs)
        if exit_code == 0:
            print(f"[sweep completed in {time.time() - start:.1f}s]\n")
    else:
        for name in chosen:
            start = time.time()
            with GLOBAL_CACHE._span(f"experiment:{name}"):
                rendered = EXPERIMENTS[name]()
            print(rendered)
            print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")

    if args.svg is not None and args.experiment != "sweep":
        from repro.experiments.figures_svg import save_all

        for path in save_all(args.svg, GLOBAL_CACHE):
            print(f"wrote {path}")

    if obs is not None:
        obs.close()  # flush the JSON-lines trace before reporting
        if args.metrics_out:
            from repro.obs.manifest import build_manifest, write_manifest

            manifest = build_manifest(
                config=GLOBAL_CACHE.config,
                metrics=obs.metrics,
                extra={
                    "experiments": chosen,
                    "scale": GLOBAL_CACHE.effective_scale(),
                    "trace_out": args.trace_out,
                    "wall_clock_seconds": time.time() - wall_start,
                },
            )
            path = write_manifest(args.metrics_out, manifest)
            print(f"wrote {path}")
        if args.trace_out:
            print(f"wrote {args.trace_out} "
                  f"({obs.tracer.events_emitted} events)")
    if profiler is not None:
        from repro.obs.trace_view import render_traces

        print("profile (wall-clock):")
        print(render_traces(profiler.events), end="")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
