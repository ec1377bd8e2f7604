"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_warm --seed 1 --seconds 20 --trace 0

Workloads: ``sweep_warm``, ``sweep_cold``, ``service_mixed`` (see
``BENCHMARK.json``).  ``--trace 0`` measures the end-to-end metrics
untraced; ``--trace 1`` is the traced run that reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--size tiny`` shrinks every workload for the
benchmark's own tests.

The program is built from the checkout's ``src`` tree; without it the
run exits with status 2 and prints no result.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_warm", "sweep_cold", "service_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Keep every file the run and its children write inside the checkout.
    work = ROOT / ".perfbench-work"
    run_dir = work / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    for name in ("REPRO_TRACE_CACHE", "REPRO_SCALE"):
        os.environ.pop(name, None)
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``spawn`` pools start, if any.

    It would exit on its own once this process ends; stopping it here
    means the run ends with no process of its own left running.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(args, run_dir: Path) -> int:
    from perfbench import common, service, sweeps

    imports = time.perf_counter() - _STARTED
    trace = bool(args.trace)
    tiny = args.size == "tiny"
    if args.workload == "service_mixed":
        bench = service.ServiceBench(
            args.seed, args.seconds, trace, run_dir,
            shape=service.TINY_SHAPE if tiny else service.SHAPE)
        not_exercised = ("workloads.", "gpu.", "system.build_s",
                         "system.simulate_s", "system.ns_per_req.",
                         "simulate.", "experiments.", "accuracy.")
    else:
        shapes = sweeps.TINY_SHAPES if tiny else sweeps.SHAPES
        bench = sweeps.SweepBench(args.workload, args.seed, args.seconds,
                                  trace, run_dir, shapes[args.workload])
        not_exercised = ("gateway.", "service.", "loadgen.")
    correct, attempted, failed, metrics = bench.run()
    metrics["setup_s"] = imports + metrics.pop("setup_time")
    for line in bench.report:
        print(line)
    print(f"setup_s = imports {imports:.3f}s + median set-up; "
          f"{failed} of {attempted} operations failed or were wrong")
    if trace:
        # The traced run prints only per-layer metrics; layers this
        # workload does not run report 0 (see README.md).
        for name in common.declared_units(trace=False):
            metrics.pop(name, None)
        for name in common.declared_units(trace=True):
            if name not in metrics and name.startswith(not_exercised):
                metrics[name] = 0.0
    else:
        # The untraced run prints only end-to-end metrics.
        for name in common.declared_units(trace=True):
            metrics.pop(name, None)
    print(common.result_line(correct, attempted, failed, metrics, trace),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
