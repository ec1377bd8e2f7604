"""The repository benchmark: warm sweep, cold sweep and mixed service traffic.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints its metrics as the last line of standard
output.  ``BENCHMARK.json`` at the repository root declares the
workloads and every metric with its unit; ``perfbench/README.md`` says
which workload reports which metric and what each should move.
"""
