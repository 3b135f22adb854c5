"""End-to-end simulator benchmark.

Four workloads (``wordcount``, ``sort_grid``, ``tenants``,
``traced_wordcount``), each run in its own child process: imports are
timed, one traced warm-up run feeds the per-layer ledger, then untraced
runs are timed back to back.  Run ``python -m benchmarks.e2e --help``;
README.md in this directory explains every metric.
"""
