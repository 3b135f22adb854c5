"""Measure one workload in this (fresh) process and print one JSON result.

Run by the harness as ``python -m benchmarks.e2e.child --workload NAME
--seed N --seconds S`` with ``src`` on ``PYTHONPATH``.  Within ``S``
seconds, in order:

1. one traced warm-up run: stack sampler + count-only wrappers on;
2. untraced runs in a closed loop until ``S`` seconds have passed and at
   least the workload's ``min_runs`` have run;
3. between those runs, ``IMPORT_PROBES`` fresh interpreters, spread
   evenly over the ``S`` seconds, each timing its import of the simulator.

Every run and every import is bracketed by the reference loop of
:mod:`benchmarks.e2e.reference` and its host time converted to reference
seconds.

Scratch files (the streamed trace stores) go to a fresh directory under
the checkout, removed after each run.

A run fails if it raises, if a workload check fails, or if its export
digest differs from the first run's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from benchmarks.e2e import ledger
from benchmarks.e2e.reference import REFERENCE_LOOP_S, time_reference

ROOT = Path(__file__).resolve().parents[2]
IMPORT_PROBES = 5
#: Prints the import's host seconds and the mean reference loop around it.
_PROBE = (
    "import time; from benchmarks.e2e.reference import time_reference; "
    "before = time_reference(); t0 = time.perf_counter(); "
    "import repro, benchmarks.e2e.workloads; t = time.perf_counter() - t0; "
    "print(t, (before + time_reference()) / 2)"
)


def reference_seconds(host_s: float, loop_s: float) -> float:
    """Host seconds measured while the reference loop took ``loop_s``,
    converted to reference seconds."""
    return host_s * REFERENCE_LOOP_S / loop_s


def export_digest(export: object, files: list[Path]) -> str:
    h = hashlib.sha256(json.dumps(export, sort_keys=True, default=str).encode())
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()


def _one_run(workload, seed: int, *instruments) -> dict:
    """Build and run once, with ``instruments`` (context managers) active
    exactly while the clock runs.

    Returns timings, digest and what the ledger needs, but not the
    simulation itself: holding it while the next run builds its own
    would count two simulations in ``peak_rss_mb``.
    """
    gc.collect()
    scratch = Path(tempfile.mkdtemp(prefix=".e2e-scratch-", dir=ROOT))
    try:
        with contextlib.ExitStack() as stack:
            for instrument in instruments:
                stack.enter_context(instrument)
            t0 = time.perf_counter()
            go = workload.build(seed, scratch)
            t1 = time.perf_counter()
            out = go()
            t2 = time.perf_counter()
        return {
            "construct_s": t1 - t0,
            "wall_s": t2 - t0,
            "digest": export_digest(out.export, out.files),
            "problems": out.problems,
            "fidelity_err_pts": out.fidelity_err_pts,
            "trace_mb": sum(p.stat().st_size for p in out.files) / 1e6 if out.files else None,
            "sim_elapsed": out.sim_elapsed,
            "counts": {**ledger.public_counts(out.clusters), "obs.store_events": out.store_events},
        }
    finally:
        shutil.rmtree(scratch)


def judge(run: dict, first_digest: str) -> list[str]:
    """Why a completed run counts as failed (empty when it passed)."""
    reasons = list(run["problems"])
    if run["digest"] != first_digest:
        reasons.append(f"export digest {run['digest'][:12]} != first run's {first_digest[:12]}")
    return reasons


def per_layer_metrics(
    sampler: ledger.Sampler, calls: ledger.CallCounter, traced: dict, untraced_median: float
) -> dict[str, float]:
    metrics: dict[str, float] = {}
    self_s = sampler.self_seconds(traced["wall_s"])
    for layer in ledger.LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / traced["wall_s"]
    metrics.update(traced["counts"])
    metrics.update(calls.calls)
    solves = metrics.get("simnet.maxmin.solves")
    skips = metrics.get("simnet.maxmin.skips")
    if solves is not None and skips is not None:
        metrics["simnet.maxmin.solve_useful"] = solves / (solves + skips) if solves + skips else 0.0
    beats = calls.calls.get("hadoop.jobtracker.heartbeats")
    if beats is not None:
        useful = calls.useful["hadoop.jobtracker.heartbeats"]
        metrics["hadoop.jobtracker.heartbeat_useful"] = useful / beats if beats else 0.0
    events = metrics.get("simnet.kernel.events_dispatched")
    if events:
        metrics["simnet.kernel.us_per_event"] = untraced_median / events * 1e6
    metrics["sim.elapsed_s"] = traced["sim_elapsed"]
    metrics["trace.overhead"] = traced["wall_s"] / untraced_median
    metrics["trace.samples"] = sampler.samples
    return metrics


def import_probe() -> float:
    """Reference seconds one fresh interpreter takes to import the
    simulator.  One import is a fraction of a second, so a single reading
    is at the mercy of whatever else the host is doing at that moment;
    :func:`measure` spreads the probes over the whole measurement."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], stdout=subprocess.PIPE, text=True, check=True
    ).stdout.split()
    return reference_seconds(float(out[0]), float(out[1]))


def measure(workload, seed: int, seconds: float, repro_dir: str) -> dict:
    """Traced warm-up, then timed runs with the import probes between
    them, all within ``seconds`` unless the workload's ``min_runs`` take
    longer; returns the raw result record.  Times are reference seconds,
    except ``host_wall_s`` and ``loop_s`` (the reference loops)."""
    start = time.perf_counter()
    failures: list[str] = []
    construct: list[float] = []
    walls: list[float] = []
    host_walls: list[float] = []
    loops: list[float] = []
    import_s: list[float] = []
    attempted = failed = 0
    first_digest = None
    loop_before = None

    def attempt(label: str, runner):
        """One run between two reference loops, its times converted to
        reference seconds; None when it raised or failed a check."""
        nonlocal attempted, failed, first_digest, loop_before
        attempted += 1
        if loop_before is None:
            loop_before = time_reference()
            loops.append(loop_before)
        try:
            run = runner()
        except Exception:
            reasons = ["raised\n" + traceback.format_exc()]
            run = None
        loop_after = time_reference()
        loops.append(loop_after)
        loop_s = (loop_before + loop_after) / 2
        loop_before = loop_after
        if run is not None:
            run["host_wall_s"] = run["wall_s"]
            run["wall_s"] = reference_seconds(run["wall_s"], loop_s)
            run["construct_s"] = reference_seconds(run["construct_s"], loop_s)
            first_digest = first_digest or run["digest"]
            construct.append(run["construct_s"])
            reasons = judge(run, first_digest)
        if reasons:
            failed += 1
            failures.extend(f"{label}: {r}" for r in reasons)
        return run if not reasons else None

    def probe_due() -> bool:
        """Probe k is due once k / IMPORT_PROBES of ``seconds`` have passed."""
        elapsed = time.perf_counter() - start
        return len(import_s) < IMPORT_PROBES and len(import_s) * seconds <= elapsed * IMPORT_PROBES

    sampler = ledger.Sampler(repro_dir)
    calls = ledger.CallCounter()

    traced = last = attempt("traced run", lambda: _one_run(workload, seed, calls, sampler))
    while traced and (len(walls) < workload.min_runs or time.perf_counter() - start < seconds):
        run = attempt(f"run {len(walls) + 1}", lambda: _one_run(workload, seed))
        if run is None:
            break
        walls.append(run["wall_s"])
        host_walls.append(run["host_wall_s"])
        last = run
        if probe_due():
            import_s.append(import_probe())
            loop_before = None
    while len(import_s) < IMPORT_PROBES:
        import_s.append(import_probe())

    result = {
        "workload": workload.name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": first_digest,
        "construct_s": construct,
        "import_s": import_s,
        "wall_s": walls,
        "host_wall_s": host_walls,
        "loop_s": loops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if last is not None:
        result["fidelity_err_pts"] = last["fidelity_err_pts"]
        result["trace_mb"] = last["trace_mb"]
    if traced and walls:
        result["traced_wall_s"] = traced["wall_s"]
        result["per_layer"] = per_layer_metrics(sampler, calls, traced, statistics.median(walls))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    import repro
    from benchmarks.e2e import workloads

    repro_dir = str(Path(repro.__file__).resolve().parent)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, repro_dir)
    result["warnings"] = [str(w.message) for w in caught]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
