"""Run the workloads one child process at a time and report every metric.

``python -m benchmarks.e2e [--workloads a,b] [--seed N] [--seconds S]
[--trace 0|1] [--out FILE]`` prints, per workload, every end-to-end and
per-layer metric with its unit, the workload checks, the model digest
status and the ledger checks.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``)
as declared in BENCHMARK.json; with several workloads each name is
prefixed by ``<workload>.``.  The exit code is non-zero when any run
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.reference import REFERENCE_LOOP_S

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
#: A child that runs longer than this is killed and its workload failed.
CHILD_TIMEOUT_S = 170

#: Absolute slack added to a relative bound: set-up time is a fraction
#: of a second, where scheduler noise alone can exceed the share.
ABS_FLOOR = {"setup_s": 0.03}

#: Metrics reported beside the BENCHMARK.json ones, which are not
#: defined on every workload: (name, unit, better, bound, absolute floor).
EXTRA_METRICS = (
    ("failed_frac", "ratio", "lower", 0.0, 0.0),
    ("fidelity_err_pts", "pt", "lower", 0.0, 0.1),
    ("trace_mb", "MB", "lower", 0.01, 0.0),
)

#: ``obs.share`` must stay below this where observation is off.
OBS_OFF_SHARE = 0.01
MAX_TRACE_OVERHEAD = 1.10
NO_OBS_WORKLOADS = ("wordcount", "sort_grid", "tenants")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_table(spec: dict) -> dict[str, dict]:
    """name -> {unit, better, bound, floor} for every gated metric."""
    table = {
        m["name"]: {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "floor": ABS_FLOOR.get(m["name"], 0.0),
        }
        for m in spec["end_to_end"]
    }
    for name, unit, better, bound, floor in EXTRA_METRICS:
        table[name] = {"unit": unit, "better": better, "bound": bound, "floor": floor}
    return table


def allowed_worsening(base: float, bound: float, floor: float) -> float:
    """How far a metric may move the wrong way from ``base``: the
    relative bound or the absolute floor, whichever is larger."""
    return max(bound * abs(base), floor)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _summary(values: list[float], unit: str, offset: float = 0.0) -> dict:
    """``value`` is the median; ``min`` is informational only."""
    q1, med, q3 = quartiles(values)
    return {
        "value": med + offset,
        "median": med + offset,
        "q1": q1 + offset,
        "q3": q3 + offset,
        "min": min(values) + offset,
        "n": len(values),
        "unit": unit,
        "values": [v + offset for v in values],
    }


def summarize(res: dict) -> dict:
    """Turn a child's raw record into metric summaries."""
    metrics: dict[str, dict] = {}
    if res.get("wall_s"):
        metrics["wall_s"] = _summary(res["wall_s"], "s")
    if res.get("construct_s") and res.get("import_s"):
        # One sample per timed import (one per interpreter) plus the
        # median construction: the import is most of set-up and of its
        # spread.
        metrics["setup_s"] = _summary(
            res["import_s"], "s", offset=statistics.median(res["construct_s"])
        )
    if "peak_rss_mb" in res:
        metrics["peak_rss_mb"] = _summary([res["peak_rss_mb"]], "MB")
    metrics["failed_frac"] = _summary([res["failed"] / res["attempted"]], "ratio")
    if res.get("fidelity_err_pts") is not None:
        metrics["fidelity_err_pts"] = _summary([res["fidelity_err_pts"]], "pt")
    if res.get("trace_mb") is not None:
        metrics["trace_mb"] = _summary([res["trace_mb"]], "MB")
    return {
        "workload": res["workload"],
        "seed": res["seed"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res.get("failures", []),
        "warnings": res.get("warnings", []),
        "digest": res.get("digest"),
        "host_wall_s": statistics.median(res["host_wall_s"]) if res.get("host_wall_s") else None,
        "loop_s": statistics.median(res["loop_s"]) if res.get("loop_s") else None,
        "traced_wall_s": res.get("traced_wall_s"),
        "metrics": metrics,
        "per_layer": res.get("per_layer", {}),
    }


def run_child(workload: str, seed: int, seconds: float) -> dict:
    """Measure one workload in a fresh interpreter; a crash or timeout
    becomes a record with one failed attempt and no metrics."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # No helper threads in numeric libraries: the child's main thread is
    # the only one generating load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    crashed = {"workload": workload, "seed": seed, "attempted": 1, "failed": 1}
    # The child starts import probes of its own; its own session lets a
    # timeout or an interrupt stop all of them together.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**crashed, "failures": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**crashed, "failures": [f"child exited {proc.returncode}"]}
    return json.loads(lines[-1])


def digest_status(workload: str, seed: int, digest: str | None) -> str:
    pinned = json.loads(DIGESTS_PATH.read_text())
    if seed != pinned["seed"]:
        return f"model digest not pinned for seed {seed} (digests.json holds seed {pinned['seed']})"
    if workload not in pinned["digests"]:
        return f"model digest not pinned for {workload} in digests.json"
    if digest == pinned["digests"][workload]:
        return "model unchanged"
    return "model CHANGED vs digests.json"


def ledger_checks(summary: dict) -> list[tuple[str, bool]]:
    layer = summary["per_layer"]
    if not layer:
        return []
    shares = sum(v for k, v in layer.items() if k.endswith(".share"))
    checks = [
        (f"sampled shares sum to {shares:.4f} (1 ± 0.01)", abs(shares - 1) <= 0.01),
        (
            f"trace.overhead {layer['trace.overhead']:.3f} <= {MAX_TRACE_OVERHEAD}",
            layer["trace.overhead"] <= MAX_TRACE_OVERHEAD,
        ),
    ]
    if summary["workload"] in NO_OBS_WORKLOADS:
        checks.append(
            (
                f"obs.share {layer['obs.share']:.4f} < {OBS_OFF_SHARE} with observation off",
                layer["obs.share"] < OBS_OFF_SHARE,
            )
        )
    return checks


def format_summary(summary: dict, spec: dict) -> str:
    table = metric_table(spec)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    name = summary["workload"]
    lines = [f"== {name} (seed {summary['seed']}) =="]
    for metric, s in summary["metrics"].items():
        spread = (
            f"  median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
            f"  min {s['min']:.6g}  n={s['n']}"
            if s["n"] > 1
            else ""
        )
        lines.append(f"  {metric:<18} {s['value']:.6g} {table[metric]['unit']}{spread}")
    if "fidelity_err_pts" not in summary["metrics"] and summary["attempted"] > summary["failed"]:
        lines.append("  fidelity_err_pts   unvalidated: no paper reference for this workload")
    if summary["host_wall_s"] is not None:
        lines.append(
            f"  host seconds: run median {summary['host_wall_s']:.6g} s, reference loop median "
            f"{summary['loop_s']:.6g} s; times above are host times x {REFERENCE_LOOP_S:g} s / loop"
        )
    lines.append(f"  runs: {summary['attempted']} attempted, {summary['failed']} failed")
    lines.extend(f"  FAILED {f}" for f in summary["failures"])
    lines.extend(f"  warning: {w}" for w in summary["warnings"])
    if summary["digest"]:
        lines.append(
            f"  export sha256 {summary['digest']}: "
            + digest_status(name, summary["seed"], summary["digest"])
        )
    if summary["per_layer"]:
        lines.append(
            f"  per-layer (traced run, {summary['traced_wall_s']:.4f} s wall):"
        )
        for metric, value in summary["per_layer"].items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            lines.append(f"    {metric:<40} {shown} {units.get(metric, '')}")
        for text, ok in ledger_checks(summary):
            lines.append(f"  ledger check {'ok  ' if ok else 'WARN'} {text}")
    return "\n".join(lines)


def result_line(summaries: list[dict], spec: dict, trace: bool) -> dict:
    """The final JSON object: declared metrics only, value and unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        values = s["per_layer"] if trace else {k: v["value"] for k, v in s["metrics"].items()}
        for m in declared:
            if m["name"] in values:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    # argparse accepts the unambiguous prefix ``--workload`` for this flag.
    parser.add_argument(
        "--workloads", default=",".join(names),
        help=f"comma-separated subset of {', '.join(names)}",
    )
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="time spent on timed runs per workload (at least its minimum run count)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full result JSON here")
    args = parser.parse_args(argv)
    chosen = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(chosen) - set(names))
    if not chosen:
        parser.error("no workload given")
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; have {', '.join(names)}")

    summaries = []
    for name in chosen:
        summary = summarize(run_child(name, args.seed, args.seconds))
        summaries.append(summary)
        print(format_summary(summary, spec), flush=True)
    line = result_line(summaries, spec, bool(args.trace))
    if args.out:
        args.out.write_text(
            json.dumps(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
                    "correct": line["correct"],
                    "workloads": {s["workload"]: s for s in summaries},
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
    print(json.dumps(line))
    return 0 if line["correct"] else 1
