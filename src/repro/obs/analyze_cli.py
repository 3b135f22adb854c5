"""``python -m repro analyze <trace>`` — critical-path analysis of a trace.

Takes a Perfetto trace written by ``python -m repro trace`` (or any
:func:`repro.obs.perfetto.write_trace` output, read back by
:func:`repro.obs.perfetto.load_observers`), **or a streamed ``.jsonl``
trace store** (reconstructed exactly via
:func:`repro.obs.store.load_tracer`).  Either way every simulated system
becomes one :class:`~repro.obs.tracer.SpanTracer`; the report rebuilds
each one's span DAG and gives:

* causal critical-path blame per stage (map/copy/sort/reduce/idle),
  guaranteed to sum to 100% of the makespan;
* the Table-I-style counter breakdown measured from the same spans;
* the top bottleneck spans (critical-path seconds + slack);
* a Coz-style what-if table: predicted makespan if one stage were
  10/25/50% faster.

``--validate`` closes the loop on the top what-if: it re-runs the
simulator with the matching knob actually turned (the run parameters
come from the trace's ``.manifest.json`` sidecar) and prints predicted
vs measured.  Only the ``fig6`` Hadoop run is re-runnable this way.

``--tenants`` switches to the multi-tenant capacity analysis: the
trace, in either format, must come from a
:class:`~repro.cluster.engine.MultiTenantEngine` run, and the report
becomes per-tenant blame (queue-wait / preemption / shuffle / runtime)
over every tenant's jobs (see :mod:`repro.obs.tenant_analysis`).
Capacity what-if projections with validated re-runs live in
``python -m repro capacity``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs.analysis import TraceDAG, analyze_dag, format_analysis
from repro.obs.perfetto import load_observers
from repro.obs.store import load_tracer, read_footer
from repro.obs.tenant_analysis import analyze_tenants, format_tenant_analysis
from repro.obs.tracer import SpanTracer
from repro.util.units import parse_size


def _tracers(path: Path) -> dict[str, SpanTracer]:
    """``{system: tracer}`` of a ``.jsonl`` store or a Perfetto trace.

    A store holds one system, named by its footer; a Perfetto trace
    holds one per process.
    """
    if path.suffix == ".jsonl":
        footer = read_footer(path) or {}
        return {footer.get("system", "sim"): load_tracer(path)}
    return {name: obs.tracer for name, obs in load_observers(path)}


def _write_json(path: Path | None, payload: dict) -> None:
    if path is None:
        return
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _load_manifest(trace_path: Path) -> dict:
    sidecar = Path(f"{trace_path}.manifest.json")
    if not sidecar.exists():
        raise FileNotFoundError(
            f"--validate needs the run manifest, but {sidecar} does not exist "
            "(re-run `python -m repro trace` to produce both files)"
        )
    with sidecar.open() as fh:
        return json.load(fh)


def _validate(trace_path: Path, dags: dict, pct: float) -> int:
    """Re-run the simulator with the top what-if knob turned."""
    from repro.experiments.critical_path import validate_top_what_if
    from repro.obs.analysis import critical_path

    manifest = _load_manifest(trace_path)
    config = manifest.get("config", {})
    experiment = manifest.get("experiment")
    if experiment != "fig6" or "hadoop" not in dags:
        print(
            f"--validate: only fig6 Hadoop traces are re-runnable "
            f"(this is {experiment!r}); skipping"
        )
        return 0
    nbytes = parse_size(str(config.get("size", "1GB")))
    seed = int(config.get("seed", 2011))
    cp = critical_path(dags["hadoop"])
    v = validate_top_what_if(cp, nbytes, seed, pct=pct)
    print()
    print(
        f"what-if validation (hadoop, {v.stage} -{v.pct:.0%}): "
        f"predicted {v.predicted:.2f} s, re-ran with the knob turned: "
        f"{v.actual:.2f} s  (error {v.error:.1%})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze", description=__doc__
    )
    parser.add_argument(
        "trace", type=Path,
        help="Perfetto trace_event JSON or streamed .jsonl trace store",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="bottleneck spans to list"
    )
    parser.add_argument(
        "--pcts",
        type=str,
        default="10,25,50",
        help="what-if virtual speedups, percent (default 10,25,50)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="also write the full report as JSON"
    )
    parser.add_argument(
        "--system",
        type=str,
        default=None,
        help="analyze only this process (default: every process in the trace)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="re-run the simulator with the top what-if knob turned (fig6 only)",
    )
    parser.add_argument(
        "--validate-pct",
        type=float,
        default=0.25,
        help="virtual speedup to validate (default 0.25)",
    )
    parser.add_argument(
        "--tenants",
        action="store_true",
        help="per-tenant capacity analysis (trace of a multi-tenant run)",
    )
    args = parser.parse_args(argv)

    tracers = _tracers(args.trace)
    if args.system is not None:
        if args.system not in tracers:
            parser.error(
                f"no process {args.system!r} in trace "
                f"(have: {', '.join(sorted(tracers))})"
            )
        tracers = {args.system: tracers[args.system]}

    if args.tenants:
        runs = [
            tracer for tracer in tracers.values()
            if any(span.category.startswith("tenant.") for span in tracer.spans)
        ]
        if not runs:
            parser.error(
                f"{args.trace} has no tenant.* spans; --tenants needs a "
                "multi-tenant run"
            )
        report = analyze_tenants(runs[0])
        print(format_tenant_analysis(report))
        _write_json(args.json, report)
        return 0

    pcts = tuple(float(tok) / 100.0 for tok in args.pcts.split(",") if tok.strip())
    dags = {
        name: TraceDAG.from_tracer(tracer, name)
        for name, tracer in sorted(tracers.items())
        if len(tracer)
    }
    if not dags:
        parser.error(f"{args.trace} contains no spans")

    reports = {}
    for name, dag in dags.items():
        report = analyze_dag(dag, top=args.top, pcts=pcts)
        reports[name] = report
        print(format_analysis(report))
        print()
    _write_json(args.json, reports)

    if args.validate:
        return _validate(args.trace, dags, args.validate_pct)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
