"""``python -m repro trace <experiment>`` — run one observed experiment.

The fastest path from "what is the simulator doing?" to a timeline: one
command runs a small experiment with the observer attached and writes

* a Chrome/Perfetto ``trace_event`` JSON (open at https://ui.perfetto.dev
  or ``chrome://tracing``) with one process per simulated system and one
  thread per track (task attempt, flow, node),
* a ``<trace-out>.manifest.json`` sidecar (config hash, seed, git rev,
  wall-clock, event counts),
* optionally a metrics dump (``--metrics-out``, CSV or JSON by
  extension) and an ASCII Gantt of the phase spans (``--gantt``).

Experiments (every registry entry with an observed-run function; the
flags after the name come from that function's signature):

* ``fig6``       — WordCount, Hadoop and MPI-D side by side (two pids).
* ``fig1``       — JavaSort shuffle anatomy on Hadoop.
* ``fault``      — one Hadoop run under Poisson node churn (fault
  instants, aborted attempts, re-executions).
* ``durability`` — one Hadoop run on dying disks (HDFS repair flows).
* ``stragglers`` — one speculative run next to a slow disk.
* ``tenants``    — one multi-tenant chaos-under-load run.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from repro.obs.gantt import ascii_gantt
from repro.obs.manifest import build_manifest
from repro.obs.perfetto import write_trace


def observed_parser(prog: str, description: str, argv: list[str]):
    """A parser whose first positional names an observed experiment.

    Returns ``(parser, entry)``; when ``argv`` starts with an observed
    experiment's name, the parser also carries that experiment's flags.
    """
    from repro.__main__ import add_param_flags
    from repro.experiments.registry import OBSERVED

    parser = argparse.ArgumentParser(
        prog=prog,
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=sorted(OBSERVED))
    entry = OBSERVED.get(argv[0]) if argv else None
    if entry is not None:
        add_param_flags(parser, entry.function(entry.observed))
    return parser, entry


def run_observed(entry, args: argparse.Namespace, attach=None):
    """Call ``entry``'s observed-run function with the parsed flags.

    Returns ``(observers, sim_elapsed, config)``; ``config`` holds every
    parameter the run used, defaults included.
    """
    fn = entry.function(entry.observed)
    sig = inspect.signature(fn)
    flags = {k: v for k, v in vars(args).items() if k in sig.parameters}
    bound = sig.bind(attach or (lambda name, obs: None), **flags)
    bound.apply_defaults()
    observers, sim_elapsed = fn(*bound.args, **bound.kwargs)
    config = {k: v for k, v in bound.arguments.items() if k != "attach"}
    return observers, sim_elapsed, config


def _write_metrics(path: Path, observers) -> None:
    """Metrics dump: ``.json`` gets the full registry, else CSV rows."""
    if path.suffix == ".json":
        payload = {name: obs.metrics.to_dict() for name, obs in observers}
        with path.open("w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    import csv

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header_written = False
        for name, obs in observers:
            header, rows = obs.metrics.rows()
            if not header_written:
                writer.writerow(["system", *header])
                header_written = True
            for row in rows:
                writer.writerow([name, *row])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, entry = observed_parser("python -m repro trace", __doc__, argv)
    parser.add_argument(
        "--trace-out", type=Path, default=Path("trace.json"),
        help="Perfetto trace_event JSON output path",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="also dump the metrics registry (CSV, or JSON by extension)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=None,
        help="directory for every artifact (trace, manifest, metrics, "
        "stores, dashboard); relative output paths resolve under it",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="also stream the raw events to a <experiment>.<system>"
        ".store.jsonl trace store as they are recorded",
    )
    parser.add_argument(
        "--dashboard", action="store_true",
        help="also fold the run into frames and write dashboard.html",
    )
    parser.add_argument(
        "--gantt", action="store_true", help="print an ASCII Gantt timeline"
    )
    parser.add_argument(
        "--gantt-limit", type=int, default=None, metavar="N",
        help="cap the Gantt at N tracks (adds a '… N more tracks' footer)",
    )
    args = parser.parse_args(argv)

    out_dir = args.out_dir
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def _resolve(path: Path) -> Path:
        return out_dir / path if out_dir is not None and not path.is_absolute() else path

    trace_out = _resolve(args.trace_out)
    writers = []
    store_paths: list[Path] = []

    def _attach(name: str, obs) -> None:
        if not args.stream:
            return
        path = _resolve(Path(f"{args.experiment}.{name}.store.jsonl"))
        writers.append(obs.stream_to(path, system=name))
        store_paths.append(path)

    t0 = time.perf_counter()
    try:
        observers, sim_elapsed, config = run_observed(entry, args, _attach)
    finally:
        for writer in writers:
            writer.close()
    wall = time.perf_counter() - t0

    manifest = build_manifest(
        experiment=args.experiment,
        config=config,
        seed=config.get("seed"),
        observers=observers,
        wall_seconds=wall,
        sim_elapsed=sim_elapsed,
    )
    write_trace(observers, trace_out, manifest=manifest)
    manifest.write(Path(f"{trace_out}.manifest.json"))
    print(f"wrote {trace_out} (+ {trace_out}.manifest.json)")
    for path in store_paths:
        print(f"wrote {path} (streamed trace store)")
    for name, obs in observers:
        counts = obs.event_counts()
        print(
            f"  {name}: {sim_elapsed[name]:.2f} simulated seconds, "
            f"{counts['spans']} spans, {counts['instants']} instants, "
            f"{counts['metrics']} metrics"
        )
    if args.metrics_out is not None:
        metrics_out = _resolve(args.metrics_out)
        _write_metrics(metrics_out, observers)
        print(f"wrote {metrics_out}")
    if args.dashboard:
        from repro.obs.dashboard import write_dashboard
        from repro.obs.replay import replay_observer

        replays = [
            (name, replay_observer(obs, system=name)) for name, obs in observers
        ]
        dash = _resolve(Path("dashboard.html"))
        write_dashboard(
            dash, replays,
            title=f"repro trace — {args.experiment}",
            manifest=manifest,
        )
        print(f"wrote {dash} — open it in a browser to replay this run")
    if args.gantt:
        for name, obs in observers:
            print()
            print(
                ascii_gantt(
                    obs,
                    categories={
                        "hadoop.job", "hadoop.map", "hadoop.reduce",
                        "mpid.job", "mpid.map", "mpid.reduce", "fault",
                    },
                    title=name,
                    max_tracks=args.gantt_limit,
                )
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
