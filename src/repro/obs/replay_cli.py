"""``python -m repro replay <trace-or-experiment>`` — the run dashboard.

One command from a run (or an existing trace artifact) to a single
self-contained HTML file you can open from disk: cluster heatmap,
animated shuffle flows, stage timeline and counter sparklines over a
playback scrubber (see :mod:`repro.obs.dashboard`).

The target decides where the events come from:

* an observed experiment (``fig6``, ``fig1``, ``fault``, ``durability``,
  ``stragglers``, ``tenants``) — run it now, with the same function and
  flags as ``repro trace``, and replay the live observers;
* ``*.jsonl`` — a streamed trace store written by ``repro trace
  --stream`` (read chunked; memory stays O(chunk), not O(trace));
* ``*.json``  — an existing Perfetto ``trace_event`` export, read back
  into observers (:func:`repro.obs.perfetto.load_observers`) and
  replayed like a live run;
* ``sweep``   — no replay at all: build the cross-run sweep browser
  from the ``results/`` CSV/JSON exports;
* ``fleet <dir>`` — aggregate every closed ``.jsonl`` store under the
  directory (footer scans only — O(footer) per store, never
  O(events)) into the cross-run/cross-tenant fleet page, plus a
  canonical JSON rollup for diffing in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _dump_json(path: Path, replays) -> None:
    payload = {name: r.to_dict() for name, r in replays}
    with path.open("w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _replay_experiment(argv: list[str]) -> int:
    """Run one observed experiment now and replay its live observers."""
    from repro.obs.cli import observed_parser, run_observed
    from repro.obs.replay import replay_observer

    parser, entry = observed_parser("python -m repro replay", __doc__, argv)
    _frame_flags(parser)
    args = parser.parse_args(argv)
    observers, _, _ = run_observed(entry, args)
    replays = [
        (name, replay_observer(obs, system=name, buckets=args.buckets))
        for name, obs in observers
    ]
    return _write(replays, f"repro replay — {args.experiment}", args)


def _frame_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--buckets", type=int, default=120,
        help="playback frames to fold the run into (default 120)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="HTML output path (default dashboard.html / sweep.html)",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="also dump the folded frames as JSON (headless use)",
    )


def _write(replays, title: str, args: argparse.Namespace) -> int:
    from repro.obs.dashboard import write_dashboard

    for name, r in replays:
        print(
            f"  {name}: {r.t_end:.2f}s simulated -> {len(r.frames)} frames, "
            f"{len(r.nodes)} nodes, {r.spans_seen} spans, "
            f"{r.total_markers} markers"
        )
    out = args.out or Path("dashboard.html")
    write_dashboard(out, replays, title=title)
    print(f"wrote {out} — open it in a browser")
    if args.json_out is not None:
        _dump_json(args.json_out, replays)
        print(f"wrote {args.json_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.registry import OBSERVED

    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in OBSERVED:
        return _replay_experiment(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro replay", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target",
        help=f"{'|'.join(OBSERVED)} (run now), a .jsonl trace store, "
        "a Perfetto trace.json, 'sweep', or 'fleet'",
    )
    parser.add_argument(
        "store_dir", nargs="?", type=Path, default=None,
        help="fleet: directory of .jsonl trace stores",
    )
    _frame_flags(parser)
    parser.add_argument(
        "--results-dir", type=Path, default=Path("results"),
        help="sweep: directory of experiments CSV/JSON exports",
    )
    parser.add_argument(
        "--root-label", type=str, default=None,
        help="fleet: override the recorded root name (CI byte-stability)",
    )
    args = parser.parse_args(argv)

    if args.target == "fleet":
        from repro.obs.dashboard import write_fleet_page
        from repro.obs.fleet import fleet_summary

        if args.store_dir is None or not args.store_dir.is_dir():
            parser.error("fleet needs a directory of .jsonl trace stores")
        summary = fleet_summary(args.store_dir, root_label=args.root_label)
        if not summary.stores:
            parser.error(f"{args.store_dir}: no closed .jsonl stores found")
        out = args.out or Path("fleet.html")
        write_fleet_page(out, summary)
        json_out = args.json_out or out.with_suffix(".json")
        json_out.parent.mkdir(parents=True, exist_ok=True)
        json_out.write_text(summary.to_json() + "\n")
        t = summary.totals
        print(
            f"  fleet: {t['stores']} stores, {t['events']} events, "
            f"{t['jobs']} jobs ({t['completed']} completed), "
            f"{len(summary.tenants)} tenants, "
            f"{len(summary.regressions)} regressions"
        )
        print(f"wrote {out} — open it in a browser")
        print(f"wrote {json_out}")
        return 0

    if args.target == "sweep":
        from repro.obs.dashboard import write_sweep_browser

        out = args.out or Path("sweep.html")
        results = args.results_dir if args.results_dir.is_dir() else None
        if results is None:
            print(f"note: {args.results_dir}/ not found — run "
                  "`python -m repro all --quick --out results` first for charts")
        write_sweep_browser(out, results_dir=results)
        print(f"wrote {out} — open it in a browser")
        return 0

    from repro.obs.perfetto import load_observers
    from repro.obs.replay import replay_observer, replay_store

    target = args.target
    if target.endswith(".jsonl"):
        r = replay_store(target, buckets=args.buckets)
        replays = [(r.system, r)]
    elif target.endswith(".json"):
        replays = [
            (name, replay_observer(obs, system=name, buckets=args.buckets))
            for name, obs in load_observers(target)
            if len(obs.tracer)
        ]
        if not replays:
            parser.error(f"{target}: no replayable processes found")
    else:
        parser.error(
            f"unknown target {target!r}: expected "
            f"{'|'.join(OBSERVED)}|sweep|fleet, a .jsonl store, or a .json trace"
        )
    return _write(replays, f"repro replay — {Path(target).name}", args)


if __name__ == "__main__":
    raise SystemExit(main())
