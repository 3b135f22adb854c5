"""Compare benchmark result files against the bounds in BENCHMARK.json.

``python -m benchmarks.e2e.compare BASE.json CHANGE.json [BASE2.json
CHANGE2.json ...]`` — files alternate base (the parent commit) and
change, as written by ``python -m benchmarks.e2e --out FILE``.  One row
per workload x end-to-end metric gives both sides' values with
quartiles, the change's delta, the bound, and a verdict:

* ``worse`` / ``better`` — the values differ by more than the bound;
* ``unchanged`` — they differ by less;
* ``unresolved`` — the run-to-run spread (q3 - q1 of either side) is
  wider than the bound, so the difference cannot be told apart from
  noise, unless every change run reads better than every base run.

With one pair, each side's value is the file's own (the median of its
runs) and its quartiles are those of the runs inside the file; with
several pairs, the value is the median of the per-file values and the
quartiles are taken over them.

From ten pairs on, a ``wins`` column gives the fraction of pairs the
change won (ties count for neither).  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from benchmarks.e2e.harness import allowed_worsening, load_spec, metric_table, quartiles

MIN_PAIRS_FOR_WINS = 10


@dataclass
class Side:
    q1: float
    value: float
    q3: float
    #: The individual runs this side's quartiles were taken over.
    runs: list[float]


def side(results: list[dict], workload: str, metric: str) -> Side | None:
    entries = [r["workloads"].get(workload, {}).get("metrics", {}).get(metric) for r in results]
    if any(e is None for e in entries):
        return None
    if len(entries) == 1:
        e = entries[0]
        return Side(e["q1"], e["value"], e["q3"], e["values"])
    runs = [e["value"] for e in entries]
    q1, median, q3 = quartiles(runs)
    return Side(q1, median, q3, runs)


def verdict(base: Side, change: Side, better: str, bound: float, floor: float) -> str:
    sign = 1 if better == "lower" else -1
    worse_by = sign * (change.value - base.value)
    allowed = allowed_worsening(base.value, bound, floor)
    spread = max(base.q3 - base.q1, change.q3 - change.q1)
    all_better = all(sign * c < sign * b for c in change.runs for b in base.runs)
    if spread > allowed and not all_better:
        return "unresolved"
    if worse_by > allowed:
        return "worse"
    if -worse_by > allowed:
        return "better"
    return "unchanged"


def pair_wins(bases: list[dict], changes: list[dict], workload: str, metric: str, better: str) -> float:
    sign = 1 if better == "lower" else -1
    wins = 0
    for b, c in zip(bases, changes):
        bv = b["workloads"][workload]["metrics"][metric]["value"]
        cv = c["workloads"][workload]["metrics"][metric]["value"]
        wins += sign * cv < sign * bv
    return wins / len(bases)


def _bound_text(m: dict) -> str:
    parts = [f"{m['bound'] * 100:g}%"] if m["bound"] else []
    if m["floor"]:
        parts.append(f"{m['floor']:g} {m['unit']}")
    return " or ".join(parts) if parts else "any"


def compare(results: list[dict], spec: dict) -> tuple[list[str], list[list[str]], bool]:
    """Header and rows of the comparison table, and whether any row is
    ``worse``."""
    bases, changes = results[0::2], results[1::2]
    table = metric_table(spec)
    workloads = [w["name"] for w in spec["workloads"]]
    show_wins = len(bases) >= MIN_PAIRS_FOR_WINS
    header = ["workload", "metric", "base [q1, q3]", "change [q1, q3]", "delta", "bound", "verdict"]
    if show_wins:
        header.append("wins")
    rows, any_worse = [], False
    for workload in workloads:
        for metric, m in table.items():
            base = side(bases, workload, metric)
            change = side(changes, workload, metric)
            if base is None or change is None:
                continue
            v = verdict(base, change, m["better"], m["bound"], m["floor"])
            any_worse |= v == "worse"
            delta = change.value - base.value
            rel = f" ({delta / base.value * 100:+.1f}%)" if base.value else ""
            row = [
                workload,
                metric,
                f"{base.value:.4g} [{base.q1:.4g}, {base.q3:.4g}]",
                f"{change.value:.4g} [{change.q1:.4g}, {change.q3:.4g}]",
                f"{delta:+.4g} {m['unit']}{rel}",
                _bound_text(m),
                v,
            ]
            if show_wins:
                row.append(f"{pair_wins(bases, changes, workload, metric, m['better']):.2f}")
            rows.append(row)
    return header, rows, any_worse


def render(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in [header] + rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", type=Path, nargs="+", help="BASE CHANGE [BASE CHANGE ...]")
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("give result files in base/change pairs")
    results = [json.loads(p.read_text()) for p in args.files]
    header, rows, any_worse = compare(results, load_spec())
    print(render(header, rows))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
