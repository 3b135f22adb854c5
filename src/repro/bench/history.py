"""Bench history + regression gate (``python -m repro bench --compare``).

Every gated run appends one JSON line to a history file (default
``BENCH_history.jsonl``): flattened metrics plus the run manifest's git
rev/config hash.  ``--compare`` diffs the fresh run against the most
recent *compatible* entry (same ``--quick`` flag and size sweep) and
against the best compatible entry ever recorded, then exits non-zero
if a gated metric regressed beyond the noise threshold.

What gates and what doesn't: **speedup ratios gate** (fast-path vs
reference solver on the same machine in the same run — if that ratio
drops, the fast path genuinely lost its edge); absolute wall seconds
are reported with their deltas but never gate, because they measure
the host as much as the code and CI hosts vary wildly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

#: A gated metric must not drop below (1 - threshold) x previous.
DEFAULT_THRESHOLD = 0.25

#: Wall-clock keys reported (lower is better) but never gated.
_WALL_KEYS = ("fast_s", "run_s", "total_fast_s")


def flatten_metrics(report: dict) -> dict[str, float]:
    """``section.name.metric -> value`` for every bench entry.

    ``*.speedup`` entries are the gated ratios; one wall-seconds key
    per entry rides along for context.
    """
    out: dict[str, float] = {}
    for section in ("micro", "macro"):
        for name, entry in (report.get(section) or {}).items():
            if not isinstance(entry, dict):
                continue
            prefix = f"{section}.{name}"
            if isinstance(entry.get("speedup"), (int, float)):
                out[f"{prefix}.speedup"] = float(entry["speedup"])
            for key in _WALL_KEYS:
                if isinstance(entry.get(key), (int, float)):
                    out[f"{prefix}.{key}"] = float(entry[key])
                    break
    return out


def is_gated(metric: str) -> bool:
    return metric.endswith(".speedup")


def make_entry(report: dict) -> dict:
    """One history line for a :class:`BenchReport` dict."""
    manifest = report.get("manifest") or {}
    return {
        "created_at": manifest.get("created_at"),
        "git_rev": manifest.get("git_rev"),
        "config_hash": manifest.get("config_hash"),
        "config": manifest.get("config") or {},
        "divergence": bool(report.get("divergence", False)),
        "metrics": flatten_metrics(report),
    }


def compatible(a: dict, b: dict) -> bool:
    """Entries are comparable when they benched the same workload."""
    ca, cb = a.get("config") or {}, b.get("config") or {}
    return (
        ca.get("quick") == cb.get("quick")
        and ca.get("sizes_gb") == cb.get("sizes_gb")
    )


def load_history(path: Union[str, Path]) -> list[dict]:
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def append_history(path: Union[str, Path], entry: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        json.dump(entry, fh, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class MetricDelta:
    """One metric, fresh run vs history."""

    metric: str
    current: float
    previous: Optional[float]
    best: Optional[float]
    #: Fractional change vs previous; positive = better.  Speedups are
    #: better higher, wall seconds better lower.
    delta: Optional[float]
    gated: bool
    regressed: bool

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "current": self.current,
            "previous": self.previous,
            "best": self.best,
            "delta": self.delta,
            "gated": self.gated,
            "regressed": self.regressed,
        }


def compare(
    entry: dict,
    history: list[dict],
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[MetricDelta], Optional[dict]]:
    """Diff ``entry`` against its most recent compatible predecessor.

    Returns the per-metric deltas and the predecessor used (None on a
    cold start — nothing gates then).
    """
    peers = [h for h in history if compatible(h, entry)]
    prev = peers[-1] if peers else None
    deltas: list[MetricDelta] = []
    for metric, value in sorted(entry["metrics"].items()):
        gated = is_gated(metric)
        prev_v = (prev or {}).get("metrics", {}).get(metric)
        best_v: Optional[float] = None
        for peer in peers:
            v = peer.get("metrics", {}).get(metric)
            if v is None:
                continue
            if best_v is None:
                best_v = v
            else:
                best_v = max(best_v, v) if gated else min(best_v, v)
        delta = None
        regressed = False
        if prev_v:
            better_higher = gated  # wall seconds are better lower
            delta = (value - prev_v) / prev_v
            if not better_higher:
                delta = -delta
            regressed = gated and delta < -threshold
        deltas.append(
            MetricDelta(
                metric=metric,
                current=value,
                previous=prev_v,
                best=best_v,
                delta=delta,
                gated=gated,
                regressed=regressed,
            )
        )
    return deltas, prev


def render_comparison(
    deltas: list[MetricDelta],
    prev: Optional[dict],
    threshold: float,
) -> str:
    """ASCII diff table; gated regressions flagged loudly."""
    if prev is None:
        return "bench history: cold start — nothing to compare against yet"
    lines = [
        "bench vs previous compatible run "
        f"(rev {str(prev.get('git_rev'))[:12]}, "
        f"gate: speedups within -{threshold:.0%}):",
        f"  {'metric':<32} {'current':>10} {'previous':>10} "
        f"{'delta':>8} {'best':>10}",
    ]
    for d in deltas:
        delta = f"{d.delta:+.1%}" if d.delta is not None else "-"
        prev_s = f"{d.previous:.4g}" if d.previous is not None else "-"
        best_s = f"{d.best:.4g}" if d.best is not None else "-"
        mark = "  REGRESSED" if d.regressed else ("" if d.gated else "  (info)")
        lines.append(
            f"  {d.metric:<32} {d.current:>10.4g} {prev_s:>10} "
            f"{delta:>8} {best_s:>10}{mark}"
        )
    n = sum(d.regressed for d in deltas)
    lines.append(
        f"  -> {n} gated regression(s)" if n else "  -> no gated regressions"
    )
    return "\n".join(lines)
