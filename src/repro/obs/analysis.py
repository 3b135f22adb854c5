"""Trace-DAG reconstruction, critical-path analysis and causal what-if.

The paper's whole argument is an *attribution* argument: Figure 1 and
Table I blame the copy stage for most of a Hadoop job's lifetime, and
Figure 6 quantifies what fixing it buys.  This module computes the same
attributions from recorded spans instead of hand-kept counters:

* :class:`TraceDAG` — the dependency graph of a finished run, rebuilt
  from span parent ids plus the explicit happens-before edges
  (``Tracer.edge``) the simulators emit where nesting can't see the
  dependency (map output -> shuffle fetch, fetch -> copy phase, flow ->
  waiter, mapper barrier -> MPI-D recv, task -> job completion).  Builds
  from a :class:`~repro.obs.tracer.SpanTracer`: a live run's, a trace
  store's (:func:`~repro.obs.store.load_tracer`) or a Perfetto file's
  (:func:`~repro.obs.perfetto.load_observers`).
* :func:`critical_path` — the job's longest dependency chain, found by
  walking backwards from the job span's end and always descending into
  the *last-finishing* prerequisite.  The resulting segments tile the
  whole makespan, so per-stage blame percentages sum to 100.
* :func:`phase_breakdown` — the Table-I statistic (copy share of total
  task time) recomputed purely from spans, cross-checkable against
  :class:`~repro.hadoop.metrics.JobMetrics`.
* :func:`what_if` — Coz-style virtual speedup: the predicted makespan
  if every critical-path second in one stage/category ran ``pct``
  faster, computed on the DAG with no re-simulation.  (Validation by
  actual re-simulation lives in :mod:`repro.experiments.critical_path`,
  which owns the config-knob mapping.)
* :func:`span_slack` — recorded-time slack per span: how much later a
  span could have finished without moving anything downstream of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.tracer import SpanTracer

#: Map a span to one of the paper's stages.  ``None`` means "inherit the
#: enclosing stage" (net flows under a fetch are copy time; under output
#: replication they are reduce time).
_HADOOP_PHASES = {"copy": "copy", "sort": "sort", "reduce": "reduce"}
_MPID_PHASES = {"recv": "copy", "merge": "sort", "write": "reduce"}

#: Every stage the blame report can produce, in display order.
STAGES = ("map", "copy", "sort", "reduce", "idle")


def stage_of(category: str, name: str) -> Optional[str]:
    """The paper-stage of one span, or None to inherit from the walk."""
    if category in ("hadoop.map", "mpid.map"):
        return "map"
    if category == "hadoop.reduce":
        return _HADOOP_PHASES.get(name)  # attempt spans inherit
    if category == "mpid.reduce":
        return _MPID_PHASES.get(name)
    if category in ("transport.jetty", "hadoop.shuffle.backoff", "mpid.retransmit"):
        return "copy"
    if category.endswith(".job"):
        return "idle"
    return None  # net / kernel / anything generic: context decides


@dataclass
class DagSpan:
    """One span, normalized (always closed) for graph work."""

    sid: int
    parent: int
    category: str
    name: str
    track: str
    t0: float
    t1: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class TraceDAG:
    """Spans + parent links + explicit edges of one traced run."""

    def __init__(
        self,
        spans: Iterable[DagSpan],
        edges: Iterable[tuple[int, int, str]],
        name: str = "sim",
    ):
        self.name = name
        self.spans: dict[int, DagSpan] = {s.sid: s for s in spans}
        self.edges: list[tuple[int, int, str]] = []
        #: sid -> child sids (from span parent ids), begin order.
        self.children: dict[int, list[int]] = {}
        #: sid -> [(pred sid, kind)] from explicit edges.
        self.preds: dict[int, list[tuple[int, str]]] = {}
        #: sid -> [(succ sid, kind)] — the reverse view, for slack.
        self.succs: dict[int, list[tuple[int, str]]] = {}
        for s in self.spans.values():
            if s.parent and s.parent in self.spans:
                self.children.setdefault(s.parent, []).append(s.sid)
        for src, dst, kind in edges:
            if src in self.spans and dst in self.spans:
                self.edges.append((src, dst, kind))
                self.preds.setdefault(dst, []).append((src, kind))
                self.succs.setdefault(src, []).append((dst, kind))

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer: SpanTracer, name: str = "sim") -> "TraceDAG":
        """Build from a tracer (live, from a store or from a Perfetto
        file); open spans close at the last time seen."""
        end = tracer.last_time()
        spans = [
            DagSpan(
                s.sid,
                s.parent,
                s.category,
                s.name,
                s.track,
                s.t0,
                end if s.t1 is None else s.t1,
                s.args,
            )
            for s in tracer.spans
        ]
        return cls(spans, [(e.src, e.dst, e.kind) for e in tracer.edges], name=name)

    # -- queries ---------------------------------------------------------------
    def root(self) -> int:
        """The job span, or the longest top-level span as a fallback."""
        jobs = [
            s for s in self.spans.values() if s.category.endswith(".job")
        ]
        if jobs:
            return max(jobs, key=lambda s: (s.t1, s.sid)).sid
        roots = [s for s in self.spans.values() if not s.parent]
        if not roots:
            raise ValueError("trace has no root span")
        return max(roots, key=lambda s: (s.duration, s.sid)).sid

    def __len__(self) -> int:
        return len(self.spans)


# -- critical path --------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One stretch of the critical path attributed to one span."""

    sid: int
    category: str
    name: str
    stage: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class CriticalPath:
    """The job's longest dependency chain, as makespan-tiling segments."""

    root: int
    t_start: float
    t_end: float
    segments: list[Segment]

    @property
    def makespan(self) -> float:
        return self.t_end - self.t_start

    def blame(self) -> dict[str, float]:
        """Critical-path seconds per stage (sums to the makespan)."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.stage] = out.get(seg.stage, 0.0) + seg.duration
        return out

    def blame_pct(self) -> dict[str, float]:
        span = self.makespan
        if span <= 0:
            return {}
        return {k: 100.0 * v / span for k, v in self.blame().items()}

    def by_category(self) -> dict[str, float]:
        """Critical-path seconds per span category."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.category] = out.get(seg.category, 0.0) + seg.duration
        return out

    def seconds_in(self, *, stage: str = None, category: str = None,
                   name: str = None) -> float:
        """Critical-path seconds matching the given filters (AND)."""
        total = 0.0
        for seg in self.segments:
            if stage is not None and seg.stage != stage:
                continue
            if category is not None and seg.category != category:
                continue
            if name is not None and seg.name != name:
                continue
            total += seg.duration
        return total

    def by_span(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for seg in self.segments:
            out[seg.sid] = out.get(seg.sid, 0.0) + seg.duration
        return out


def critical_path(
    dag: TraceDAG, root: Optional[int] = None, eps: float = 1e-9
) -> CriticalPath:
    """Walk the last-finishing-prerequisite chain back from the job end.

    At each point in time the walk sits inside one span and asks: which
    prerequisite (child span or explicit-edge predecessor) finished
    last, no later than now?  Time up to that finish is the span's own
    doing; then the walk descends into the prerequisite.  When no
    prerequisite reaches back that far, the rest of the span's interval
    is its own.  The emitted segments tile ``[root.t0, root.t1]``
    exactly — blame percentages always sum to 100.
    """
    if root is None:
        root = dag.root()
    spans = dag.spans
    rspan = spans[root]
    segments: list[Segment] = []

    def emit(span: DagSpan, stage: str, t0: float, t1: float) -> None:
        if t1 - t0 > eps:
            segments.append(
                Segment(span.sid, span.category, span.name, stage, t0, t1)
            )

    def candidates(sid: int) -> list[int]:
        out = list(dag.children.get(sid, ()))
        out.extend(p for p, _kind in dag.preds.get(sid, ()))
        return out

    root_stage = stage_of(rspan.category, rspan.name) or "idle"
    # Frames: [sid, current time, stage]; a frame covers its span's
    # interval downward and pops at the span's start.
    frames: list[list] = [[root, rspan.t1, root_stage]]
    max_steps = 20 * (len(spans) + len(dag.edges)) + 1000
    steps = 0
    while frames:
        steps += 1
        if steps > max_steps:  # pragma: no cover - malformed-trace guard
            raise RuntimeError(
                "critical-path walk did not converge (cyclic or malformed trace)"
            )
        frame = frames[-1]
        sid, t, stage = frame
        span = spans[sid]
        if t <= span.t0 + eps:
            frames.pop()
            if frames:
                # Propagate the low-water mark actually covered, not the
                # span's start: a predecessor reached through this frame
                # may have begun before the parent did, and the parent
                # must not re-cover that time.
                frames[-1][1] = min(frames[-1][1], t, span.t0)
            continue
        best: Optional[DagSpan] = None
        for cid in candidates(sid):
            c = spans[cid]
            # A zero-length prerequisite owns no time, and descending
            # into it would not lower this frame's time: skip it.
            if c.t1 <= t + eps and c.t1 > span.t0 + eps and c.t1 - c.t0 > eps:
                if best is None or (c.t1, c.sid) > (best.t1, best.sid):
                    best = c
        if best is None:
            emit(span, stage, span.t0, t)
            frame[1] = span.t0
            continue
        t_desc = min(t, best.t1)
        if t_desc < t:
            emit(span, stage, t_desc, t)  # nothing newer to blame: self time
            frame[1] = t_desc
        child_stage = stage_of(best.category, best.name) or stage
        frames.append([best.sid, t_desc, child_stage])
    return CriticalPath(
        root=root, t_start=rspan.t0, t_end=rspan.t1, segments=segments[::-1]
    )


# -- slack ---------------------------------------------------------------------


def span_slack(dag: TraceDAG, root: Optional[int] = None) -> dict[int, float]:
    """Recorded-time slack: seconds a span's finish could slip before it
    pushes its tightest downstream chain past the job's recorded end.

    Computed with a backward pass over recorded times: a span's *tail*
    is the longest downstream chain of post-finish work reachable via
    its successors (explicit edge targets and its parent).  Slack is
    ``job_end - (t1 + tail)``; spans on the critical path come out at
    (numerically) zero.
    """
    if root is None:
        root = dag.root()
    job_end = dag.spans[root].t1
    tails: dict[int, float] = {}
    order = sorted(dag.spans.values(), key=lambda s: (-s.t1, -s.sid))
    for span in order:
        tail = 0.0
        succs = list(dag.succs.get(span.sid, ()))
        if span.parent and span.parent in dag.spans:
            succs.append((span.parent, "parent"))
        for q_sid, _kind in succs:
            q = dag.spans[q_sid]
            # Only the part of q that runs after this span finishes is
            # downstream work; q's own tail is already computed (it ends
            # later) or treated as 0 on a tie.
            rem = max(0.0, q.t1 - max(q.t0, span.t1))
            tail = max(tail, rem + tails.get(q_sid, 0.0))
        tails[span.sid] = tail
    return {
        sid: max(0.0, job_end - (dag.spans[sid].t1 + tail))
        for sid, tail in tails.items()
    }


# -- Table-I style phase breakdown (counter cross-check) -------------------------


def phase_breakdown(dag: TraceDAG) -> dict:
    """The Figure-1 / Table-I statistic recomputed from spans alone.

    Uses Hadoop's counter semantics: a reducer's copy time runs from
    *task start* to copy-phase end (it includes waiting for unfinished
    maps — the paper's central measurement choice), and the denominator
    is the summed wall time of every winning map attempt plus every
    reduce attempt.  Cross-check against
    :attr:`repro.hadoop.metrics.JobMetrics.copy_fraction`.
    """
    is_mpid = any(s.category == "mpid.map" for s in dag.spans.values())
    map_cat, red_cat = ("mpid.map", "mpid.reduce") if is_mpid else (
        "hadoop.map", "hadoop.reduce"
    )
    phase_names = _MPID_PHASES if is_mpid else _HADOOP_PHASES
    map_time = 0.0
    n_maps = 0
    for s in dag.spans.values():
        if s.category == map_cat and not s.parent:
            if not is_mpid and not s.args.get("won", True):
                continue  # speculative losers are not in the counters
            map_time += s.duration
            n_maps += 1
    copy_time = sort_time = reduce_time = 0.0
    reduce_attempt_time = 0.0
    n_reduces = 0
    for s in dag.spans.values():
        if s.category != red_cat:
            continue
        if not s.parent:
            reduce_attempt_time += s.duration
            n_reduces += 1
            continue
        stage = phase_names.get(s.name)
        attempt = dag.spans.get(s.parent)
        if stage == "copy" and attempt is not None:
            # Counter semantics: copy is measured from task start.
            copy_time += s.t1 - attempt.t0
        elif stage == "sort":
            sort_time += s.duration
        elif stage == "reduce":
            reduce_time += s.duration
    total_task_time = map_time + reduce_attempt_time
    frac = (lambda x: 100.0 * x / total_task_time) if total_task_time > 0 else (
        lambda x: 0.0
    )
    return {
        "system": "mpid" if is_mpid else "hadoop",
        "maps": n_maps,
        "reduces": n_reduces,
        "map_seconds": map_time,
        "copy_seconds": copy_time,
        "sort_seconds": sort_time,
        "reduce_seconds": reduce_time,
        "total_task_seconds": total_task_time,
        "copy_pct": frac(copy_time),
        "sort_pct": frac(sort_time),
        "reduce_pct": frac(reduce_time),
        "map_pct": frac(map_time),
    }


# -- causal what-if --------------------------------------------------------------


@dataclass(frozen=True)
class WhatIf:
    """Predicted effect of virtually speeding up one target by ``pct``."""

    target: str  #: stage name ("map", "copy", ...) or "cat:<category>"
    pct: float  #: fractional speedup applied (0.25 = 25% faster)
    cp_seconds: float  #: critical-path seconds the target owns today
    baseline_makespan: float
    predicted_makespan: float

    @property
    def predicted_delta(self) -> float:
        return self.baseline_makespan - self.predicted_makespan

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "pct": self.pct,
            "cp_seconds": self.cp_seconds,
            "baseline_makespan": self.baseline_makespan,
            "predicted_makespan": self.predicted_makespan,
            "predicted_delta": self.predicted_delta,
        }


def what_if(cp: CriticalPath, target: str, pct: float) -> WhatIf:
    """Coz-style virtual speedup of one stage (or ``cat:<category>``).

    First-order estimate: every critical-path second owned by the target
    shrinks by ``pct``; off-path work has slack and does not move the
    makespan.  It ignores path re-ordering (a speedup large enough to
    make a different chain critical is over-credited), so treat big
    ``pct`` values as upper bounds — and validate the one you act on by
    re-simulation (:mod:`repro.experiments.critical_path`).
    """
    if not 0.0 <= pct < 1.0:
        raise ValueError(f"pct must be in [0, 1), got {pct}")
    if target.startswith("cat:"):
        secs = cp.seconds_in(category=target[4:])
    else:
        secs = cp.seconds_in(stage=target)
    return WhatIf(
        target=target,
        pct=pct,
        cp_seconds=secs,
        baseline_makespan=cp.makespan,
        predicted_makespan=cp.makespan - pct * secs,
    )


def what_if_table(
    cp: CriticalPath, pcts: Iterable[float] = (0.1, 0.25, 0.5)
) -> list[WhatIf]:
    """What-ifs for every stage present on the critical path, biggest first."""
    blame = cp.blame()
    out = []
    for stage in sorted(blame, key=lambda s: -blame[s]):
        for pct in pcts:
            out.append(what_if(cp, stage, pct))
    return out


# -- top-k bottlenecks -----------------------------------------------------------


def top_bottlenecks(dag: TraceDAG, cp: CriticalPath, k: int = 10) -> list[dict]:
    """The k spans owning the most critical-path time, with their slack."""
    slack = span_slack(dag, root=cp.root)
    per_span = cp.by_span()
    top = sorted(per_span.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    out = []
    for sid, secs in top:
        span = dag.spans[sid]
        out.append(
            {
                "sid": sid,
                "category": span.category,
                "name": span.name,
                "track": span.track,
                "cp_seconds": secs,
                "duration": span.duration,
                "slack": slack.get(sid, 0.0),
            }
        )
    return out


# -- one-call analysis ------------------------------------------------------------


def analyze_dag(
    dag: TraceDAG,
    top: int = 10,
    pcts: Iterable[float] = (0.1, 0.25, 0.5),
) -> dict:
    """Full analysis of one process's DAG as a JSON-ready dict."""
    cp = critical_path(dag)
    breakdown = phase_breakdown(dag)
    return {
        "system": dag.name,
        "spans": len(dag),
        "edges": len(dag.edges),
        "makespan": cp.makespan,
        "critical_path": {
            "segments": len(cp.segments),
            "blame_seconds": cp.blame(),
            "blame_pct": cp.blame_pct(),
            "by_category": cp.by_category(),
        },
        "phase_breakdown": breakdown,
        "bottlenecks": top_bottlenecks(dag, cp, k=top),
        "what_if": [w.to_dict() for w in what_if_table(cp, pcts)],
    }


def format_analysis(report: dict) -> str:
    """Human-readable rendering of one :func:`analyze_dag` result."""
    lines = []
    name = report["system"]
    lines.append(f"== {name}: {report['makespan']:.2f} s makespan, "
                 f"{report['spans']} spans, {report['edges']} edges ==")
    lines.append("")
    lines.append("critical-path blame (causal; sums to 100%):")
    blame_pct = report["critical_path"]["blame_pct"]
    blame_s = report["critical_path"]["blame_seconds"]
    for stage in STAGES:
        if stage in blame_pct:
            lines.append(
                f"  {stage:<8} {blame_s[stage]:>10.2f} s  {blame_pct[stage]:>6.2f} %"
            )
    pb = report["phase_breakdown"]
    lines.append("")
    lines.append(
        "phase breakdown (Table-I counter semantics, from spans): "
        f"copy {pb['copy_pct']:.1f}%  sort {pb['sort_pct']:.1f}%  "
        f"reduce {pb['reduce_pct']:.1f}%  map {pb['map_pct']:.1f}%"
    )
    lines.append("")
    lines.append(f"top bottleneck spans (critical-path seconds / slack):")
    for b in report["bottlenecks"]:
        lines.append(
            f"  {b['cp_seconds']:>9.2f} s  {b['category']:<18} {b['name']:<26} "
            f"dur {b['duration']:>8.2f} s  slack {b['slack']:>8.2f} s"
        )
    lines.append("")
    lines.append("what-if (virtual speedup -> predicted makespan):")
    by_target: dict[str, list] = {}
    for w in report["what_if"]:
        by_target.setdefault(w["target"], []).append(w)
    for target, ws in by_target.items():
        cells = "  ".join(
            f"-{int(w['pct'] * 100):>2}%: {w['predicted_makespan']:>9.2f} s"
            for w in ws
        )
        lines.append(f"  {target:<8} ({ws[0]['cp_seconds']:>9.2f} s on path)  {cells}")
    return "\n".join(lines)
