"""Chrome/Perfetto ``trace_event`` JSON export.

The format is the Trace Event Format that both ``chrome://tracing`` and
https://ui.perfetto.dev load directly: a JSON object with a
``traceEvents`` array of events.  We emit

* ``"ph": "M"`` metadata naming each process (one per observer — e.g.
  the Hadoop run and the MPI-D run of a comparison) and each thread
  (one per span track);
* ``"ph": "X"`` complete events for spans (``ts``/``dur`` in
  microseconds of *simulated* time); each carries its tracer span id
  and parent id in ``args`` so a trace file round-trips losslessly
  back into a dependency DAG (:mod:`repro.obs.analysis`);
* ``"ph": "i"`` instant events for point occurrences (faults, sends);
* ``"ph": "s"`` / ``"ph": "f"`` flow-event pairs for every explicit
  happens-before edge (``Tracer.edge``) — Perfetto draws these as
  arrows between the two spans.

Spans still open at export time (a task killed by fault injection) are
closed at the trace's final timestamp and flagged ``"unfinished"`` —
Perfetto has no notion of a half-open complete event.  Metrics stay out
of the file: counters and histograms are summaries, not time series, so
no trace has a counter track (``"ph": "C"``).

:func:`load_observers` is the inverse of :func:`write_trace`: it reads a
trace file back into one :class:`~repro.obs.observer.Observer` per
process, so every reader (critical-path analysis, tenant analysis,
replay) works on the same objects a live run produces.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.obs.observer import Observer
from repro.obs.tracer import Edge, Instant, Span

#: Simulated seconds -> trace microseconds.
_US = 1e6

ObserverSet = Union[Observer, Sequence[Tuple[str, Observer]]]


def _normalize(observers: ObserverSet) -> list[tuple[str, Observer]]:
    if isinstance(observers, Observer):
        return [("sim", observers)]
    return list(observers)


def trace_events(obs: Observer, pid: int = 1, pid_name: str = "sim") -> list[dict]:
    """All trace events of one observer under process id ``pid``.

    Track (thread) ids are assigned in first-begin order, so two runs of
    the same seeded simulation export byte-identical event lists.
    """
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": pid_name},
        }
    ]
    tids: dict[str, int] = {}

    def tid_of(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    end_time = obs.final_time()
    close_at: dict[int, float] = {}
    for span in obs.tracer.spans:
        t1 = span.t1
        args = dict(span.args)
        if t1 is None:
            t1 = end_time
            args["unfinished"] = True
        close_at[span.sid] = t1
        args["sid"] = span.sid
        args["parent"] = span.parent
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "ts": span.t0 * _US,
                "dur": (t1 - span.t0) * _US,
                "pid": pid,
                "tid": tid_of(span.track),
                "args": args,
            }
        )
    for k, edge in enumerate(obs.tracer.edges, start=1):
        src = obs.tracer.spans[edge.src - 1]
        dst = obs.tracer.spans[edge.dst - 1]
        flow_args = {"src": edge.src, "dst": edge.dst, **edge.args}
        # The start binds inside the source span, the finish inside the
        # destination span at the moment the dependency resolved.
        t_start = close_at[edge.src]
        t_finish = min(max(dst.t0, t_start), close_at[edge.dst])
        events.append(
            {
                "ph": "s",
                "id": k,
                "name": edge.kind,
                "cat": "edge",
                "ts": t_start * _US,
                "pid": pid,
                "tid": tid_of(src.track),
                "args": flow_args,
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "id": k,
                "name": edge.kind,
                "cat": "edge",
                "ts": t_finish * _US,
                "pid": pid,
                "tid": tid_of(dst.track),
                "args": flow_args,
            }
        )
    for inst in obs.tracer.instants:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": inst.name,
                "cat": inst.category,
                "ts": inst.time * _US,
                "pid": pid,
                "tid": tid_of(inst.track),
                "args": dict(inst.args),
            }
        )
    return events


def trace_dict(observers: ObserverSet, manifest=None) -> dict:
    """The full JSON-object form of one or many observers' traces.

    ``manifest`` may be a plain dict or a
    :class:`~repro.obs.manifest.RunManifest`; it lands in ``otherData``.
    """
    merged: list[dict] = []
    for i, (name, obs) in enumerate(_normalize(observers), start=1):
        merged.extend(trace_events(obs, pid=i, pid_name=name))
    out: dict = {"traceEvents": merged, "displayTimeUnit": "ms"}
    if manifest is not None:
        if hasattr(manifest, "to_dict"):
            manifest = manifest.to_dict()
        out["otherData"] = manifest
    return out


def write_trace(
    observers: ObserverSet,
    path: Union[str, Path],
    manifest=None,
) -> Path:
    """Write a Perfetto-loadable trace file; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(trace_dict(observers, manifest=manifest), fh)
    return path


def load_observers(
    source: Union[dict, str, Path],
) -> list[tuple[str, Observer]]:
    """Read a trace file (or its :func:`trace_dict`) back into observers.

    Returns ``[(process name, Observer)]`` in pid order, the shape
    :func:`write_trace` takes.  Each simulator-less observer holds the
    process's spans (ids, parents, tracks and args as recorded), edges
    and instants; metrics are not in the file.  Counter events
    (``"ph": "C"``), which :func:`write_trace` never writes, are skipped.
    Times are the file's microseconds over 1e6, so they match the
    recorded seconds to within that rounding.  A span the export flagged
    ``unfinished`` comes back closed at the trace's end.
    """
    if not isinstance(source, dict):
        with Path(source).open() as fh:
            source = json.load(fh)
    processes: dict[int, tuple[str, Observer]] = {}
    tracks: dict[tuple[int, int], str] = {}
    # One pass suffices: the writer names each process and track before
    # any event uses it.
    for ev in source.get("traceEvents", ()):
        ph, pid = ev["ph"], ev["pid"]
        if ph == "M":
            if ev["name"] == "process_name":
                processes[pid] = (ev["args"]["name"], Observer())
            else:
                tracks[(pid, ev["tid"])] = ev["args"]["name"]
            continue
        if ph == "f" or ph == "C":
            continue  # a flow's finish half (its "s" carries the edge) or a counter
        obs = processes[pid][1]
        t = ev["ts"] / _US
        args = dict(ev["args"])
        if ph == "X":
            sid = args.pop("sid", None)
            if sid is None:
                raise ValueError(
                    "trace predates span-id export; re-capture it with "
                    "`python -m repro trace` to analyze"
                )
            spans = obs.tracer.spans
            if sid != len(spans) + 1:
                raise ValueError(f"trace corrupt: span {sid} after {len(spans)}")
            parent = args.pop("parent")
            args.pop("unfinished", None)
            track = tracks[(pid, ev["tid"])]
            spans.append(Span(sid, parent, ev["cat"], ev["name"], track, t,
                              t + ev["dur"] / _US, args))
        elif ph == "s":
            src, dst = args.pop("src"), args.pop("dst")
            obs.tracer.edges.append(Edge(src, dst, ev["name"], t, args))
        else:  # "i"
            obs.tracer.instants.append(
                Instant(t, ev["cat"], ev["name"], tracks[(pid, ev["tid"])], args)
            )
    return [processes[pid] for pid in sorted(processes)]


_REQUIRED_BY_PHASE = {
    "X": ("name", "cat", "ts", "dur", "pid", "tid"),
    "i": ("name", "cat", "ts", "pid", "tid"),
    "C": ("name", "ts", "pid"),
    "M": ("name", "pid"),
    "s": ("name", "cat", "id", "ts", "pid", "tid"),
    "f": ("name", "cat", "id", "ts", "pid", "tid"),
}


def validate_trace(data: Union[dict, str, Path]) -> list[dict]:
    """Schema-check a trace file/dict; returns the events on success.

    Raises :class:`ValueError` on the first malformed event.  Used by
    the CI smoke job and the test suite, so "the trace loads in
    Perfetto" is asserted mechanically, not anecdotally.
    """
    if not isinstance(data, dict):
        with Path(data).open() as fh:
            data = json.load(fh)
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no traceEvents array (or it is empty)")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object: {ev!r}")
        ph = ev.get("ph")
        if ph not in _REQUIRED_BY_PHASE:
            raise ValueError(f"event {i} has unsupported phase {ph!r}")
        for key in _REQUIRED_BY_PHASE[ph]:
            if key not in ev:
                raise ValueError(f"{ph!r} event {i} is missing {key!r}: {ev}")
        if ph == "X":
            if ev["dur"] < 0:
                raise ValueError(f"event {i} has negative duration: {ev}")
            if ev["ts"] < 0:
                raise ValueError(f"event {i} has negative timestamp: {ev}")
    return events


def categories_in(events: Iterable[dict]) -> set[str]:
    """Distinct categories present (for acceptance checks)."""
    return {ev["cat"] for ev in events if "cat" in ev}
