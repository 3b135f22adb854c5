"""Streaming trace store: append-as-recorded JSONL spans/instants/edges.

The Perfetto exporter and the ASCII Gantt both hold the whole trace in
memory before writing a byte — fine at 1 GB, hostile to the multi-tenant
and 1000-node items on the roadmap.  This module is the incremental
alternative:

* :class:`TraceStoreWriter` — a tracer *sink* (see
  :attr:`~repro.obs.tracer.SpanTracer.sink`): every ``begin``/``end``/
  ``instant``/``edge`` call, and every histogram transition,
  appends exactly one JSON line to the store file the moment it is
  recorded.  Peak writer memory is O(1) events no matter how long the
  run.
* a **footer index** — the last line of a closed store carries event
  counts, the final simulated time, a metrics snapshot, and a sparse
  ``[event_index, byte_offset]`` index so a reader can seek without
  scanning.
* :func:`read_events` / :class:`TraceStoreReader` — a chunked iterator
  that parses the file ``chunk_bytes`` at a time; resident memory is
  O(chunk), never O(trace).  ``max_buffered_bytes`` records the
  high-water mark so tests can pin that claim.
* :func:`load_tracer` — folds a stream back into a
  :class:`~repro.obs.tracer.SpanTracer`; a trace streamed to disk
  reconstructs the exact in-memory tracer state (bit-for-bit spans,
  instants, edges and open-span stacks — pinned by
  ``tests/obs/test_store.py``).

Event lines (``k`` tags the kind):

```
{"k":"header","version":1,"system":"hadoop"}
{"k":"begin","sid":1,"parent":0,"cat":"hadoop.job","name":"...","track":"...","t0":0.0,"args":{}}
{"k":"end","sid":1,"t1":45.9,"args":{}}
{"k":"instant","t":3.0,"cat":"fault","name":"crash node3","track":"faults","args":{}}
{"k":"edge","src":4,"dst":9,"kind":"shuffle","t":12.0,"args":{}}
{"k":"sample","m":"slots.node1.cpus.in_use","t":2.5,"v":3.0}
{"k":"footer", ...}
```

Every line is exactly the compact ``json.dumps(event,
separators=(",", ":"))`` of its event dict.  The four hot kinds
(``begin``, ``end``, ``edge``, ``sample``: nearly every line of a store)
are written from fixed templates when every field has an exact type whose
text is known to match ``json`` — ``int``, ``str``, finite ``float``, and
in ``args`` also ``bool`` and ``None``.  Everything else (NaN and
infinities, numpy scalars, subclasses, nested args, ``instant`` lines,
the header and the footer) goes through one cached ``json`` encoder.
``JsonStoreWriter`` in ``tests/obs/oracle.py`` is the dict-per-line
writer the templates replaced; the tests hold the two byte-equal.

Timestamps are simulated seconds; nothing wall-clock enters the file, so
two runs of the same seeded simulation write byte-identical stores (the
CI determinism job diffs exactly that).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.obs.tracer import Edge, Instant, Span, SpanTracer

FORMAT_VERSION = 1

#: One index entry is recorded in the footer every this many events.
DEFAULT_INDEX_EVERY = 1000


#: The one compact encoder for every line the templates do not write.
#: ``json.dumps`` with non-default separators builds a new encoder per
#: call; this one gives the same bytes.
_encode = json.JSONEncoder(separators=(",", ":")).encode
#: ``json``'s own string escaper: ASCII-only, quotes included.
_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _number(x) -> bool:
    """Whether ``repr(x)`` is what ``json`` writes for ``x``: an exact
    ``int`` or an exact finite ``float``."""
    return (type(x) is float and -_INF < x < _INF) or type(x) is int


def _flat_args(args) -> Optional[str]:
    """``args`` as ``json`` writes it, or None to leave it to ``json``.

    Renders a dict of ``str`` keys whose values are exact ``str``,
    ``bool``, ``int``, finite ``float`` or ``None``; anything else (NaN,
    infinities, numpy scalars, subclasses, nesting) returns None.
    """
    if type(args) is not dict:
        return None
    if not args:
        return "{}"
    items = []
    for key, value in args.items():
        if type(key) is not str:
            return None
        kind = type(value)
        if kind is str:
            text = _quote(value)
        elif kind is bool:
            text = "true" if value else "false"
        elif _number(value):
            text = repr(value)
        elif value is None:
            text = "null"
        else:
            return None
        items.append(f"{_quote(key)}:{text}")
    return "{" + ",".join(items) + "}"


def _begin_event(span: Span) -> dict:
    return {
        "k": "begin",
        "sid": span.sid,
        "parent": span.parent,
        "cat": span.category,
        "name": span.name,
        "track": span.track,
        "t0": span.t0,
        "args": span.args,
    }


def _instant_event(inst: Instant) -> dict:
    return {
        "k": "instant",
        "t": inst.time,
        "cat": inst.category,
        "name": inst.name,
        "track": inst.track,
        "args": inst.args,
    }


def _edge_event(edge: Edge) -> dict:
    return {
        "k": "edge",
        "src": edge.src,
        "dst": edge.dst,
        "kind": edge.kind,
        "t": edge.time,
        "args": edge.args,
    }


class TraceStoreWriter:
    """Appends trace events to a JSONL file as they are recorded.

    Use as a context manager, or call :meth:`close` explicitly — the
    footer (counts, final time, metrics snapshot, seek index) is only
    written on close.  ``attach(obs)`` wires the writer into a live
    observer as both the tracer sink and the metrics sample sink.
    """

    def __init__(
        self,
        path: Union[str, Path],
        system: str = "sim",
        index_every: int = DEFAULT_INDEX_EVERY,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.system = system
        self.index_every = max(1, index_every)
        self._fh = self.path.open("w")
        self._obs = None
        self.closed = False
        self.events = 0
        self.counts = {"begin": 0, "end": 0, "instant": 0, "edge": 0, "sample": 0}
        self._index: list[list] = []
        #: Producer-supplied run summary (e.g. the multi-tenant engine's
        #: per-tenant SLO report).  Written into the footer when
        #: non-empty, so fleet tooling can aggregate a directory of
        #: stores reading only footers.  Must be JSON-serializable and
        #: wall-clock-free to preserve the byte-identity guarantee.
        self.summary: dict = {}
        self._write({"k": "header", "version": FORMAT_VERSION,
                     "system": self.system})

    # -- wiring ---------------------------------------------------------------
    def attach(self, obs) -> "TraceStoreWriter":
        """Stream everything ``obs`` records from now on into this store."""
        self._obs = obs
        if obs.tracer.enabled:
            obs.tracer.sink = self
        if obs.metrics.enabled:
            obs.metrics.sample_sink = self
        return self

    def _write(self, obj: dict) -> None:
        self._fh.write(_encode(obj) + "\n")

    def _count(self, kind: str) -> None:
        """Book the event whose line is written next, at the current offset."""
        if self.events % self.index_every == 0:
            self._index.append([self.events, self._fh.tell()])
        self.events += 1
        self.counts[kind] += 1

    # -- sink protocol --------------------------------------------------------
    # Each line is formatted when it is recorded: ``SpanTracer.end`` merges
    # its args into ``span.args`` later.  The event is booked before its
    # line is formatted, so one whose value ``json`` refuses still counts.
    def on_begin(self, span: Span) -> None:
        self._count("begin")
        sid, parent, t0 = span.sid, span.parent, span.t0
        cat, name, track = span.category, span.name, span.track
        args = _flat_args(span.args)
        if (
            args is not None
            and type(sid) is int
            and type(parent) is int
            and type(cat) is str
            and type(name) is str
            and type(track) is str
            and _number(t0)
        ):
            self._fh.write(
                f'{{"k":"begin","sid":{sid!r},"parent":{parent!r},'
                f'"cat":{_quote(cat)},"name":{_quote(name)},'
                f'"track":{_quote(track)},"t0":{t0!r},"args":{args}}}\n'
            )
        else:
            self._write(_begin_event(span))

    def on_end(self, sid: int, t1: float, args: dict) -> None:
        self._count("end")
        text = _flat_args(args)
        if text is not None and type(sid) is int and _number(t1):
            self._fh.write(
                f'{{"k":"end","sid":{sid!r},"t1":{t1!r},"args":{text}}}\n'
            )
        else:
            self._write({"k": "end", "sid": sid, "t1": t1, "args": args})

    def on_instant(self, inst: Instant) -> None:
        self._count("instant")
        self._write(_instant_event(inst))

    def on_edge(self, edge: Edge) -> None:
        self._count("edge")
        src, dst, kind, t = edge.src, edge.dst, edge.kind, edge.time
        args = _flat_args(edge.args)
        if (
            args is not None
            and type(src) is int
            and type(dst) is int
            and type(kind) is str
            and _number(t)
        ):
            self._fh.write(
                f'{{"k":"edge","src":{src!r},"dst":{dst!r},'
                f'"kind":{_quote(kind)},"t":{t!r},"args":{args}}}\n'
            )
        else:
            self._write(_edge_event(edge))

    def on_sample(self, name: str, t: float, value: float) -> None:
        self._count("sample")
        if type(name) is str and _number(t) and _number(value):
            self._fh.write(
                f'{{"k":"sample","m":{_quote(name)},"t":{t!r},"v":{value!r}}}\n'
            )
        else:
            self._write({"k": "sample", "m": name, "t": t, "v": value})

    # -- closing --------------------------------------------------------------
    def close(self) -> Path:
        """Detach from the observer and write the footer; idempotent."""
        if self.closed:
            return self.path
        obs = self._obs
        final_time = 0.0
        metrics: dict = {}
        if obs is not None:
            if obs.tracer.sink is self:
                obs.tracer.sink = None
            if obs.metrics.sample_sink is self:
                obs.metrics.sample_sink = None
            final_time = obs.final_time()
            metrics = obs.metrics.to_dict(until=final_time)
        footer = {
            "k": "footer",
            "version": FORMAT_VERSION,
            "system": self.system,
            "events": self.events,
            "counts": self.counts,
            "final_time": final_time,
            "index_every": self.index_every,
            "index": self._index,
            "metrics": metrics,
        }
        if self.summary:
            footer["summary"] = self.summary
        self._write(footer)
        self._fh.close()
        self.closed = True
        return self.path

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceStoreReader:
    """Chunked iterator over a store file's event lines.

    Reads ``chunk_bytes`` at a time and yields parsed events one by one;
    only the current chunk plus at most one carried partial line is ever
    resident (``max_buffered_bytes`` records the observed peak, which
    tests pin to O(chunk)).  The header is consumed on construction; the
    footer, if present, lands in :attr:`footer` once iteration passes it.
    """

    def __init__(self, path: Union[str, Path], chunk_bytes: int = 1 << 16):
        self.path = Path(path)
        self.chunk_bytes = max(256, chunk_bytes)
        self.header: Optional[dict] = None
        self.footer: Optional[dict] = None
        self.events_read = 0
        self.max_buffered_bytes = 0

    def __iter__(self) -> Iterator[dict]:
        buffer = ""
        with self.path.open("r") as fh:
            while True:
                chunk = fh.read(self.chunk_bytes)
                if not chunk:
                    break
                buffer += chunk
                self.max_buffered_bytes = max(self.max_buffered_bytes, len(buffer))
                *lines, buffer = buffer.split("\n")
                for line in lines:
                    event = self._parse(line)
                    if event is not None:
                        yield event
        if buffer.strip():
            event = self._parse(buffer)
            if event is not None:
                yield event

    def _parse(self, line: str) -> Optional[dict]:
        if not line.strip():
            return None
        obj = json.loads(line)
        kind = obj.get("k")
        if kind == "header":
            self.header = obj
            return None
        if kind == "footer":
            self.footer = obj
            return None
        self.events_read += 1
        return obj


def read_events(
    path: Union[str, Path], chunk_bytes: int = 1 << 16
) -> Iterator[dict]:
    """Iterate a store file's events with O(chunk) resident memory."""
    return iter(TraceStoreReader(path, chunk_bytes=chunk_bytes))


def read_footer(path: Union[str, Path], tail_bytes: int = 1 << 16) -> Optional[dict]:
    """The footer of a closed store, read from the file's tail only.

    Scans backwards in ``tail_bytes`` blocks for the last line; returns
    None for a store that was never closed.  Never reads the whole file.
    """
    path = Path(path)
    size = path.stat().st_size
    with path.open("rb") as fh:
        tail = b""
        pos = size
        while pos > 0:
            step = min(tail_bytes, pos)
            pos -= step
            fh.seek(pos)
            tail = fh.read(step) + tail
            stripped = tail.rstrip(b"\n")
            if b"\n" in stripped or pos == 0:
                last = stripped.rsplit(b"\n", 1)[-1]
                if not last.strip():
                    return None
                try:
                    obj = json.loads(last)
                except json.JSONDecodeError:
                    return None
                return obj if obj.get("k") == "footer" else None
    return None


def events_of(obs) -> Iterator[dict]:
    """The store-format event stream of a live (finished) observer.

    Produces the same dict schema the store file holds, ordered by
    simulated time, so :mod:`repro.obs.replay` folds a live observer and
    a streamed file identically.  Ties at one timestamp keep a valid
    order: a span's begin always precedes its end, and a sid-``n`` begin
    precedes a sid-``m>n`` begin.  Histogram transitions are not
    retained in memory, so ``sample`` events appear only in streamed
    stores.
    """
    keyed: list[tuple[float, int, dict]] = []
    for span in obs.tracer.spans:
        keyed.append((span.t0, 2 * span.sid, _begin_event(span)))
        if span.t1 is not None:
            keyed.append(
                (
                    span.t1,
                    2 * span.sid + 1,
                    {"k": "end", "sid": span.sid, "t1": span.t1, "args": {}},
                )
            )
    base = 2 * len(obs.tracer.spans) + 2
    for i, inst in enumerate(obs.tracer.instants):
        keyed.append((inst.time, base + i, _instant_event(inst)))
    base += len(obs.tracer.instants)
    for i, edge in enumerate(obs.tracer.edges):
        keyed.append((edge.time, base + i, _edge_event(edge)))
    keyed.sort(key=lambda kv: (kv[0], kv[1]))
    return (ev for _, _, ev in keyed)


def load_tracer(
    source: Union[str, Path, Iterable[dict]],
    chunk_bytes: int = 1 << 16,
) -> SpanTracer:
    """Fold a store (path or event stream) back into a ``SpanTracer``.

    The reconstruction replays events in recorded order, so the result
    matches the live tracer bit-for-bit: same span list (ids, parents,
    tracks, times, args), same instants, same edges, and the same
    open-span stacks for any spans never closed.  The returned tracer's
    clock is pinned to the last timestamp seen, so ``last_time()``/
    exports behave as they would on the original.
    """
    if isinstance(source, (str, Path)):
        source = read_events(source, chunk_bytes=chunk_bytes)
    last_t = [0.0]
    tracer = SpanTracer(lambda: last_t[0])
    spans = tracer.spans
    for ev in source:
        kind = ev["k"]
        if kind == "begin":
            sid = ev["sid"]
            if sid != len(spans) + 1:
                raise ValueError(
                    f"store corrupt: begin sid {sid} after {len(spans)} spans"
                )
            if not 0 <= ev["parent"] < sid:
                raise ValueError(
                    f"store corrupt: span {sid} has parent {ev['parent']}, "
                    f"not an earlier span"
                )
            span = Span(
                sid,
                ev["parent"],
                ev["cat"],
                ev["name"],
                ev["track"],
                ev["t0"],
                None,
                ev["args"],
            )
            spans.append(span)
            tracer._open_by_track.setdefault(span.track, []).append(sid)
            last_t[0] = max(last_t[0], span.t0)
        elif kind == "end":
            sid = ev["sid"]
            if not 1 <= sid <= len(spans):
                raise ValueError(f"store corrupt: end of unknown span {sid}")
            span = spans[sid - 1]
            if span.t1 is not None:
                raise ValueError(f"store corrupt: span {sid} ended twice")
            span.t1 = ev["t1"]
            if ev["args"]:
                span.args.update(ev["args"])
            stack = tracer._open_by_track.get(span.track)
            if stack and sid in stack:
                stack.remove(sid)
            last_t[0] = max(last_t[0], span.t1)
        elif kind == "instant":
            tracer.instants.append(
                Instant(ev["t"], ev["cat"], ev["name"], ev["track"], ev["args"])
            )
            last_t[0] = max(last_t[0], ev["t"])
        elif kind == "edge":
            src, dst = ev["src"], ev["dst"]
            for sid in (src, dst):
                if not 1 <= sid <= len(spans):
                    raise ValueError(f"store corrupt: edge with unknown span {sid}")
            if src == dst:
                raise ValueError(f"store corrupt: edge from span {src} to itself")
            tracer.edges.append(
                Edge(ev["src"], ev["dst"], ev["kind"], ev["t"], ev["args"])
            )
            last_t[0] = max(last_t[0], ev["t"])
        elif kind != "sample":
            raise ValueError(f"store corrupt: unknown event kind {kind!r}")
    return tracer
