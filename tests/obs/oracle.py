"""Test oracle for :mod:`repro.obs.store`: the dict-per-line writer.

:class:`JsonStoreWriter` is :class:`~repro.obs.store.TraceStoreWriter`
as it was before the hot line kinds got templates: every event becomes a
dict and one ``json.dumps(obj, separators=(",", ":"))`` call, header and
footer included.  The production writer must write the same file byte
for byte, whatever the event values are.
"""

from __future__ import annotations

import json

from repro.obs.store import TraceStoreWriter
from repro.obs.tracer import Edge, Instant, Span


class JsonStoreWriter(TraceStoreWriter):
    """:class:`TraceStoreWriter` with a dict and ``json.dumps`` per line."""

    def _write(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")))
        self._fh.write("\n")

    def _event(self, obj: dict) -> None:
        if self.events % self.index_every == 0:
            self._index.append([self.events, self._fh.tell()])
        self.events += 1
        self.counts[obj["k"]] += 1
        self._write(obj)

    def on_begin(self, span: Span) -> None:
        self._event(
            {
                "k": "begin",
                "sid": span.sid,
                "parent": span.parent,
                "cat": span.category,
                "name": span.name,
                "track": span.track,
                "t0": span.t0,
                "args": span.args,
            }
        )

    def on_end(self, sid: int, t1: float, args: dict) -> None:
        self._event({"k": "end", "sid": sid, "t1": t1, "args": args})

    def on_instant(self, inst: Instant) -> None:
        self._event(
            {
                "k": "instant",
                "t": inst.time,
                "cat": inst.category,
                "name": inst.name,
                "track": inst.track,
                "args": inst.args,
            }
        )

    def on_edge(self, edge: Edge) -> None:
        self._event(
            {
                "k": "edge",
                "src": edge.src,
                "dst": edge.dst,
                "kind": edge.kind,
                "t": edge.time,
                "args": edge.args,
            }
        )

    def on_sample(self, name: str, t: float, value: float) -> None:
        self._event({"k": "sample", "m": name, "t": t, "v": value})
