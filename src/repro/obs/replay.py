"""Replay engine: fold a trace event stream into time-bucketed frames.

The paper's argument is visual-temporal — Figure 1's shuffle anatomy and
Table I's copy-stage dominance are claims about *when* slots, links and
stages are busy.  A :class:`Replay` answers those questions as pure
data: the run's timeline is cut into equal buckets and each
:class:`ReplayFrame` carries, for its slice of simulated time,

* per-node **map/reduce slot occupancy** (time-weighted mean over the
  bucket, from task-attempt spans);
* per-link **utilization** (fraction of the bucket the link carried at
  least one flow) and the **in-flight shuffle byte matrix** (src node ->
  dst node, time-weighted mean, from ``net`` spans);
* the **stage mix** (how many map / copy / sort / reduce phases were
  live) plus active ``hdfs.repair`` streams;
* per-tenant **running-job occupancy** (time-weighted mean, from the
  multi-tenant engine's ``tenant.job`` spans);
* **markers** — fault, HDFS and tenant (preempt/shed) instants that
  fired in the bucket;
* cumulative counters (bytes delivered) and, for streamed stores, the
  last value of each sampled metric.

Frames are plain data usable headlessly (the conservation tests and the
HTML dashboard both consume them).  The fold is single-pass and keeps
only the open-span state plus the frame accumulators, so replaying a
streamed store through :func:`repro.obs.store.read_events` peaks at
O(chunk) resident events, never O(trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.obs.analysis import stage_of

#: Stage-mix keys every frame carries, in display order.
FRAME_STAGES = ("map", "copy", "sort", "reduce")

#: Categories whose *attempt* spans (parent == 0) occupy a task slot.
_MAP_CATS = ("hadoop.map", "mpid.map")
_REDUCE_CATS = ("hadoop.reduce", "mpid.reduce")

#: Instant categories surfaced as frame markers.
_MARKER_PREFIXES = ("fault", "hdfs.", "tenant.")

#: Markers kept verbatim per frame; the count is always exact.
MARKERS_PER_FRAME = 100


@dataclass
class ReplayFrame:
    """One bucket of simulated time, aggregated for playback."""

    index: int
    t0: float
    t1: float
    #: node -> time-weighted mean occupied map / reduce slots.
    node_map: dict = field(default_factory=dict)
    node_reduce: dict = field(default_factory=dict)
    #: link -> fraction of the bucket with >= 1 active flow.
    links: dict = field(default_factory=dict)
    #: "src>dst" -> time-weighted mean in-flight bytes.
    flows: dict = field(default_factory=dict)
    #: stage -> time-weighted mean live phase count.
    stages: dict = field(default_factory=dict)
    #: tenant -> time-weighted mean running jobs (multi-tenant runs only).
    tenants: dict = field(default_factory=dict)
    #: time-weighted mean of total in-flight bytes / active repair streams.
    inflight_bytes: float = 0.0
    repairs: float = 0.0
    #: cumulative delivered bytes at the frame's end.
    bytes_delivered: float = 0.0
    #: fault/HDFS instants in this bucket (capped; count is exact).
    markers: list = field(default_factory=list)
    marker_count: int = 0
    #: last sampled value per streamed metric (forward-filled).
    samples: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "t0": self.t0,
            "t1": self.t1,
            "node_map": self.node_map,
            "node_reduce": self.node_reduce,
            "links": self.links,
            "flows": self.flows,
            "stages": self.stages,
            "tenants": self.tenants,
            "inflight_bytes": self.inflight_bytes,
            "repairs": self.repairs,
            "bytes_delivered": self.bytes_delivered,
            "markers": self.markers,
            "marker_count": self.marker_count,
            "samples": self.samples,
        }


@dataclass
class Replay:
    """A whole run, folded into frames plus run-level aggregates."""

    system: str
    t_end: float
    bucket_dt: float
    frames: list[ReplayFrame]
    nodes: list[str]
    links: list[str]
    #: node -> {"map": peak, "reduce": peak} persisted occupancy (dt > 0).
    max_occupancy: dict
    #: in-flight bytes left when the stream ended (0 for a finished job).
    final_inflight_bytes: float
    total_bytes_delivered: float
    total_markers: int
    spans_seen: int
    #: metrics whose sample series were dropped by ``sample_series_limit``.
    samples_dropped: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "t_end": self.t_end,
            "bucket_dt": self.bucket_dt,
            "nodes": self.nodes,
            "links": self.links,
            "max_occupancy": self.max_occupancy,
            "final_inflight_bytes": self.final_inflight_bytes,
            "total_bytes_delivered": self.total_bytes_delivered,
            "total_markers": self.total_markers,
            "spans_seen": self.spans_seen,
            "samples_dropped": self.samples_dropped,
            "frames": [f.to_dict() for f in self.frames],
        }


def _node_of_link(link: str) -> str:
    """``node3.up`` -> ``node3`` (a link is one node's up/down pipe)."""
    return link.rsplit(".", 1)[0]


def _flow_endpoints(route: str) -> Optional[tuple[str, str, list[str]]]:
    """Parse a ``net`` span name ``xfer a.up->b.down`` into (src, dst, links)."""
    if not route.startswith("xfer "):
        return None
    links = route[len("xfer "):].split("->")
    if not links:
        return None
    return _node_of_link(links[0]), _node_of_link(links[-1]), links


class _Fold:
    """Single-pass accumulator state for :func:`replay_events`."""

    def __init__(self, t_end: float, buckets: int, sample_series_limit: int):
        self.t_end = t_end
        self.n = buckets
        self.dt = (t_end / buckets) if t_end > 0 else 1.0
        self.limit = sample_series_limit
        self.last_t = 0.0
        # Open-span roles (the only per-event state that persists).
        self.roles: dict[int, tuple] = {}
        # Instantaneous state.
        self.occ: dict[tuple[str, str], int] = {}
        self.stage_now: dict[str, int] = dict.fromkeys(FRAME_STAGES, 0)
        self.tenant_now: dict[str, int] = {}
        self.link_active: dict[str, int] = {}
        self.pair_bytes: dict[str, float] = {}
        self.inflight = 0.0
        self.repairs_now = 0
        self.delivered = 0.0
        self.spans_seen = 0
        # Per-bucket accumulators (seconds-weighted).
        self.occ_acc: dict[tuple[str, str], list[float]] = {}
        self.stage_acc = {s: [0.0] * buckets for s in FRAME_STAGES}
        self.tenant_acc: dict[str, list[float]] = {}
        self.link_acc: dict[str, list[float]] = {}
        self.pair_acc: dict[str, list[float]] = {}
        self.inflight_acc = [0.0] * buckets
        self.repair_acc = [0.0] * buckets
        self.delivered_at = [0.0] * buckets
        self.markers: list[list[dict]] = [[] for _ in range(buckets)]
        self.marker_counts = [0] * buckets
        self.sample_series: dict[str, list[Optional[float]]] = {}
        self.samples_dropped: set[str] = set()
        self.max_occ: dict[tuple[str, str], float] = {}

    # -- time ------------------------------------------------------------------
    def bucket_of(self, t: float) -> int:
        return min(self.n - 1, max(0, int(t / self.dt)))

    def _spread(self, t0: float, t1: float):
        """Yield (bucket, overlap_seconds) for the interval [t0, t1)."""
        b0, b1 = self.bucket_of(t0), self.bucket_of(t1)
        for b in range(b0, b1 + 1):
            lo = max(t0, b * self.dt)
            hi = min(t1, (b + 1) * self.dt if b < self.n - 1 else self.t_end)
            if hi > lo:
                yield b, hi - lo

    def advance(self, t: float) -> None:
        """Credit the held state for (last_t, t), then move the clock."""
        t = min(t, self.t_end) if self.t_end > 0 else t
        if t <= self.last_t:
            return
        spread = list(self._spread(self.last_t, t))
        for key, count in self.occ.items():
            if count:
                acc = self.occ_acc.setdefault(key, [0.0] * self.n)
                for b, o in spread:
                    acc[b] += count * o
                peak = self.max_occ.get(key, 0.0)
                if count > peak:
                    self.max_occ[key] = float(count)
        for stage, count in self.stage_now.items():
            if count:
                acc = self.stage_acc[stage]
                for b, o in spread:
                    acc[b] += count * o
        for tenant, count in self.tenant_now.items():
            if count:
                acc = self.tenant_acc.setdefault(tenant, [0.0] * self.n)
                for b, o in spread:
                    acc[b] += count * o
        for link, count in self.link_active.items():
            if count:
                acc = self.link_acc.setdefault(link, [0.0] * self.n)
                for b, o in spread:
                    acc[b] += o
        for pair, nbytes in self.pair_bytes.items():
            if nbytes:
                acc = self.pair_acc.setdefault(pair, [0.0] * self.n)
                for b, o in spread:
                    acc[b] += nbytes * o
        if self.inflight:
            for b, o in spread:
                self.inflight_acc[b] += self.inflight * o
        if self.repairs_now:
            for b, o in spread:
                self.repair_acc[b] += self.repairs_now * o
        for b, _ in spread:
            self.delivered_at[b] = self.delivered
        self.last_t = t

    # -- events ----------------------------------------------------------------
    def on_begin(self, ev: dict) -> None:
        self.spans_seen += 1
        cat, name, parent = ev["cat"], ev["name"], ev["parent"]
        args = ev.get("args") or {}
        role: Optional[tuple] = None
        if parent == 0 and "node" in args and cat in _MAP_CATS:
            role = ("slot", f"node{args['node']}", "map")
        elif parent == 0 and "node" in args and cat in _REDUCE_CATS:
            role = ("slot", f"node{args['node']}", "reduce")
        elif cat == "net":
            parsed = _flow_endpoints(name)
            if parsed is not None:
                src, dst, links = parsed
                role = ("flow", src, dst, float(args.get("nbytes", 0.0)), links)
        elif cat == "hdfs.repair":
            role = ("repair",)
        elif cat == "tenant.job":
            tenant = args.get("tenant")
            if tenant is None:
                track = ev.get("track") or ""
                tenant = track.split(":", 1)[1] if ":" in track else ""
            if tenant:
                role = ("tenant", str(tenant))
        elif parent != 0:
            stage = stage_of(cat, name)
            if stage in FRAME_STAGES:
                role = ("stage", stage)
        if role is None:
            return
        self.roles[ev["sid"]] = role
        kind = role[0]
        if kind == "slot":
            key = (role[1], role[2])
            self.occ[key] = self.occ.get(key, 0) + 1
        elif kind == "stage":
            self.stage_now[role[1]] += 1
        elif kind == "tenant":
            self.tenant_now[role[1]] = self.tenant_now.get(role[1], 0) + 1
        elif kind == "repair":
            self.repairs_now += 1
        else:  # flow
            _, src, dst, nbytes, links = role
            pair = f"{src}>{dst}"
            self.pair_bytes[pair] = self.pair_bytes.get(pair, 0.0) + nbytes
            self.inflight += nbytes
            for link in links:
                self.link_active[link] = self.link_active.get(link, 0) + 1

    def on_end(self, ev: dict) -> None:
        role = self.roles.pop(ev["sid"], None)
        if role is None:
            return
        kind = role[0]
        if kind == "slot":
            key = (role[1], role[2])
            self.occ[key] = self.occ.get(key, 0) - 1
        elif kind == "stage":
            self.stage_now[role[1]] -= 1
        elif kind == "tenant":
            self.tenant_now[role[1]] -= 1
        elif kind == "repair":
            self.repairs_now -= 1
        else:
            _, src, dst, nbytes, links = role
            pair = f"{src}>{dst}"
            self.pair_bytes[pair] = self.pair_bytes.get(pair, 0.0) - nbytes
            self.inflight -= nbytes
            self.delivered += nbytes
            for link in links:
                self.link_active[link] = self.link_active.get(link, 0) - 1

    def on_instant(self, ev: dict) -> None:
        cat = ev["cat"]
        if not any(
            cat == p or cat.startswith(p) for p in _MARKER_PREFIXES
        ):
            return
        b = self.bucket_of(ev["t"])
        self.marker_counts[b] += 1
        if len(self.markers[b]) < MARKERS_PER_FRAME:
            self.markers[b].append(
                {"t": ev["t"], "cat": cat, "name": ev["name"]}
            )

    def on_sample(self, ev: dict) -> None:
        name = ev["m"]
        series = self.sample_series.get(name)
        if series is None:
            if len(self.sample_series) >= self.limit:
                self.samples_dropped.add(name)
                return
            series = self.sample_series[name] = [None] * self.n
        series[self.bucket_of(ev["t"])] = ev["v"]


def replay_events(
    events: Iterable[dict],
    t_end: float,
    system: str = "sim",
    buckets: int = 120,
    sample_series_limit: int = 32,
) -> Replay:
    """Fold an event stream (store-format dicts) into a :class:`Replay`.

    ``t_end`` fixes the bucket width up front so the fold stays single
    pass — take it from the store footer (:func:`replay_store` does),
    from ``Observer.final_time()``, or from the job's known makespan.
    """
    buckets = max(1, buckets)
    fold = _Fold(float(t_end), buckets, sample_series_limit)
    handlers = {
        "begin": fold.on_begin,
        "end": fold.on_end,
        "instant": fold.on_instant,
        "sample": fold.on_sample,
    }
    for ev in events:
        kind = ev["k"]
        if kind == "edge":
            # Edges change no folded state; advancing the clock to one
            # would only split the time-weighted sums at its time.
            continue
        t = ev.get("t0", ev.get("t1", ev.get("t", fold.last_t)))
        fold.advance(t)
        handlers[kind](ev)
    if fold.t_end > fold.last_t:
        fold.advance(fold.t_end)

    nodes = sorted(
        {key[0] for key in fold.occ_acc}
        | {p.split(">")[0] for p in fold.pair_acc}
        | {p.split(">")[1] for p in fold.pair_acc},
        key=lambda n: (len(n), n),
    )
    links = sorted(fold.link_acc)
    dt = fold.dt
    frames: list[ReplayFrame] = []
    last_samples: dict[str, float] = {}
    for b in range(buckets):
        for name, series in fold.sample_series.items():
            if series[b] is not None:
                last_samples[name] = series[b]
        frames.append(
            ReplayFrame(
                index=b,
                t0=b * dt,
                t1=min((b + 1) * dt, fold.t_end) if fold.t_end > 0 else (b + 1) * dt,
                node_map={
                    key[0]: acc[b] / dt
                    for key, acc in fold.occ_acc.items()
                    if key[1] == "map" and acc[b] > 0
                },
                node_reduce={
                    key[0]: acc[b] / dt
                    for key, acc in fold.occ_acc.items()
                    if key[1] == "reduce" and acc[b] > 0
                },
                links={
                    link: min(1.0, acc[b] / dt)
                    for link, acc in fold.link_acc.items()
                    if acc[b] > 0
                },
                flows={
                    pair: acc[b] / dt
                    for pair, acc in fold.pair_acc.items()
                    if acc[b] > 0
                },
                stages={s: fold.stage_acc[s][b] / dt for s in FRAME_STAGES},
                tenants={
                    tenant: acc[b] / dt
                    for tenant, acc in sorted(fold.tenant_acc.items())
                    if acc[b] > 0
                },
                inflight_bytes=fold.inflight_acc[b] / dt,
                repairs=fold.repair_acc[b] / dt,
                bytes_delivered=fold.delivered_at[b],
                markers=fold.markers[b],
                marker_count=fold.marker_counts[b],
                samples=dict(last_samples),
            )
        )
    # Forward-fill cumulative delivered bytes through empty buckets.
    running = 0.0
    for f in frames:
        running = max(running, f.bytes_delivered)
        f.bytes_delivered = running
    max_occupancy: dict[str, dict] = {}
    for (node, kind), peak in fold.max_occ.items():
        max_occupancy.setdefault(node, {})[kind] = peak
    return Replay(
        system=system,
        t_end=fold.t_end,
        bucket_dt=dt,
        frames=frames,
        nodes=nodes,
        links=links,
        max_occupancy=max_occupancy,
        final_inflight_bytes=fold.inflight,
        total_bytes_delivered=fold.delivered,
        total_markers=sum(fold.marker_counts),
        spans_seen=fold.spans_seen,
        samples_dropped=sorted(fold.samples_dropped),
    )


def replay_observer(
    obs, system: str = "sim", buckets: int = 120, **kw
) -> Replay:
    """Replay a live (finished) observer's recorded events."""
    from repro.obs.store import events_of

    return replay_events(
        events_of(obs), obs.final_time(), system=system, buckets=buckets, **kw
    )


def replay_store(
    path: Union[str, Path],
    buckets: int = 120,
    chunk_bytes: int = 1 << 16,
    t_end: Optional[float] = None,
    **kw,
) -> Replay:
    """Replay a streamed store file through the chunked reader.

    ``t_end`` defaults to the footer's ``final_time``; pass it
    explicitly to replay a store that was never closed.
    """
    from repro.obs.store import read_events, read_footer

    footer = read_footer(path)
    system = "sim"
    if footer is not None:
        system = footer.get("system", system)
    if t_end is None:
        if footer is None:
            raise ValueError(
                f"{path}: store has no footer (writer never closed); "
                "pass t_end= explicitly"
            )
        t_end = footer["final_time"]
    return replay_events(
        read_events(path, chunk_bytes=chunk_bytes),
        t_end,
        system=system,
        buckets=buckets,
        **kw,
    )
