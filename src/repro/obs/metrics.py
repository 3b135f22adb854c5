"""Metrics sampled in simulated time: counters and time-weighted stats.

Two metric kinds cover what the simulators need to report:

* :class:`Counter` — monotonically accumulated totals (bytes shuffled,
  heartbeats sent, messages injected);
* :class:`TimeWeightedHistogram` — statistics of a piecewise-constant
  signal weighted by how long each value held: link active-flow counts,
  slot occupancy, device queue depths.  ``set(3)`` at t=2 then ``set(0)``
  at t=5 contributes value 3 for three seconds; the mean is the time
  integral over the observation window, which is what "average queue
  depth" actually means (an arithmetic mean of the transition values
  would weight a microsecond blip like an hour-long plateau).

All metrics read the clock only when updated — they never schedule
simulator events, so measurement cannot perturb the simulation.  The
``Null*`` twins make disabled runs allocation-free.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


class Counter:
    """A float total plus the number of ``add`` calls."""

    __slots__ = ("name", "value", "events")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.events = 0

    def add(self, n: float = 1.0) -> None:
        self.value += n
        self.events += 1

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value, "events": self.events}


class TimeWeightedHistogram:
    """Time-weighted statistics of a piecewise-constant signal.

    The signal starts at 0 at construction time.  ``set``/``add`` move
    it; every moment between transitions is credited to the value that
    held.
    """

    __slots__ = (
        "name",
        "_clock",
        "_sink",
        "_t0",
        "_t",
        "value",
        "integral",
        "sq_integral",
        "vmin",
        "vmax",
        "value_seconds",
        "transitions",
    )

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        sink: Optional[list] = None,
    ):
        self.name = name
        self._clock = clock
        self._sink = sink if sink is not None else [None]
        self._t0 = self._t = clock()
        self.value = 0.0
        self.integral = 0.0
        self.sq_integral = 0.0
        self.vmin = 0.0
        self.vmax = 0.0
        #: Seconds the signal spent at each exact value — the full
        #: time-weighted distribution that :meth:`percentiles` reads.
        #: Bounded by the number of *distinct* values, which for the
        #: occupancy/queue-depth signals these track is small.
        self.value_seconds: dict[float, float] = {}
        self.transitions = 0

    def _accumulate(self, until: Optional[float] = None) -> None:
        now = self._clock() if until is None else until
        dt = now - self._t
        if dt > 0:
            self.integral += self.value * dt
            self.sq_integral += self.value * self.value * dt
            self.value_seconds[self.value] = (
                self.value_seconds.get(self.value, 0.0) + dt
            )
            self._t = now

    def set(self, value: float) -> None:
        self._accumulate()
        self.value = float(value)
        self.vmin = min(self.vmin, self.value)
        self.vmax = max(self.vmax, self.value)
        self.transitions += 1
        if self._sink[0] is not None:
            self._sink[0].on_sample(self.name, self._t, self.value)

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    # -- statistics -----------------------------------------------------------
    def elapsed(self, until: Optional[float] = None) -> float:
        now = self._clock() if until is None else until
        return now - self._t0

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean over the whole observation window."""
        now = self._clock() if until is None else until
        span = now - self._t0
        if span <= 0:
            return self.value
        tail = self.value * max(0.0, now - self._t)
        return (self.integral + tail) / span

    def percentiles(
        self,
        ps: Sequence[float] = (50.0, 95.0, 99.0),
        until: Optional[float] = None,
    ) -> dict[str, float]:
        """Time-weighted percentiles: ``p95`` is the smallest value the
        signal sat at or below for 95% of the observation window.

        This is the duration-weighted quantile of the piecewise-constant
        signal, not a quantile of the transition values — a microsecond
        spike to 40 does not move p50 the way an hour-long plateau at 3
        does.  Returns ``{"p50": v, ...}`` keyed by the (``:g``-formatted)
        requested percentiles.
        """
        self._accumulate(until)
        total = sum(self.value_seconds.values())
        out: dict[str, float] = {}
        if total <= 0:
            # Nothing observed for any duration yet: every percentile is
            # the current value.
            return {f"p{p:g}": self.value for p in ps}
        levels = sorted(self.value_seconds.items())
        for p in ps:
            need = total * min(max(p, 0.0), 100.0) / 100.0
            acc = 0.0
            result = levels[-1][0]
            for value, seconds in levels:
                acc += seconds
                if acc >= need - 1e-12 * total:
                    result = value
                    break
            out[f"p{p:g}"] = result
        return out

    def to_dict(self, until: Optional[float] = None) -> dict:
        pct = self.percentiles(until=until)
        return {
            "type": "histogram",
            "mean": self.mean(until),
            "min": self.vmin,
            "max": self.vmax,
            "p50": pct["p50"],
            "p95": pct["p95"],
            "p99": pct["p99"],
            "last": self.value,
            "transitions": self.transitions,
            # The full duration-weighted distribution, keyed by
            # repr(value) so the mapping survives a JSON round trip
            # losslessly.  Without it a snapshot (e.g. a trace-store
            # footer) cannot be re-aggregated: merged percentiles need
            # the distribution, not just its summary points.
            "value_seconds": {
                repr(v): s for v, s in sorted(self.value_seconds.items())
            },
        }


class MetricsRegistry:
    """Get-or-create home of every named metric in one simulation.

    ``sample_sink`` (default None) is an optional streaming listener
    with an ``on_sample(name, time, value)`` method, notified on every
    histogram transition.  The cell is shared with every metric at
    creation, so attaching a sink after metrics were handed out still
    streams their future samples.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self.enabled = True
        self._metrics: dict[str, object] = {}
        self._sample_cell: list = [None]

    @property
    def sample_sink(self):
        return self._sample_cell[0]

    @sample_sink.setter
    def sample_sink(self, sink) -> None:
        self._sample_cell[0] = sink

    def _get(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def histogram(self, name: str) -> TimeWeightedHistogram:
        return self._get(
            name,
            TimeWeightedHistogram,
            lambda: TimeWeightedHistogram(name, self._clock, self._sample_cell),
        )

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def to_dict(self, until: Optional[float] = None) -> dict:
        """JSON-serializable snapshot of every metric."""
        out = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, TimeWeightedHistogram):
                out[name] = metric.to_dict(until)
            else:
                out[name] = metric.to_dict()  # type: ignore[attr-defined]
        return out

    def rows(self, until: Optional[float] = None) -> tuple[list[str], list[list]]:
        """CSV-shaped dump: one row per metric with its headline stats."""
        header = ["metric", "type", "value", "mean", "min", "max",
                  "p50", "p95", "p99", "events"]
        rows: list[list] = []
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                rows.append(
                    [name, "counter", m.value, "", "", "", "", "", "", m.events]
                )
            else:
                assert isinstance(m, TimeWeightedHistogram)
                pct = m.percentiles(until=until)
                rows.append(
                    [name, "histogram", m.value, m.mean(until), m.vmin, m.vmax,
                     pct["p50"], pct["p95"], pct["p99"], m.transitions]
                )
        return header, rows


class _NullMetric:
    """Shared sink for every metric call on a disabled registry."""

    __slots__ = ()
    name = "null"
    value = 0.0
    events = 0
    vmin = 0.0
    vmax = 0.0
    transitions = 0

    def add(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def mean(self, until=None) -> float:
        return 0.0

    def elapsed(self, until=None) -> float:
        return 0.0

    def percentiles(self, ps=(50.0, 95.0, 99.0), until=None) -> dict:
        return {f"p{p:g}": 0.0 for p in ps}

    def to_dict(self, until=None) -> dict:
        return {}


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled registry: every lookup returns the shared no-op metric."""

    enabled = False
    sample_sink = None

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def names(self) -> list[str]:
        return []

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def to_dict(self, until=None) -> dict:
        return {}

    def rows(self, until=None) -> tuple[list[str], list[list]]:
        return ["metric", "type", "value", "mean", "min", "max",
                "p50", "p95", "p99", "events"], []


NULL_REGISTRY = NullRegistry()


# -- snapshot aggregation ------------------------------------------------------
#
# Trace-store footers carry ``MetricsRegistry.to_dict()`` snapshots, not
# live metric objects.  The fleet aggregator re-derives duration-weighted
# percentiles from the serialized ``value_seconds`` distributions so the
# numbers survive merging across stores — summary points (p50/p95/p99)
# alone cannot be combined.


def percentiles_from_value_seconds(
    value_seconds: dict,
    ps: Sequence[float] = (50.0, 95.0, 99.0),
) -> dict[str, float]:
    """Duration-weighted percentiles of a serialized distribution.

    Accepts the ``value_seconds`` mapping from
    :meth:`TimeWeightedHistogram.to_dict` (string keys, post-JSON) or a
    live ``value_seconds`` dict (float keys) — same algorithm as
    :meth:`TimeWeightedHistogram.percentiles`.
    """
    levels = sorted((float(v), float(s)) for v, s in value_seconds.items())
    total = sum(s for _, s in levels)
    if total <= 0:
        return {f"p{p:g}": 0.0 for p in ps}
    out: dict[str, float] = {}
    for p in ps:
        need = total * min(max(p, 0.0), 100.0) / 100.0
        acc = 0.0
        result = levels[-1][0]
        for value, seconds in levels:
            acc += seconds
            if acc >= need - 1e-12 * total:
                result = value
                break
        out[f"p{p:g}"] = result
    return out


def merge_histogram_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge serialized histogram snapshots into one aggregate snapshot.

    The merged ``value_seconds`` is the per-value sum of seconds across
    all inputs (concatenating observation windows), from which the
    duration-weighted mean and p50/p95/p99 are recomputed exactly.
    Snapshots missing ``value_seconds`` (pre-fix footers) contribute
    their min/max/transitions but no distribution mass.
    """
    merged: dict[float, float] = {}
    vmin = 0.0
    vmax = 0.0
    transitions = 0
    for snap in snapshots:
        vmin = min(vmin, float(snap.get("min", 0.0)))
        vmax = max(vmax, float(snap.get("max", 0.0)))
        transitions += int(snap.get("transitions", 0))
        for v, s in snap.get("value_seconds", {}).items():
            key = float(v)
            merged[key] = merged.get(key, 0.0) + float(s)
    total = sum(merged.values())
    mean = (
        sum(v * s for v, s in merged.items()) / total if total > 0 else 0.0
    )
    pct = percentiles_from_value_seconds(merged)
    return {
        "type": "histogram",
        "mean": mean,
        "min": vmin,
        "max": vmax,
        "p50": pct["p50"],
        "p95": pct["p95"],
        "p99": pct["p99"],
        "transitions": transitions,
        "total_seconds": total,
        "value_seconds": {repr(v): s for v, s in sorted(merged.items())},
    }


def snapshot_rows(metrics: dict) -> tuple[list[str], list[list]]:
    """:meth:`MetricsRegistry.rows`, but from a serialized snapshot.

    This is the fleet path: footers hold ``to_dict()`` output, not live
    metrics.  Histogram percentile columns are recomputed from the
    serialized distribution (falling back to the stored summary points),
    so they no longer render blank after aggregation.
    """
    header = ["metric", "type", "value", "mean", "min", "max",
              "p50", "p95", "p99", "events"]
    rows: list[list] = []
    for name in sorted(metrics):
        snap = metrics[name]
        kind = snap.get("type", "")
        if kind == "counter":
            rows.append([name, "counter", snap.get("value", 0.0),
                         "", "", "", "", "", "", snap.get("events", 0)])
        elif kind == "histogram":
            vs = snap.get("value_seconds")
            if vs:
                pct = percentiles_from_value_seconds(vs)
            else:
                pct = {f"p{p:g}": snap.get(f"p{p:g}", 0.0)
                       for p in (50.0, 95.0, 99.0)}
            rows.append([
                name, "histogram", snap.get("last", snap.get("value", 0.0)),
                snap.get("mean", 0.0), snap.get("min", 0.0),
                snap.get("max", 0.0), pct["p50"], pct["p95"], pct["p99"],
                snap.get("transitions", 0),
            ])
        else:  # unknown kind: carry the name through, blank stats
            rows.append([name, kind, "", "", "", "", "", "", "", ""])
    return header, rows
