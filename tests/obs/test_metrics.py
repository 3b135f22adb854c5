"""Tests for counters, time-weighted histograms and the registry."""

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
    TimeWeightedHistogram,
)


class Clock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestCounter:
    def test_accumulates_value_and_events(self):
        c = Counter("bytes")
        c.add(10)
        c.add(5.5)
        c.add()
        assert c.value == 16.5
        assert c.events == 3
        assert c.to_dict() == {"type": "counter", "value": 16.5, "events": 3}


class TestTimeWeightedHistogram:
    def test_mean_is_time_weighted(self):
        # Value 0 for 2s, then 3 for 1s: mean = (0*2 + 3*1) / 3 = 1.0 —
        # an arithmetic mean of the transition values would say 1.5.
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        clock.t = 2.0
        h.set(3)
        clock.t = 3.0
        assert h.mean() == pytest.approx(1.0)
        assert h.elapsed() == 3.0

    def test_mean_includes_tail_since_last_transition(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.set(4)  # at t=0, never touched again
        clock.t = 10.0
        assert h.mean() == pytest.approx(4.0)

    def test_mean_at_explicit_until(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.set(2)
        clock.t = 100.0  # clock moved on, but evaluate at t=4
        assert h.mean(until=4.0) == pytest.approx(2.0)

    def test_add_is_relative_set(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.add(2)
        h.add(3)
        h.add(-4)
        assert h.value == 1.0
        assert (h.vmin, h.vmax) == (0.0, 5.0)
        assert h.transitions == 3

    def test_to_dict_shape(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        clock.t = 1.0
        h.set(2)
        clock.t = 2.0
        d = h.to_dict()
        assert d["type"] == "histogram"
        assert d["mean"] == pytest.approx(1.0)
        assert (d["min"], d["max"], d["last"], d["transitions"]) == (0.0, 2.0, 2.0, 1)

    def test_mean_with_zero_span_returns_current_value(self):
        h = TimeWeightedHistogram("q", Clock(5.0))
        h.set(3)
        assert h.mean() == 3.0


class TestPercentiles:
    def test_duration_weighted_quantiles(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.set(1)            # value 1 holds [0, 90)
        clock.t = 90.0
        h.set(10)           # value 10 holds [90, 96)
        clock.t = 96.0
        h.set(40)           # value 40 holds [96, 100)
        clock.t = 100.0
        pct = h.percentiles()
        # 90% of the window sat at 1, 6% at 10, 4% at 40.
        assert pct == {"p50": 1.0, "p95": 10.0, "p99": 40.0}

    def test_spike_does_not_move_p50(self):
        """A microsecond blip must not drag the median the way an
        arithmetic quantile of transition values would."""
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.set(3)
        clock.t = 50.0
        h.set(1000)         # blip: holds for 1e-6 s
        clock.t = 50.000001
        h.set(3)
        clock.t = 100.0
        pct = h.percentiles()
        assert pct["p50"] == 3.0
        assert pct["p99"] == 3.0

    def test_custom_percentile_list_and_keys(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.set(2)
        clock.t = 10.0
        # The signal only ever *held* 2 (the initial 0 lasted no time),
        # so every duration-weighted quantile — even p0 — is 2.
        assert h.percentiles(ps=(0.0, 100.0)) == {"p0": 2.0, "p100": 2.0}

    def test_no_elapsed_time_returns_current_value(self):
        h = TimeWeightedHistogram("q", Clock(3.0))
        h.set(7)
        assert h.percentiles() == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_exact_boundary_is_inclusive(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.set(1)            # [0, 50): exactly half the window
        clock.t = 50.0
        h.set(2)            # [50, 100): the other half
        clock.t = 100.0
        # p50 lands exactly on the cumulative edge of value 1.
        assert h.percentiles(ps=(50.0,))["p50"] == 1.0

    def test_to_dict_includes_percentiles(self):
        clock = Clock()
        h = TimeWeightedHistogram("q", clock)
        h.set(4)
        clock.t = 8.0
        d = h.to_dict()
        assert d["p50"] == 4.0 and d["p95"] == 4.0 and d["p99"] == 4.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry(Clock())
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry(Clock())
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_names_sorted_and_membership(self):
        reg = MetricsRegistry(Clock())
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "zzz" not in reg
        assert len(reg) == 2

    def test_to_dict_covers_every_kind(self):
        clock = Clock()
        reg = MetricsRegistry(clock)
        reg.counter("c").add(2)
        reg.histogram("h").set(4)
        clock.t = 2.0
        d = reg.to_dict()
        assert d["c"]["type"] == "counter"
        assert d["h"]["type"] == "histogram"

    def test_rows_shape(self):
        clock = Clock()
        reg = MetricsRegistry(clock)
        reg.counter("c").add(3)
        reg.histogram("h").set(1)
        clock.t = 1.0
        header, rows = reg.rows()
        assert header == ["metric", "type", "value", "mean", "min", "max",
                          "p50", "p95", "p99", "events"]
        assert [r[0] for r in rows] == ["c", "h"]
        assert all(len(r) == len(header) for r in rows)
        by_name = {r[0]: dict(zip(header, r)) for r in rows}
        # Counters have no duration-weighted distribution — their
        # percentile cells stay blank; histograms carry real values.
        assert by_name["c"]["p50"] == by_name["c"]["p95"] == ""
        assert by_name["h"]["p50"] == 1.0


class TestNullRegistry:
    def test_every_lookup_is_shared_noop(self):
        c = NULL_REGISTRY.counter("a")
        assert c is NULL_REGISTRY.counter("b") is NULL_REGISTRY.histogram("c")
        c.add(5)
        c.set(3)
        assert c.value == 0.0
        assert NULL_REGISTRY.to_dict() == {}
        assert len(NULL_REGISTRY) == 0
        assert not NULL_REGISTRY.enabled

    def test_rows_header_matches_live_registry(self):
        live_header, _ = MetricsRegistry(Clock()).rows()
        null_header, null_rows = NULL_REGISTRY.rows()
        assert null_header == live_header
        assert null_rows == []
