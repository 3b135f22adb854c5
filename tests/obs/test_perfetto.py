"""Tests for the Chrome/Perfetto trace_event exporter, reader and validator."""

import json

import pytest

from repro.obs.manifest import RunManifest
from repro.obs.observer import Observer
from repro.obs.perfetto import (
    categories_in,
    load_observers,
    trace_dict,
    trace_events,
    validate_trace,
    write_trace,
)


class Clock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def observed():
    """An observer with one closed span, one open, an instant, a histogram."""
    clock = Clock()
    obs = Observer(clock=clock)
    done = obs.tracer.begin("net", "xfer", track="link0", nbytes=64)
    clock.t = 2.0
    obs.tracer.end(done)
    obs.tracer.begin("hadoop.map", "map0", track="attempt0")  # left open
    clock.t = 3.0
    obs.tracer.instant("fault", "crash", track="faults")
    obs.metrics.histogram("net.flows").set(2)
    return obs


class TestTraceEvents:
    def test_process_metadata_first(self, observed):
        events = trace_events(observed, pid=7, pid_name="hadoop")
        assert events[0] == {
            "ph": "M",
            "name": "process_name",
            "pid": 7,
            "tid": 0,
            "args": {"name": "hadoop"},
        }
        assert all(ev["pid"] == 7 for ev in events)

    def test_thread_metadata_per_track(self, observed):
        events = trace_events(observed)
        names = {
            ev["tid"]: ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert set(names.values()) == {"link0", "attempt0", "faults"}

    def test_span_timestamps_in_microseconds(self, observed):
        events = trace_events(observed)
        xfer = next(ev for ev in events if ev["ph"] == "X" and ev["name"] == "xfer")
        assert (xfer["ts"], xfer["dur"]) == (0.0, 2.0e6)
        assert xfer["args"]["nbytes"] == 64

    def test_open_span_closed_at_final_time_and_flagged(self, observed):
        events = trace_events(observed)
        map0 = next(ev for ev in events if ev["name"] == "map0")
        # Opened at t=2, trace ends at t=3 (the instant).
        assert map0["dur"] == pytest.approx(1.0e6)
        assert map0["args"]["unfinished"] is True

    def test_instant_and_counter_events(self, observed):
        events = trace_events(observed)
        inst = next(ev for ev in events if ev["ph"] == "i")
        assert (inst["name"], inst["s"]) == ("crash", "t")
        # Metrics are summaries, not time series: no counter track.
        assert [ev for ev in events if ev["ph"] == "C"] == []

    def test_deterministic(self, observed):
        assert trace_events(observed) == trace_events(observed)


class TestTraceDict:
    def test_single_observer_shorthand(self, observed):
        d = trace_dict(observed)
        assert d["displayTimeUnit"] == "ms"
        assert "otherData" not in d

    def test_multiple_observers_get_distinct_pids(self, observed):
        d = trace_dict([("hadoop", observed), ("mpid", observed)])
        assert {ev["pid"] for ev in d["traceEvents"]} == {1, 2}

    def test_manifest_object_is_serialized_into_other_data(self, observed):
        manifest = RunManifest(experiment="fig6", config={"size": "1GB"})
        d = trace_dict(observed, manifest=manifest)
        assert d["otherData"]["experiment"] == "fig6"
        json.dumps(d)  # the whole dict must be JSON-serializable


@pytest.fixture
def linked():
    """A finished job: nested spans with end args, an edge and an
    instant, at times the microsecond conversion keeps exact."""
    clock = Clock()
    obs = Observer(clock=clock)
    job = obs.tracer.begin("hadoop.job", "wc", track="job")
    m = obs.tracer.begin("hadoop.map", "map0", track="attempt0", node=3)
    clock.t = 1.5
    obs.tracer.end(m, won=True)
    r = obs.tracer.begin("hadoop.reduce", "copy", parent=job)
    obs.tracer.edge(m, r, "shuffle", nbytes=10)
    obs.tracer.instant("fault", "crash node3", track="faults", node=3)
    clock.t = 4.0
    obs.tracer.end(r)
    obs.tracer.end(job)
    return obs


class TestLoadObservers:
    def test_processes_come_back_in_pid_order(self, linked):
        loaded = load_observers(trace_dict([("mpid", linked), ("hadoop", linked)]))
        assert [name for name, _ in loaded] == ["mpid", "hadoop"]
        assert all(obs.sim is None for _, obs in loaded)

    def test_spans_edges_and_instants_round_trip(self, linked, tmp_path):
        path = write_trace([("hadoop", linked)], tmp_path / "trace.json")
        ((name, obs),) = load_observers(path)
        assert name == "hadoop"
        assert obs.tracer.spans == linked.tracer.spans
        assert obs.tracer.instants == linked.tracer.instants
        assert [(e.src, e.dst, e.kind, e.args) for e in obs.tracer.edges] == [
            (2, 3, "shuffle", {"nbytes": 10})
        ]
        assert obs.metrics.names() == []

    def test_counter_events_are_skipped(self, linked):
        trace = trace_dict([("hadoop", linked)])
        trace["traceEvents"].append(
            {"ph": "C", "name": "slots.in_use", "cat": "metrics", "ts": 1.5e6,
             "pid": 1, "args": {"in_use": 1.0}}
        )
        validate_trace(trace)
        ((_, obs),) = load_observers(trace)
        assert obs.tracer.spans == linked.tracer.spans
        assert obs.metrics.names() == []

    def test_reexport_writes_the_same_trace(self, linked):
        original = trace_dict([("hadoop", linked)])
        assert trace_dict(load_observers(original)) == original

    def test_unfinished_span_comes_back_closed_at_the_trace_end(self, observed):
        ((_, obs),) = load_observers(trace_dict(observed))
        map0 = obs.tracer.spans[1]
        assert (map0.name, map0.t0, map0.t1, map0.args) == ("map0", 2.0, 3.0, {})
        assert obs.tracer.open_spans() == []

    def test_trace_without_span_ids_is_refused(self, observed):
        events = trace_events(observed)
        for ev in events:
            if ev["ph"] == "X":
                del ev["args"]["sid"]
        with pytest.raises(ValueError, match="span-id"):
            load_observers({"traceEvents": events})


class TestValidateTrace:
    def test_round_trip_through_file(self, observed, tmp_path):
        path = write_trace(observed, tmp_path / "trace.json")
        events = validate_trace(path)
        assert categories_in(events) >= {"net", "hadoop.map", "fault"}

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no traceEvents"):
            validate_trace({"traceEvents": []})

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_trace({"traceEvents": [{"ph": "Z"}]})

    def test_missing_key_rejected(self):
        ev = {"ph": "X", "name": "s", "cat": "c", "ts": 0, "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="missing 'dur'"):
            validate_trace({"traceEvents": [ev]})

    def test_negative_duration_rejected(self):
        ev = {"ph": "X", "name": "s", "cat": "c", "ts": 0, "dur": -1,
              "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="negative duration"):
            validate_trace({"traceEvents": [ev]})


class TestSimulatedTraceDeterminism:
    def test_same_seed_same_trace(self):
        from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
        from repro.hadoop.simulation import HadoopSimulation
        from repro.util.units import MiB

        def trace():
            sim = HadoopSimulation(
                spec=JobSpec(
                    name="wc",
                    input_bytes=256 * MiB,
                    profile=WORDCOUNT_PROFILE,
                    num_reduce_tasks=1,
                ),
                config=HadoopConfig(map_slots=4, reduce_slots=4),
                seed=7,
                observe=True,
            )
            sim.run()
            return trace_events(sim.obs)

        assert trace() == trace()
