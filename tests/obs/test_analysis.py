"""Tests for the trace-DAG builder, critical-path walker, and what-ifs."""

import pytest

from repro.obs.analysis import (
    STAGES,
    TraceDAG,
    critical_path,
    phase_breakdown,
    span_slack,
    stage_of,
    what_if,
    what_if_table,
)
from repro.obs.observer import Observer
from repro.obs.perfetto import load_observers, trace_dict, trace_events
from repro.obs.tracer import NULL_TRACER, SpanTracer, TraceError


def _reloaded(obs, name):
    """The DAG of ``obs`` after a trip through a Perfetto trace."""
    ((loaded_name, loaded),) = load_observers(trace_dict([(name, obs)]))
    assert loaded_name == name
    return TraceDAG.from_tracer(loaded.tracer, name=name)


class Clock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock)


class TestEdges:
    def test_edge_records_src_dst_kind_time(self, tracer, clock):
        a = tracer.begin("c", "a")
        b = tracer.begin("c", "b")
        clock.t = 3.0
        tracer.edge(a, b, "shuffle", map_id=7)
        (edge,) = tracer.edges
        assert (edge.src, edge.dst, edge.kind, edge.time) == (a, b, "shuffle", 3.0)
        assert edge.args == {"map_id": 7}

    def test_zero_sid_is_noop(self, tracer):
        a = tracer.begin("c", "a")
        tracer.edge(0, a)
        tracer.edge(a, 0)
        assert tracer.edges == []

    def test_unknown_sid_raises(self, tracer):
        a = tracer.begin("c", "a")
        with pytest.raises(TraceError):
            tracer.edge(a, 99)
        with pytest.raises(TraceError):
            tracer.edge(99, a)

    def test_self_edge_raises(self, tracer):
        a = tracer.begin("c", "a")
        with pytest.raises(TraceError):
            tracer.edge(a, a)

    def test_null_tracer_ignores_edges(self):
        NULL_TRACER.edge(1, 2, "dep")
        assert NULL_TRACER.edges == ()

    def test_disabled_tracer_ignores_edges(self, clock):
        t = SpanTracer(clock)
        t.enabled = False
        t.edge(1, 2)
        assert t.edges == []


class TestStageOf:
    def test_hadoop_phases(self):
        assert stage_of("hadoop.map", "map3") == "map"
        assert stage_of("hadoop.reduce", "copy") == "copy"
        assert stage_of("hadoop.reduce", "sort") == "sort"
        assert stage_of("hadoop.reduce", "reduce") == "reduce"
        assert stage_of("hadoop.job", "wc") == "idle"

    def test_mpid_phases(self):
        assert stage_of("mpid.map", "map") == "map"
        assert stage_of("mpid.reduce", "recv") == "copy"
        assert stage_of("mpid.reduce", "merge") == "sort"
        assert stage_of("mpid.reduce", "write") == "reduce"

    def test_transport_counts_as_copy(self):
        assert stage_of("transport.jetty", "fetch r0<-n3") == "copy"

    def test_net_inherits_enclosing_stage(self):
        assert stage_of("net", "xfer a->b") is None


def _diamond(clock, tracer):
    """root [0,10]; map w1 [0,4]; copy w2 [2,9] waits on w1 (avail edge)
    and completes the job.  The canonical map-gates-copy shape."""
    root = tracer.begin("hadoop.job", "job", track="job")
    w1 = tracer.begin("hadoop.map", "map0", track="w1")
    clock.t = 2.0
    w2 = tracer.begin("hadoop.reduce", "copy", track="w2")
    clock.t = 4.0
    tracer.end(w1)
    tracer.edge(w1, w2, "avail")
    clock.t = 9.0
    tracer.edge(w2, root, "complete")
    tracer.end(w2)
    clock.t = 10.0
    tracer.end(root)
    return root, w1, w2


class TestCriticalPath:
    def test_blame_tiles_the_makespan(self, clock, tracer):
        _diamond(clock, tracer)
        dag = TraceDAG.from_tracer(tracer)
        cp = critical_path(dag)
        assert cp.makespan == pytest.approx(10.0)
        assert sum(cp.blame().values()) == pytest.approx(10.0)
        assert sum(cp.blame_pct().values()) == pytest.approx(100.0)

    def test_walk_descends_through_edges(self, clock, tracer):
        _diamond(clock, tracer)
        dag = TraceDAG.from_tracer(tracer)
        cp = critical_path(dag)
        blame = cp.blame()
        # job self [9,10] idle; copy self [4,9]; map [0,4] via avail edge.
        assert blame["idle"] == pytest.approx(1.0)
        assert blame["copy"] == pytest.approx(5.0)
        assert blame["map"] == pytest.approx(4.0)

    def test_pred_starting_before_parent_does_not_double_count(
        self, clock, tracer
    ):
        # A predecessor that begins before its dependent span's own start
        # must not make the walk re-cover the overlap (the >100% bug).
        root = tracer.begin("hadoop.job", "job", track="job")
        long_map = tracer.begin("hadoop.map", "map0", track="m")
        clock.t = 2.0
        late = tracer.begin("hadoop.reduce", "copy", track="r")
        clock.t = 8.0
        tracer.end(long_map)
        tracer.edge(long_map, late, "avail")
        clock.t = 9.0
        tracer.edge(late, root, "complete")
        tracer.end(late)
        clock.t = 10.0
        tracer.end(root)
        dag = TraceDAG.from_tracer(tracer)
        cp = critical_path(dag)
        assert sum(cp.blame().values()) == pytest.approx(10.0)
        assert sum(cp.blame_pct().values()) == pytest.approx(100.0)

    def test_childless_root_blames_itself(self, clock, tracer):
        tracer.begin("hadoop.job", "solo", track="t")
        clock.t = 5.0
        tracer.end(1)
        cp = critical_path(TraceDAG.from_tracer(tracer))
        assert cp.blame() == {"idle": pytest.approx(5.0)}

    def test_zero_length_child_does_not_stall_the_walk(self, clock, tracer):
        # A job dispatched the instant it was queued leaves a zero-length
        # span ending inside its parent; descending into it moves the walk
        # no further back, so picking it must not stall the walk.
        root = tracer.begin("hadoop.job", "job", track="t")
        clock.t = 5.0
        tracer.end(tracer.begin("tenant.queue", "q", track="t"))
        clock.t = 10.0
        tracer.end(root)
        cp = critical_path(TraceDAG.from_tracer(tracer))
        assert cp.blame() == {"idle": pytest.approx(10.0)}
        assert sum(cp.blame_pct().values()) == pytest.approx(100.0)


class TestSlack:
    def test_critical_spans_have_zero_slack(self, clock, tracer):
        root, w1, w2 = _diamond(clock, tracer)
        slack = span_slack(TraceDAG.from_tracer(tracer))
        assert slack[root] == pytest.approx(0.0)
        assert slack[w2] == pytest.approx(0.0)
        # w1 gates w2's last 5s, and w2 gates the job's last 1s: the
        # whole chain is tight, so w1 has zero slack too.
        assert slack[w1] == pytest.approx(0.0)

    def test_span_with_no_downstream_chain_has_slack(self, clock, tracer):
        root = tracer.begin("hadoop.job", "job", track="job")
        early = tracer.begin("hadoop.map", "early", track="e")
        clock.t = 1.0
        tracer.end(early)
        clock.t = 10.0
        tracer.end(root)
        slack = span_slack(TraceDAG.from_tracer(tracer))
        assert slack[early] == pytest.approx(9.0)


class TestWhatIf:
    def test_prediction_subtracts_stage_share(self, clock, tracer):
        _diamond(clock, tracer)
        cp = critical_path(TraceDAG.from_tracer(tracer))
        wi = what_if(cp, "copy", 0.5)
        assert wi.baseline_makespan == pytest.approx(10.0)
        assert wi.predicted_makespan == pytest.approx(10.0 - 0.5 * 5.0)
        assert wi.predicted_delta == pytest.approx(2.5)  # seconds saved

    def test_bad_pct_raises(self, clock, tracer):
        _diamond(clock, tracer)
        cp = critical_path(TraceDAG.from_tracer(tracer))
        with pytest.raises(ValueError):
            what_if(cp, "copy", 1.0)
        with pytest.raises(ValueError):
            what_if(cp, "copy", -0.1)

    def test_table_sorted_by_stage_share(self, clock, tracer):
        _diamond(clock, tracer)
        cp = critical_path(TraceDAG.from_tracer(tracer))
        rows = what_if_table(cp, pcts=(0.5,))
        assert rows[0].target == "copy"  # 5s on path, the biggest


class TestRoundTrip:
    """Tracer -> Perfetto JSON -> observer -> DAG must be lossless for analysis."""

    def _observer(self):
        clock = Clock()
        obs = Observer(clock=clock)
        return clock, obs

    def test_flow_events_carry_edges(self):
        clock, obs = self._observer()
        a = obs.tracer.begin("c", "a", track="t1")
        b = obs.tracer.begin("c", "b", track="t2")
        clock.t = 1.0
        obs.tracer.end(a)
        obs.tracer.edge(a, b, "shuffle", map_id=3)
        clock.t = 2.0
        obs.tracer.end(b)
        events = trace_events(obs, pid_name="sys")
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["name"] == "shuffle"
        assert starts[0]["args"]["src"] == a
        assert starts[0]["args"]["dst"] == b
        assert starts[0]["id"] == finishes[0]["id"]

    def test_dag_round_trip_preserves_spans_and_edges(self):
        clock, obs = self._observer()
        a = obs.tracer.begin("hadoop.map", "map0", track="t1")
        clock.t = 2.0
        obs.tracer.end(a)
        b = obs.tracer.begin("hadoop.reduce", "copy", track="t2")
        obs.tracer.edge(a, b, "avail")
        clock.t = 5.0
        obs.tracer.end(b)
        live = TraceDAG.from_tracer(obs.tracer, name="sys")
        rebuilt = _reloaded(obs, "sys")
        assert set(rebuilt.spans) == set(live.spans)
        for sid, span in live.spans.items():
            other = rebuilt.spans[sid]
            assert (other.category, other.name, other.parent) == (
                span.category, span.name, span.parent
            )
            assert other.t0 == pytest.approx(span.t0, abs=1e-6)
            assert other.t1 == pytest.approx(span.t1, abs=1e-6)
        assert rebuilt.edges == live.edges


class TestMinimalHadoopJob:
    """DAG reconstruction on a real 2-map/1-reduce WordCount."""

    @pytest.fixture(scope="class")
    def job(self):
        from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
        from repro.hadoop.simulation import HadoopSimulation
        from repro.util.units import MiB

        spec = JobSpec(
            name="tiny",
            input_bytes=128 * MiB,  # two 64 MB blocks -> two map tasks
            profile=WORDCOUNT_PROFILE,
            num_reduce_tasks=1,
        )
        sim = HadoopSimulation(spec=spec, config=HadoopConfig(), observe=True)
        metrics = sim.run()
        return sim, metrics

    def test_dag_has_both_maps_and_the_reduce(self, job):
        sim, _metrics = job
        dag = TraceDAG.from_tracer(sim.obs.tracer, name="hadoop")
        maps = [
            s for s in dag.spans.values()
            if s.category == "hadoop.map" and s.parent == 0
        ]
        reduces = [
            s for s in dag.spans.values()
            if s.category == "hadoop.reduce" and s.parent == 0
        ]
        assert len(maps) == 2
        assert len(reduces) == 1

    def test_shuffle_edges_link_maps_to_fetches(self, job):
        sim, _metrics = job
        dag = TraceDAG.from_tracer(sim.obs.tracer, name="hadoop")
        shuffle = [e for e in dag.edges if e[2] == "shuffle"]
        assert len(shuffle) == 2  # one per map output
        for src, dst, _kind in shuffle:
            assert dag.spans[src].category == "hadoop.map"
            assert dag.spans[dst].category == "transport.jetty"

    def test_blame_sums_to_100(self, job):
        sim, _metrics = job
        cp = critical_path(TraceDAG.from_tracer(sim.obs.tracer, name="hadoop"))
        assert sum(cp.blame_pct().values()) == pytest.approx(100.0)
        assert set(cp.blame()) <= set(STAGES)

    def test_phase_breakdown_matches_job_metrics(self, job):
        sim, metrics = job
        pb = phase_breakdown(TraceDAG.from_tracer(sim.obs.tracer, name="hadoop"))
        assert pb["system"] == "hadoop"
        assert pb["copy_pct"] == pytest.approx(
            100.0 * metrics.copy_fraction, abs=0.1
        )

    def test_perfetto_round_trip_keeps_the_critical_path(self, job):
        sim, _metrics = job
        live = TraceDAG.from_tracer(sim.obs.tracer, name="hadoop")
        rebuilt = _reloaded(sim.obs, "hadoop")
        b1 = critical_path(live).blame()
        b2 = critical_path(rebuilt).blame()
        assert set(b1) == set(b2)
        for stage, seconds in b1.items():
            assert b2[stage] == pytest.approx(seconds, abs=1e-3)
