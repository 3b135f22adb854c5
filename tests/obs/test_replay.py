"""Replay engine: frame conservation laws and live-vs-store agreement.

The replay fold is a lossy aggregation, but several quantities must
survive it exactly:

* a node's time-weighted slot occupancy can never exceed the slots the
  cluster was configured with (and the persisted peak is an integer
  count of real attempts);
* in-flight shuffle bytes return to zero when the job finishes — every
  byte that entered a link came out (or the flow was killed, which also
  closes its span);
* folding the live observer and folding the streamed store of the same
  run produce the same frames.
"""

import math

import pytest

from repro.obs.replay import (
    FRAME_STAGES,
    replay_events,
    replay_observer,
    replay_store,
)


@pytest.fixture(scope="module")
def hadoop_run(tmp_path_factory):
    """One observed 4-map/2-reduce WordCount, streamed to a store too."""
    from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
    from repro.hadoop.simulation import HadoopSimulation
    from repro.util.units import MiB

    spec = JobSpec(name="replay", input_bytes=256 * MiB,
                   profile=WORDCOUNT_PROFILE, num_reduce_tasks=2)
    config = HadoopConfig(map_slots=2, reduce_slots=2)
    sim = HadoopSimulation(spec=spec, config=config, observe=True)
    store = tmp_path_factory.mktemp("replay") / "run.store.jsonl"
    with sim.obs.stream_to(store, system="hadoop"):
        sim.run()
    return sim, config, store


class TestConservation:
    def test_occupancy_never_exceeds_configured_slots(self, hadoop_run):
        sim, config, _store = hadoop_run
        r = replay_observer(sim.obs, system="hadoop", buckets=60)
        for f in r.frames:
            for node, occ in f.node_map.items():
                assert occ <= config.map_slots + 1e-9, (f.index, node)
            for node, occ in f.node_reduce.items():
                assert occ <= config.reduce_slots + 1e-9, (f.index, node)
        for node, peaks in r.max_occupancy.items():
            assert peaks.get("map", 0) <= config.map_slots
            assert peaks.get("reduce", 0) <= config.reduce_slots
            for peak in peaks.values():
                assert peak == int(peak)  # whole attempts, not fractions

    def test_inflight_bytes_return_to_zero_at_job_end(self, hadoop_run):
        sim, _config, _store = hadoop_run
        r = replay_observer(sim.obs, system="hadoop", buckets=60)
        assert r.final_inflight_bytes == 0.0
        assert r.total_bytes_delivered > 0
        # The last frame carries the final cumulative total, and the
        # cumulative series never decreases.
        deliveries = [f.bytes_delivered for f in r.frames]
        assert deliveries == sorted(deliveries)
        assert math.isclose(deliveries[-1], r.total_bytes_delivered)

    def test_flow_matrix_endpoints_are_known_nodes(self, hadoop_run):
        sim, _config, _store = hadoop_run
        r = replay_observer(sim.obs, system="hadoop", buckets=60)
        nodes = set(r.nodes)
        assert nodes  # the run shuffled something
        for f in r.frames:
            for pair, nbytes in f.flows.items():
                src, dst = pair.split(">")
                assert src in nodes and dst in nodes
                assert nbytes >= 0
            for link, util in f.links.items():
                assert link in r.links
                assert 0.0 <= util <= 1.0

    def test_stage_mix_covers_all_stages(self, hadoop_run):
        sim, _config, _store = hadoop_run
        r = replay_observer(sim.obs, system="hadoop", buckets=60)
        seen = {s for f in r.frames for s, v in f.stages.items() if v > 0}
        assert seen == set(FRAME_STAGES)
        # Frames are contiguous and cover [0, t_end].
        assert r.frames[0].t0 == 0.0
        assert math.isclose(r.frames[-1].t1, r.t_end)
        for a, b in zip(r.frames, r.frames[1:]):
            assert math.isclose(a.t1, b.t0)


def frames_approx_equal(a, b, *, skip=("samples",)):
    """Frame dicts equal up to float summation order (last-ulp ties)."""
    da, db = a.to_dict(), b.to_dict()
    assert set(da) == set(db)
    for key in da:
        if key in skip:
            continue
        va, vb = da[key], db[key]
        if isinstance(va, dict):
            assert set(va) == set(vb), key
            for k in va:
                assert va[k] == pytest.approx(vb[k]), (key, k)
        elif isinstance(va, float):
            assert va == pytest.approx(vb), key
        else:
            assert va == vb, key


class TestLiveVsStore:
    def test_store_replay_matches_live_replay(self, hadoop_run):
        sim, _config, store = hadoop_run
        live = replay_observer(sim.obs, system="hadoop", buckets=48)
        # Small chunks exercise the O(chunk) read path on a real trace.
        streamed = replay_store(store, buckets=48, chunk_bytes=2048)
        assert streamed.system == "hadoop"
        assert streamed.t_end == live.t_end
        assert streamed.nodes == live.nodes
        assert streamed.links == live.links
        assert streamed.max_occupancy == live.max_occupancy
        assert streamed.spans_seen == live.spans_seen
        assert streamed.final_inflight_bytes == pytest.approx(
            live.final_inflight_bytes, abs=1e-6)
        for fa, fb in zip(live.frames, streamed.frames):
            # `samples` legitimately differ: streamed stores carry
            # histogram transitions that live observers don't retain.
            frames_approx_equal(fa, fb)

    def test_streamed_store_carries_histogram_samples(self, hadoop_run):
        _sim, _config, store = hadoop_run
        streamed = replay_store(store, buckets=48)
        sampled = set()
        for f in streamed.frames:
            sampled.update(f.samples)
        assert sampled  # at least link/slot occupancy histograms streamed

    def test_unclosed_store_needs_explicit_t_end(self, tmp_path):
        path = tmp_path / "open.jsonl"
        path.write_text('{"k":"header","version":1,"system":"x"}\n')
        with pytest.raises(ValueError, match="no footer"):
            replay_store(path)
        r = replay_store(path, t_end=10.0, buckets=5)
        assert len(r.frames) == 5
        assert r.t_end == 10.0


class TestSyntheticFolds:
    """Hand-built event streams with exactly known aggregates."""

    def test_time_weighted_occupancy_mean(self):
        events = [
            {"k": "begin", "sid": 1, "parent": 0, "cat": "hadoop.map",
             "name": "map0", "track": "a", "t0": 0.0, "args": {"node": 1}},
            {"k": "end", "sid": 1, "t1": 5.0, "args": {}},
        ]
        r = replay_events(events, t_end=10.0, buckets=10)
        # One map attempt on node1 for [0, 5): frames 0-4 fully occupied.
        for f in r.frames[:5]:
            assert f.node_map == {"node1": pytest.approx(1.0)}
        for f in r.frames[5:]:
            assert f.node_map == {}
        assert r.max_occupancy == {"node1": {"map": 1.0}}

    def test_partial_bucket_overlap_is_fractional(self):
        events = [
            {"k": "begin", "sid": 1, "parent": 0, "cat": "mpid.map",
             "name": "mapper1", "track": "a", "t0": 2.5, "args": {"node": 0}},
            {"k": "end", "sid": 1, "t1": 7.5, "args": {}},
        ]
        r = replay_events(events, t_end=10.0, buckets=2)
        # Buckets [0,5) and [5,10): the span covers half of each.
        assert r.frames[0].node_map["node0"] == pytest.approx(0.5)
        assert r.frames[1].node_map["node0"] == pytest.approx(0.5)

    def test_flow_accounting(self):
        events = [
            {"k": "begin", "sid": 1, "parent": 0, "cat": "net",
             "name": "xfer node1.up->node2.down", "track": "f", "t0": 0.0,
             "args": {"nbytes": 1000}},
            {"k": "end", "sid": 1, "t1": 4.0, "args": {}},
        ]
        r = replay_events(events, t_end=8.0, buckets=2)
        f0, f1 = r.frames
        assert f0.flows == {"node1>node2": pytest.approx(1000.0)}
        assert f0.links == {"node1.up": pytest.approx(1.0),
                            "node2.down": pytest.approx(1.0)}
        assert f0.inflight_bytes == pytest.approx(1000.0)
        assert f1.flows == {}
        assert f1.bytes_delivered == pytest.approx(1000.0)
        assert r.final_inflight_bytes == 0.0
        assert r.total_bytes_delivered == pytest.approx(1000.0)
        assert r.nodes == ["node1", "node2"]

    def test_markers_capped_but_counted(self):
        events = [
            {"k": "instant", "t": 0.5, "cat": "fault", "name": f"crash {i}",
             "track": "faults", "args": {}}
            for i in range(150)
        ]
        r = replay_events(events, t_end=1.0, buckets=1)
        f = r.frames[0]
        assert f.marker_count == 150
        assert len(f.markers) == 100  # MARKERS_PER_FRAME cap
        assert r.total_markers == 150

    def test_sample_series_limit_drops_and_reports(self):
        events = [
            {"k": "sample", "m": f"metric{i}", "t": 0.1, "v": float(i)}
            for i in range(10)
        ]
        r = replay_events(events, t_end=1.0, buckets=1,
                          sample_series_limit=3)
        assert len(r.frames[0].samples) == 3
        assert len(r.samples_dropped) == 7

    def test_edges_leave_the_frames_untouched(self):
        span = [
            {"k": "begin", "sid": 1, "parent": 0, "cat": "hadoop.map",
             "name": "map0", "track": "a", "t0": 0.2, "args": {"node": 1}},
            {"k": "end", "sid": 1, "t1": 1.0, "args": {}},
        ]
        edge = {"k": "edge", "src": 1, "dst": 2, "kind": "dep", "t": 0.9,
                "args": {}}
        plain = replay_events(span, t_end=1.0, buckets=1)
        with_edge = replay_events([span[0], edge, span[1]], t_end=1.0, buckets=1)
        # (0.9 - 0.2) + (1.0 - 0.9) is not 1.0 - 0.2 in floats: a fold
        # that moved its clock to the edge would split the sum.
        assert with_edge.to_dict() == plain.to_dict()
        assert plain.frames[0].node_map == {"node1": 0.8}


class TestPerfettoReplay:
    def test_trace_json_replays_per_process(self, tmp_path):
        from repro.obs.cli import main as trace_main

        trace = tmp_path / "t.json"
        assert trace_main(["fig6", "--size", "64MB",
                           "--trace-out", str(trace)]) == 0
        from repro.obs.perfetto import load_observers

        replays = {
            name: replay_observer(obs, system=name, buckets=30)
            for name, obs in load_observers(trace)
        }
        assert set(replays) == {"hadoop", "mpid"}
        for r in replays.values():
            assert r.spans_seen > 0
            assert r.final_inflight_bytes == pytest.approx(0.0, abs=1e-6)
