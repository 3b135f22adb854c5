"""JobTracker unit tests: assignment policy, announcement, slowstart."""

import pytest

from repro.hadoop.config import HadoopConfig
from repro.hadoop.hdfs import HdfsNamespace
from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
from repro.hadoop.jobtracker import JobTracker
from repro.util.units import MiB


def make_jt(input_mb=640, reducers=None, config=None, nodes=4, sched=None):
    config = config or HadoopConfig()
    hdfs = HdfsNamespace(
        list(range(1, nodes + 1)),
        block_size=config.block_size,
        replication=min(config.replication, nodes),
        seed=7,
    )
    f = hdfs.create_file("in", input_mb * MiB)
    spec = JobSpec(
        "t", input_bytes=input_mb * MiB, profile=JAVASORT_PROFILE,
        num_reduce_tasks=reducers,
    )
    return JobTracker(spec, config, f, num_workers=nodes, sched=sched)


class TestAssignment:
    def test_one_map_per_heartbeat(self):
        jt = make_jt()
        maps, reduces = jt.heartbeat(1, 8, 8, [], now=0.0)
        assert len(maps) == 1
        assert reduces == []  # slowstart not met

    def test_no_free_slots_no_assignment(self):
        jt = make_jt()
        maps, _ = jt.heartbeat(1, 0, 0, [], now=0.0)
        assert maps == []

    def test_locality_preferred(self):
        jt = make_jt()
        maps, _ = jt.heartbeat(2, 8, 8, [], now=0.0)
        assert maps[0].metrics.data_local

    def test_all_maps_eventually_assigned(self):
        jt = make_jt(input_mb=640)  # 10 maps
        assigned = []
        t = 0.0
        while len(assigned) < 10:
            for node in (1, 2, 3, 4):
                maps, _ = jt.heartbeat(node, 8, 8, [], now=t)
                assigned.extend(maps)
            t += 3.0
        assert sorted(m.task_id for m in assigned) == list(range(10))
        # Nothing more to hand out.
        maps, _ = jt.heartbeat(1, 8, 8, [], now=t)
        assert maps == []

    def test_maps_per_heartbeat_config(self):
        jt = make_jt(config=HadoopConfig(maps_per_heartbeat=4))
        maps, _ = jt.heartbeat(1, 8, 8, [], now=0.0)
        assert len(maps) == 4


class TestSlowstartAndReduces:
    def _complete_map(self, jt, node, now):
        maps, _ = jt.heartbeat(node, 8, 8, [], now=now)
        for m in maps:
            jt.map_finished(m, output_bytes=1000.0, now=now)
        return [m.task_id for m in maps]

    def test_reduces_wait_for_slowstart(self):
        jt = make_jt(input_mb=64 * 20)  # 20 maps, slowstart 5% -> 1 map
        assert not jt.reduces_may_start()
        done = self._complete_map(jt, 1, 0.0)
        # Completion not announced yet -> still gated.
        assert not jt.reduces_may_start()
        jt.heartbeat(1, 0, 0, done, now=3.0)
        assert jt.reduces_may_start()
        _, reduces = jt.heartbeat(2, 0, 8, [], now=3.5)
        assert len(reduces) == 1

    def test_zero_slowstart_starts_immediately(self):
        jt = make_jt(config=HadoopConfig(reduce_slowstart=0.0))
        _, reduces = jt.heartbeat(1, 0, 8, [], now=0.0)
        assert len(reduces) == 1

    def test_announcement_cursor_pages(self):
        jt = make_jt()
        done = self._complete_map(jt, 1, 0.0)
        jt.heartbeat(1, 0, 0, done, now=3.0)
        refs, cursor = jt.poll_map_outputs(0)
        assert len(refs) == 1
        assert refs[0].partition_bytes == pytest.approx(1000.0 / jt.num_reduces)
        refs2, cursor2 = jt.poll_map_outputs(cursor)
        assert refs2 == [] and cursor2 == cursor

    def test_visible_map_outputs_compat(self):
        jt = make_jt()
        done = self._complete_map(jt, 1, 0.0)
        jt.heartbeat(1, 0, 0, done, now=3.0)
        assert len(jt.visible_map_outputs(0)) == 1


class CountingSlots:
    """``JobSlots`` stand-in: grants up to ``cap`` slots but, like
    ``ClusterScheduler.budget``, never more than the free slots it is
    given; records every query."""

    def __init__(self, cap=100):
        self.cap = cap
        self.calls = []

    def map_budget(self, node_id, free):
        self.calls.append(("map", node_id, free))
        return max(0, min(free, self.cap))

    def reduce_budget(self, node_id, free):
        self.calls.append(("reduce", node_id, free))
        return max(0, min(free, self.cap))


class TestSharedClusterQuery:
    """On a shared cluster the JobTracker asks the slot facade itself,
    lazily: after announcing the beat's completions, and only for a kind
    it has a task to place."""

    def test_beat_crossing_slowstart_gets_its_reduce(self):
        slots = CountingSlots()
        jt = make_jt(input_mb=64 * 20, sched=slots)  # slowstart: 1 of 20 maps
        maps, _ = jt.heartbeat(1, 8, 8, [], now=0.0)
        jt.map_finished(maps[0], output_bytes=1000.0, now=1.0)
        assert not jt.reduces_may_start()
        # This beat's own report crosses slowstart: the reduce goes out on
        # the same beat, not the next one.
        _, reduces = jt.heartbeat(1, 8, 8, [maps[0].task_id], now=3.0)
        assert len(reduces) == 1
        assert ("reduce", 1, 8) in slots.calls

    def test_idle_beat_makes_no_budget_calls(self):
        slots = CountingSlots()
        jt = make_jt(
            input_mb=64,
            reducers=1,
            config=HadoopConfig(reduce_slowstart=0.0),
            sched=slots,
        )
        maps, reduces = jt.heartbeat(1, 8, 8, [], now=0.0)
        assert len(maps) == 1 and len(reduces) == 1
        slots.calls.clear()
        # No pending map and every reduce placed: nothing to ask for.
        assert jt.heartbeat(2, 8, 8, [], now=3.0) == ([], [])
        assert slots.calls == []

    def test_speculation_still_asks(self):
        slots = CountingSlots()
        jt = make_jt(
            input_mb=64,
            reducers=1,
            config=HadoopConfig(reduce_slowstart=0.0, speculative_execution=True),
            sched=slots,
        )
        jt.heartbeat(1, 8, 8, [], now=0.0)
        slots.calls.clear()
        jt.heartbeat(2, 8, 8, [], now=3.0)
        assert [c[0] for c in slots.calls] == ["map", "reduce"]

    @pytest.mark.parametrize("cap", [0, 2, 5])
    @pytest.mark.parametrize("free", [-1, 0, 2, 8])
    def test_grant_below_free_matches_min_formula(self, cap, free):
        """The budget is ``min(per_beat, max(0, grant))`` with ``grant``
        the facade's answer to the tracker's free slots: the facade can
        only lower what the tracker could take."""
        config = HadoopConfig(
            maps_per_heartbeat=4, reduces_per_heartbeat=4, reduce_slowstart=0.0
        )
        slots = CountingSlots(cap)
        jt = make_jt(input_mb=64 * 20, reducers=8, config=config, sched=slots)
        maps, reduces = jt.heartbeat(1, free, free, [], now=0.0)
        grant = max(0, min(free, cap))
        assert len(maps) == min(config.maps_per_heartbeat, grant)
        assert len(reduces) == min(config.reduces_per_heartbeat, grant)
        # The facade is handed the tracker's physical free slots.
        assert all(c[2] == free for c in slots.calls)


class TestCompletionBookkeeping:
    def test_job_done_after_all_reduces(self):
        jt = make_jt(input_mb=64, reducers=2, config=HadoopConfig(reduce_slowstart=0.0))
        maps, _ = jt.heartbeat(1, 8, 0, [], now=0.0)
        jt.map_finished(maps[0], 10.0, now=1.0)
        _, r1 = jt.heartbeat(1, 0, 8, [maps[0].task_id], now=3.0)
        _, r2 = jt.heartbeat(2, 0, 8, [], now=3.1)
        all_reduces = list(r1) + list(r2)
        assert len(all_reduces) == 2
        assert not jt.job_done
        for r in all_reduces:
            jt.reduce_finished(r)
        assert jt.job_done

    def test_second_finish_is_a_losing_attempt(self):
        jt = make_jt()
        maps, _ = jt.heartbeat(1, 8, 8, [], now=0.0)
        assert jt.map_finished(maps[0], 10.0, now=1.0) is True
        # A racing duplicate attempt loses silently (speculation semantics).
        assert jt.map_finished(maps[0], 10.0, now=2.0) is False
        assert jt.maps_completed == 1

    def test_map_phase_done_flag(self):
        jt = make_jt(input_mb=64)
        assert not jt.map_phase_done
        maps, _ = jt.heartbeat(1, 8, 8, [], now=0.0)
        jt.map_finished(maps[0], 10.0, now=1.0)
        assert jt.map_phase_done

    def test_empty_input_rejected(self):
        config = HadoopConfig()
        hdfs = HdfsNamespace([1], block_size=config.block_size, replication=1)
        f = hdfs.create_file("in", 0)
        spec = JobSpec("t", input_bytes=1, profile=JAVASORT_PROFILE)
        with pytest.raises(ValueError, match="no blocks"):
            JobTracker(spec, config, f, num_workers=1)
