"""ClusterScheduler unit tests: entitlements, budgets, gangs, preemption."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cluster import ClusterScheduler, QueueConfig, SchedulerConfig


def make_sched(policy="fair", queues=None, nodes=4, map_slots=4,
               reduce_slots=2, clock=None, **cfg):
    queues = queues or [QueueConfig(name="a"), QueueConfig(name="b")]
    return ClusterScheduler(
        SchedulerConfig(policy=policy, **cfg),
        queues,
        list(range(1, nodes + 1)),
        map_slots,
        reduce_slots,
        clock=clock or (lambda: 0.0),
    )


class TestEntitlements:
    def test_fair_splits_by_weight(self):
        sched = make_sched(
            queues=[
                QueueConfig(name="a", weight=3.0),
                QueueConfig(name="b", weight=1.0),
            ]
        )
        sched.register_job(1, "a")
        sched.register_job(2, "b")
        # 16 map slots total: a gets 12, b gets 4.
        assert sched.entitlement(1, "map") == pytest.approx(12.0)
        assert sched.entitlement(2, "map") == pytest.approx(4.0)

    def test_fair_splits_within_queue(self):
        sched = make_sched()
        sched.register_job(1, "a")
        sched.register_job(2, "a")
        # Queue a owns half the cluster while b is idle... but b has no
        # jobs, so a's weight is the whole active weight: 16 / 2 jobs.
        assert sched.entitlement(1, "map") == pytest.approx(8.0)

    def test_idle_queue_carries_no_weight(self):
        sched = make_sched()
        sched.register_job(1, "a")
        assert sched.entitlement(1, "map") == pytest.approx(16.0)

    def test_capacity_guarantee_and_ceiling(self):
        sched = make_sched(
            policy="capacity",
            queues=[
                QueueConfig(name="a", capacity=0.5, max_capacity=0.5),
                QueueConfig(name="b", capacity=0.25),
            ],
        )
        sched.register_job(1, "a")
        sched.register_job(2, "b")
        # a is pinned at its 0.5 ceiling; b gets its 0.25 guarantee plus
        # half the 0.25 spare (equal weights).
        assert sched.entitlement(1, "map") == pytest.approx(16 * 0.5)
        assert sched.entitlement(2, "map") == pytest.approx(16 * 0.375)

    def test_fifo_has_no_cap(self):
        sched = make_sched(policy="fifo")
        sched.register_job(1, "a")
        sched.register_job(2, "a")
        assert sched.entitlement(1, "map") == 16.0
        assert sched.budget(1, 1, "map", free=4) == 4


class TestEntitlementCache:
    QUEUES = [
        QueueConfig(name="a", weight=3.0, capacity=0.5),
        QueueConfig(name="b", weight=1.0, capacity=0.25),
    ]

    @pytest.mark.parametrize("policy", ["fair", "capacity", "fifo"])
    def test_registration_changes_invalidate(self, policy):
        """A cached entitlement read across register_job/job_finished
        must equal a fresh scheduler's for the same registrations."""

        def fresh(jobs):
            sched = make_sched(policy=policy, queues=self.QUEUES)
            for job_id, queue in jobs:
                sched.register_job(job_id, queue)
            return sched

        def check(jobs):
            ref = fresh(jobs)
            for kind in ("map", "reduce"):
                assert sched.entitlement(1, kind) == ref.entitlement(1, kind)
            return sched.entitlement(1, "map")

        sched = fresh([(1, "a")])
        alone = check([(1, "a")])
        sched.register_job(2, "b")
        shared = check([(1, "a"), (2, "b")])
        sched.job_finished(2)
        assert check([(1, "a")]) == alone
        # The registration really moves the fair and capacity shares.
        assert (shared == alone) == (policy == "fifo")

    def test_sums_follow_declaration_order_not_hash_order(self):
        """Weight and capacity sums over the active queues must not
        depend on PYTHONHASHSEED: 0.1 + 0.2 + 0.3 differs by one ulp
        between summation orders, which floors to 19 or 20 slots."""
        code = textwrap.dedent(
            """
            from repro.cluster import ClusterScheduler, QueueConfig, SchedulerConfig

            for policy in ("fair", "capacity"):
                queues = [
                    QueueConfig(name=name, weight=w, capacity=w)
                    for name, w in (("a", 0.1), ("b", 0.2), ("c", 0.3))
                ]
                sched = ClusterScheduler(
                    SchedulerConfig(policy=policy), queues, list(range(1, 11)), 4, 2
                )
                for job_id, queue in enumerate("abc"):
                    sched.register_job(job_id, queue)
                print(repr(sched.entitlement(2, "map")))
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "2")
        ]
        assert outs[0] == outs[1]


class TestBudget:
    def test_budget_is_capped_by_entitlement(self):
        sched = make_sched()
        sched.register_job(1, "a")
        sched.register_job(2, "b")  # entitlement: 8 each
        for _ in range(8):
            sched.task_started(1, 1, "map")
        assert sched.budget(1, 2, "map", free=4) == 0

    def test_ceil_guarantees_progress(self):
        """Twenty jobs on 16 slots: fractional entitlements still grant
        at least one task each (the no-starvation property)."""
        sched = make_sched(queues=[QueueConfig(name="a")])
        for jid in range(20):
            sched.register_job(jid, "a")
        for jid in range(20):
            assert sched.budget(jid, 1 + jid % 4, "map", free=4) >= 1

    def test_budget_respects_other_jobs_on_node(self):
        sched = make_sched()
        sched.register_job(1, "a")
        sched.register_job(2, "b")
        for _ in range(4):
            sched.task_started(1, 1, "map")  # node 1 physically full
        assert sched.budget(2, 1, "map", free=4) == 0
        assert sched.budget(2, 2, "map", free=4) > 0

    def test_unregistered_job_gets_nothing(self):
        sched = make_sched()
        assert sched.budget(99, 1, "map", free=4) == 0


class TestUsageLedgers:
    def test_finish_after_finalize_is_tolerated(self):
        sched = make_sched()
        sched.register_job(1, "a")
        sched.task_started(1, 1, "map")
        sched.job_finished(1)
        sched.task_finished(1, 1, "map")  # late callback: no-op
        assert sched._node_used[(1, "map")] == 0

    def test_job_finished_sweeps_residue(self):
        """A crashed node orphans task_started entries; deregistration
        must sweep them so the node's slots are not leaked forever."""
        sched = make_sched()
        sched.register_job(1, "a")
        sched.task_started(1, 2, "map")
        sched.task_started(1, 2, "map")
        sched.register_job(2, "b")
        sched.job_finished(1)  # job died without task_finished
        assert sched.budget(2, 2, "map", free=4) == 4

    def test_slot_seconds_integrate_over_time(self):
        t = [0.0]
        sched = make_sched(clock=lambda: t[0])
        sched.register_job(1, "a")
        sched.task_started(1, 1, "map")
        t[0] = 10.0
        sched.task_started(1, 1, "map")  # 1 slot for 10 s
        t[0] = 15.0
        sched.finalize()  # +2 slots for 5 s
        assert sched.slot_seconds["a"] == pytest.approx(20.0)
        assert sched.utilization("a", 15.0) == pytest.approx(
            20.0 / ((16 + 8) * 15.0)
        )


class TestGangs:
    def test_reserve_all_or_nothing(self):
        sched = make_sched()
        sched.register_job(1, "a")
        sched.task_started(1, 1, "map")
        sched.task_started(1, 1, "map")
        sched.register_job(2, "b")
        needs = {1: 3, 2: 2}  # node 1 only has 2 free
        assert sched.gang_shortfall(needs) == {1: 1}
        assert not sched.try_reserve(2, needs)
        # Nothing was booked by the failed attempt.
        assert sched.budget(1, 2, "map", free=4) > 0
        assert sched._jobs[2].usage["map"] == 0

    def test_reserve_books_and_releases(self):
        sched = make_sched()
        sched.register_job(1, "a")
        assert sched.try_reserve(1, {1: 4, 2: 2})
        assert sched._node_used[(1, "map")] == 4
        sched.job_finished(1)
        assert sched._node_used[(1, "map")] == 0

    def test_double_reserve_rejected(self):
        sched = make_sched()
        sched.register_job(1, "a")
        assert sched.try_reserve(1, {1: 1})
        with pytest.raises(ValueError, match="already holds"):
            sched.try_reserve(1, {2: 1})

    def test_infeasible_gang(self):
        sched = make_sched()  # 4 map slots per node, workers 1..4
        assert not sched.gang_feasible({1: 5})
        assert not sched.gang_feasible({99: 1})
        assert sched.gang_feasible({1: 4, 4: 4})


class TestPreemption:
    def test_no_preemption_without_demand(self):
        """A job hogging the cluster is fine while nobody else wants in."""
        sched = make_sched()
        sched.register_job(1, "a")
        for _ in range(16):
            sched.task_started(1, 1 + _ % 4, "map")
        sched.register_job(2, "b")
        assert sched.overages("map", {1: 10, 2: 0}) == []

    def test_overage_paid_to_starved_job(self):
        sched = make_sched(preemption_grace_slots=1)
        sched.register_job(1, "a")
        for i in range(16):
            sched.task_started(1, 1 + i % 4, "map")
        sched.register_job(2, "b")  # entitlements drop to 8 each
        victims = sched.overages("map", {2: 8})
        # Job 1 runs 16 vs ceil(8) entitlement: loses 16-8-1(grace) = 7.
        assert victims == [(1, 7)]

    def test_gangs_are_never_victims(self):
        sched = make_sched()
        sched.register_job(1, "a")
        assert sched.try_reserve(1, {1: 4, 2: 4, 3: 4, 4: 4})
        sched.register_job(2, "b")
        assert sched.overages("map", {2: 8}) == []

    def test_fifo_never_preempts(self):
        sched = make_sched(policy="fifo")
        sched.register_job(1, "a")
        for i in range(16):
            sched.task_started(1, 1 + i % 4, "map")
        sched.register_job(2, "b")
        assert sched.overages("map", {2: 8}) == []

    def test_note_preempted_counts(self):
        sched = make_sched()
        sched.note_preempted("map", 3)
        sched.note_preempted("reduce", 1)
        assert sched.preemptions == {"map": 3, "reduce": 1}


class TestValidation:
    def test_queue_validation(self):
        with pytest.raises(ValueError, match="weight"):
            QueueConfig(name="x", weight=0)
        with pytest.raises(ValueError, match="capacity"):
            QueueConfig(name="x", capacity=1.5)
        with pytest.raises(ValueError, match="max_capacity"):
            QueueConfig(name="x", capacity=0.8, max_capacity=0.5)
        with pytest.raises(ValueError, match="max_running"):
            QueueConfig(name="x", max_running=0)

    def test_scheduler_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            SchedulerConfig(policy="lottery")
        with pytest.raises(ValueError, match="interval"):
            SchedulerConfig(preemption_interval=0)

    def test_duplicate_queue_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_sched(queues=[QueueConfig(name="a"), QueueConfig(name="a")])

    def test_unknown_queue_on_register(self):
        sched = make_sched()
        with pytest.raises(KeyError, match="unknown queue"):
            sched.register_job(1, "nope")

    def test_double_register(self):
        sched = make_sched()
        sched.register_job(1, "a")
        with pytest.raises(ValueError, match="already registered"):
            sched.register_job(1, "a")
