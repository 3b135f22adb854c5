"""MPI-D on a lossy network: baseline abort semantics, the reliable
retransmit mode, and the restart loop's determinism."""

import math

import pytest

from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
from repro.mrmpi import (
    MpiJobAborted,
    MrMpiConfig,
    MrMpiSimulation,
    run_mpid_job,
    run_mpid_job_resubmitted,
)
from repro.simnet.faults import FaultPlan, FlowLossRate, NodeCrash
from repro.util.units import GiB


def _spec(gb=0.5):
    return JobSpec("sort", input_bytes=int(gb * GiB), profile=JAVASORT_PROFILE)


#: Aggressive enough that a kill is certain to land inside MPI-D's short
#: eager-send window at this input size.
_HEAVY_LOSS = FaultPlan(specs=(FlowLossRate(rate=2.0),), seed=2011)


class TestBaselineAbort:
    def test_lost_stream_aborts_the_whole_job(self):
        env = MrMpiSimulation(spec=_spec(), fault_plan=_HEAVY_LOSS)
        with pytest.raises(MpiJobAborted) as info:
            env.run()
        exc = info.value
        assert exc.at > 0.0
        assert exc.reason
        assert exc.metrics.aborted
        assert exc.metrics.aborted_at == exc.at
        assert exc.metrics.flows_lost > 0

    def test_abort_time_is_the_first_flow_failure(self):
        env = MrMpiSimulation(spec=_spec(), fault_plan=_HEAVY_LOSS)
        with pytest.raises(MpiJobAborted) as info:
            env.run()
        assert info.value.at == env.cluster.network.first_flow_failure_at

    def test_non_network_specs_rejected(self):
        plan = FaultPlan(specs=(NodeCrash(node=1, at=5.0),))
        with pytest.raises(ValueError, match="restart model"):
            MrMpiSimulation(spec=_spec(), fault_plan=plan)


class TestReliableTransport:
    def test_retransmits_and_completes(self):
        cfg = MrMpiConfig(reliable_transport=True)
        env = MrMpiSimulation(spec=_spec(), config=cfg, fault_plan=_HEAVY_LOSS)
        metrics = env.run()
        assert not metrics.aborted
        assert metrics.retransmits > 0
        clean = run_mpid_job(_spec()).elapsed
        assert metrics.elapsed >= clean

    def test_reliable_run_is_deterministic(self):
        cfg = MrMpiConfig(reliable_transport=True)

        def once():
            env = MrMpiSimulation(
                spec=_spec(), config=cfg, fault_plan=_HEAVY_LOSS
            )
            m = env.run()
            return m.elapsed, m.retransmits, m.flows_lost

        assert once() == once()


class TestRestartLoop:
    def test_baseline_restarts_until_a_clean_attempt(self):
        out = run_mpid_job_resubmitted(
            _spec(), _HEAVY_LOSS, config=MrMpiConfig(max_restarts=100)
        )
        assert out.restarts > 0
        if out.completed:
            assert out.elapsed > out.clean_elapsed
            assert out.lost_work_seconds > 0
        else:
            assert math.isinf(out.elapsed)

    def test_restart_budget_exhaustion_is_a_dnf(self):
        out = run_mpid_job_resubmitted(
            _spec(), _HEAVY_LOSS, config=MrMpiConfig(max_restarts=1)
        )
        assert not out.completed
        assert math.isinf(out.elapsed)
        # The attempt that breaks the budget is itself counted.
        assert out.restarts == 2

    def test_restart_loop_is_deterministic(self):
        def once():
            out = run_mpid_job_resubmitted(
                _spec(), _HEAVY_LOSS, config=MrMpiConfig(max_restarts=3)
            )
            return (
                out.completed,
                out.elapsed,
                out.restarts,
                out.lost_work_seconds,
                out.flows_lost,
            )

        assert once() == once()

    def test_reliable_transport_usually_skips_the_restart_loop(self):
        out = run_mpid_job_resubmitted(
            _spec(),
            _HEAVY_LOSS,
            config=MrMpiConfig(max_restarts=100, reliable_transport=True),
        )
        assert out.completed
        assert out.restarts == 0
        assert out.retransmits > 0

    def test_loss_free_plan_matches_clean_run(self):
        """Net-fault mode with a window that closes before any kill: one
        attempt, bit-for-bit the clean makespan."""
        quiet = FaultPlan(
            specs=(FlowLossRate(rate=1e-6, duration=0.001),), seed=2011
        )
        out = run_mpid_job_resubmitted(_spec(), quiet)
        assert out.restarts == 0
        assert out.flows_lost == 0
        assert out.elapsed == out.clean_elapsed
        assert out.clean_elapsed == run_mpid_job(_spec()).elapsed
