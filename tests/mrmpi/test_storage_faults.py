"""MPI-D under storage faults: no NameNode means damage is permanent —
failover while copies survive, permanent DNF when the last one dies."""

import math

from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
from repro.mrmpi import MrMpiConfig, run_mpid_job_resubmitted
from repro.simnet.faults import (
    BlockCorruption,
    Decommission,
    DiskFailure,
    FaultPlan,
)
from repro.util.units import MiB


def _spec(mb=640):
    return JobSpec("sort", input_bytes=mb * MiB, profile=JAVASORT_PROFILE)


def _disk_plan(rate_per_hour, seed=2011):
    return FaultPlan(
        specs=(DiskFailure(rate=rate_per_hour / 3600.0),), seed=seed
    )


class TestPermanentDataLoss:
    def test_unreplicated_input_disk_death_is_a_permanent_dnf(self):
        cfg = MrMpiConfig(input_replication=1)
        m = run_mpid_job_resubmitted(
            _spec(), _disk_plan(rate_per_hour=60.0), config=cfg
        )
        assert not m.completed
        assert m.data_lost
        assert math.isinf(m.elapsed)
        # The aborting attempt is charged, but once the block is known
        # lost the loop stops resubmitting — restarting cannot help.
        assert m.restarts <= 1

    def test_replicated_input_survives_the_same_plan(self):
        plan = _disk_plan(rate_per_hour=60.0)
        m = run_mpid_job_resubmitted(
            _spec(), plan, config=MrMpiConfig(input_replication=3)
        )
        assert m.completed
        assert not m.data_lost
        assert m.elapsed >= m.clean_elapsed


class TestReadFailover:
    def test_corruption_fails_over_at_remote_read_cost(self):
        plan = FaultPlan(specs=(BlockCorruption(rate=0.5),), seed=2011)
        m = run_mpid_job_resubmitted(
            _spec(), plan, config=MrMpiConfig(input_replication=3)
        )
        assert m.completed
        assert m.read_failovers > 0
        assert not m.data_lost


class TestCleanPathParity:
    def test_dormant_storage_spec_is_bit_identical_to_clean(self):
        # Storage machinery fully built, zero events fired: the run must
        # cost exactly what the clean run costs.
        plan = FaultPlan(specs=(Decommission(node=1, at=1e9),), seed=2011)
        m = run_mpid_job_resubmitted(
            _spec(), plan, config=MrMpiConfig(input_replication=3)
        )
        assert m.completed
        assert m.elapsed == m.clean_elapsed
        assert m.read_failovers == 0


class TestDeterminism:
    def test_same_plan_same_summary(self):
        plan = _disk_plan(rate_per_hour=240.0)
        cfg = MrMpiConfig(input_replication=2)
        a = run_mpid_job_resubmitted(_spec(), plan, config=cfg)
        b = run_mpid_job_resubmitted(_spec(), plan, config=cfg)
        assert a.summary() == b.summary()

    def test_summary_carries_storage_fields(self):
        m = run_mpid_job_resubmitted(
            _spec(),
            _disk_plan(rate_per_hour=60.0),
            config=MrMpiConfig(input_replication=1),
        )
        s = m.summary()
        assert s["data_lost"] is True
        assert "read_failovers" in s
