"""Storage fault specs: validation, shifting, analytic twins, and the
injector's dispatch to a StorageFaultHost."""

import pytest

from repro.simnet.cluster import Cluster, ClusterSpec
from repro.simnet.faults import (
    STORAGE_FAULT_SPECS,
    BlockCorruption,
    Decommission,
    DiskFailure,
    FaultInjector,
    FaultPlan,
    FlowLossRate,
)
from repro.simnet.kernel import Simulator


class TestSpecValidation:
    def test_nonpositive_disk_rate_rejected(self):
        with pytest.raises(ValueError):
            DiskFailure(rate=0.0)
        with pytest.raises(ValueError):
            DiskFailure(rate=-1.0)

    def test_nonpositive_corruption_rate_rejected(self):
        with pytest.raises(ValueError):
            BlockCorruption(rate=0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            DiskFailure(rate=0.1, start=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            BlockCorruption(rate=0.1, duration=0.0)

    def test_empty_node_tuple_rejected(self):
        with pytest.raises(ValueError):
            DiskFailure(rate=0.1, nodes=())

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            Decommission(node=-1)
        with pytest.raises(ValueError):
            DiskFailure(rate=0.1, nodes=(1, -2))

    def test_negative_decommission_time_rejected(self):
        with pytest.raises(ValueError):
            Decommission(node=1, at=-0.5)

    def test_specs_accepted_by_plan(self):
        plan = FaultPlan(
            specs=(
                DiskFailure(rate=0.1, nodes=(1, 2)),
                BlockCorruption(rate=0.2),
                Decommission(node=3, at=5.0),
            )
        )
        assert plan.has_storage_faults()
        assert not plan.has_network_faults()


class TestShifted:
    def test_disk_failure_window_clips(self):
        plan = FaultPlan(
            specs=(DiskFailure(rate=0.1, start=10.0, duration=20.0),)
        )
        (spec,) = plan.shifted(15.0).specs
        assert spec.start == 0.0
        assert spec.duration == pytest.approx(15.0)

    def test_expired_window_dropped(self):
        plan = FaultPlan(
            specs=(BlockCorruption(rate=0.1, start=0.0, duration=5.0),)
        )
        assert plan.shifted(10.0).specs == ()

    def test_open_ended_survives(self):
        plan = FaultPlan(specs=(DiskFailure(rate=0.1),))
        (spec,) = plan.shifted(100.0).specs
        assert spec.start == 0.0 and spec.duration is None

    def test_decommission_never_dropped(self):
        # A decommission in the past does not un-happen on restart: the
        # node is still out of the pool, so the spec re-fires at t=0.
        plan = FaultPlan(specs=(Decommission(node=2, at=5.0),))
        (spec,) = plan.shifted(100.0).specs
        assert isinstance(spec, Decommission)
        assert spec.node == 2 and spec.at == 0.0

    def test_future_decommission_re_anchored(self):
        plan = FaultPlan(specs=(Decommission(node=2, at=50.0),))
        (spec,) = plan.shifted(20.0).specs
        assert spec.at == pytest.approx(30.0)


class TestDiskFailureTimes:
    def test_deterministic(self):
        plan = FaultPlan(specs=(DiskFailure(rate=0.05),), seed=7)
        a = plan.disk_failure_times((1, 2, 3), horizon=200.0)
        b = plan.disk_failure_times((1, 2, 3), horizon=200.0)
        assert a == b and a

    def test_prefix_consistency(self):
        plan = FaultPlan(specs=(DiskFailure(rate=0.05),), seed=7)
        short = plan.disk_failure_times((1, 2, 3), horizon=100.0)
        long = plan.disk_failure_times((1, 2, 3), horizon=400.0)
        assert long[: len(short)] == short
        assert len(long) > len(short)

    def test_per_node_stream_isolation(self):
        # Adding node 4's stream must not move node 1-3's failure times.
        plan = FaultPlan(specs=(DiskFailure(rate=0.05),), seed=7)
        three = plan.disk_failure_times((1, 2, 3), horizon=300.0)
        four = plan.disk_failure_times((1, 2, 3, 4), horizon=300.0)
        assert [tn for tn in four if tn[1] != 4] == three

    def test_window_respected(self):
        plan = FaultPlan(
            specs=(DiskFailure(rate=0.5, start=10.0, duration=20.0),), seed=3
        )
        times = plan.disk_failure_times((1,), horizon=1000.0)
        assert times
        assert all(10.0 < t <= 30.0 for t, _ in times)


class _NullHost:
    """FaultHost stub: storage specs never crash nodes."""

    def crash_node(self, node_id, now):
        raise AssertionError("storage specs must not crash nodes")

    def restart_node(self, node_id, now):
        raise AssertionError("storage specs must not restart nodes")


class _RecordingStorage:
    """StorageFaultHost stub: records every dispatch."""

    def __init__(self):
        self.calls = []

    def disk_failed(self, node_id, now):
        self.calls.append(("disk", node_id, now))

    def corrupt_replica(self, node_id, now, rng):
        self.calls.append(("corrupt", node_id, now))
        return True

    def decommission(self, node_id, now):
        self.calls.append(("decom", node_id, now))


class TestInjectorDispatch:
    def _run(self, plan, until=100.0):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=4))
        storage = _RecordingStorage()
        inj = FaultInjector(
            sim,
            cluster,
            plan,
            _NullHost(),
            storage=storage,
            default_storage_nodes=(1, 2, 3),
        )
        inj.start()
        sim.process(self._stopper(sim, inj, until), name="stopper")
        sim.run()
        return storage, inj

    @staticmethod
    def _stopper(sim, inj, until):
        yield sim.timeout(until)
        inj.stop()

    def test_storage_spec_without_host_rejected(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=4))
        plan = FaultPlan(specs=(DiskFailure(rate=0.1),))
        with pytest.raises(ValueError, match="storage"):
            FaultInjector(sim, cluster, plan, _NullHost())

    def test_disk_failures_match_analytic_twin(self):
        plan = FaultPlan(specs=(DiskFailure(rate=0.05),), seed=11)
        storage, inj = self._run(plan, until=100.0)
        injected = [
            (now, node) for kind, node, now in storage.calls if kind == "disk"
        ]
        expected = plan.disk_failure_times((1, 2, 3), horizon=100.0)
        assert sorted(injected) == pytest.approx(expected)
        assert inj.disk_failures_injected == len(expected)

    def test_decommission_fires_once_at_time(self):
        plan = FaultPlan(specs=(Decommission(node=2, at=7.5),))
        storage, inj = self._run(plan)
        assert storage.calls == [("decom", 2, 7.5)]
        assert inj.decommissions_injected == 1

    def test_corruptions_dispatch_with_rng(self):
        plan = FaultPlan(specs=(BlockCorruption(rate=0.1, nodes=(1,)),), seed=5)
        storage, inj = self._run(plan, until=60.0)
        kinds = {kind for kind, _, _ in storage.calls}
        assert kinds == {"corrupt"}
        assert inj.corruptions_injected == len(storage.calls)

    def test_spec_tuple_export(self):
        assert DiskFailure in STORAGE_FAULT_SPECS
        assert BlockCorruption in STORAGE_FAULT_SPECS
        assert Decommission in STORAGE_FAULT_SPECS
        assert FlowLossRate not in STORAGE_FAULT_SPECS


# -- layer isolation (the determinism contract in docs/FAULTS.md) -------------
class TestStorageStreamIsolation:
    """Attaching a *dormant* storage spec to a network-fault plan builds
    the whole storage machinery (replica map, read path, repair queue)
    but must not move a single byte of the run: every RNG substream is
    namespaced, so the export is bit-for-bit identical."""

    #: Never fires: a decommission aeons away plus a disk-failure window
    #: that opens long after any simulated job has ended.
    DORMANT = (
        Decommission(node=1, at=1e9),
        DiskFailure(rate=1e-4, start=1e8),
    )

    def test_hadoop_network_fault_export_unperturbed(self):
        import json

        from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
        from repro.hadoop.simulation import run_hadoop_job
        from repro.util.units import MiB

        spec = JobSpec("sort", input_bytes=640 * MiB, profile=JAVASORT_PROFILE)
        net = FaultPlan(specs=(FlowLossRate(rate=0.2),), seed=2011)
        both = FaultPlan(specs=net.specs + self.DORMANT, seed=2011)
        a = run_hadoop_job(spec, seed=2011, fault_plan=net)
        b = run_hadoop_job(spec, seed=2011, fault_plan=both)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_mpid_network_fault_summary_unperturbed(self):
        from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
        from repro.mrmpi import MrMpiConfig, run_mpid_job_resubmitted
        from repro.util.units import MiB

        spec = JobSpec("sort", input_bytes=640 * MiB, profile=JAVASORT_PROFILE)
        cfg = MrMpiConfig(max_restarts=25)
        net = FaultPlan(specs=(FlowLossRate(rate=0.05),), seed=2011)
        both = FaultPlan(specs=net.specs + self.DORMANT, seed=2011)
        a = run_mpid_job_resubmitted(spec, net, config=cfg)
        b = run_mpid_job_resubmitted(spec, both, config=cfg)
        assert a.summary() == b.summary()
