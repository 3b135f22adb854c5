"""Flow and slot invariants checked during whole runs, not only after them.

Each run builds its clusters on :class:`~tests.simnet.oracle.CheckedNetwork`
(through :func:`~tests.simnet.oracle.use_checked_network`), which checks
rates against caps and link capacities after every solve and remaining
bytes after every advance, and at the end that every flow drained and
every requested byte was delivered or killed.  The negative control
inflates one flow's rate by 1% in the solver and must be caught.

The slot runs build every node CPU pool and reduce-task copier pool as a
:class:`~tests.simnet.oracle.CheckedSlotPool` (through
:func:`~tests.simnet.oracle.use_checked_slot_pools`), which checks after
every acquire, release and cancel that occupancy stays within capacity
and that no request waits while a slot is free, and at the end that
every pool is idle.  Its negative control is a release that frees the
slot instead of handing it to the next waiter.
"""

from __future__ import annotations

import pytest

from repro.hadoop import JAVASORT_PROFILE, WORDCOUNT_PROFILE, HadoopConfig, JobSpec
from repro.hadoop.simulation import HadoopSimulation, run_hadoop_job
from repro.mrmpi import MrMpiConfig
from repro.mrmpi.simulator import MrMpiSimulation
from repro.simnet.faults import FaultPlan, FlowLossRate
from repro.simnet.network import Network
from repro.simnet.resources import SlotPool
from repro.util.units import GiB
from tests.experiments.test_scalability_golden import _multi_tenant
from tests.simnet.oracle import use_checked_network, use_checked_slot_pools

SEED = 2011


def _fig6_10gb() -> None:
    """Fig 6 WordCount at 10 GB: Hadoop 7/7 slots, MPI-D 49 mappers."""
    spec = JobSpec(
        name="wordcount-10g",
        input_bytes=10 * GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )
    HadoopSimulation(
        spec=spec, config=HadoopConfig(map_slots=7, reduce_slots=7), seed=SEED
    ).run()
    MrMpiSimulation(
        spec=spec, config=MrMpiConfig(num_mappers=49, num_reducers=1), seed=SEED
    ).run()


def _javasort_1gb(fault_plan=None) -> None:
    spec = JobSpec(name="sort-1g", input_bytes=GiB, profile=JAVASORT_PROFILE)
    run_hadoop_job(
        spec,
        config=HadoopConfig(map_slots=4, reduce_slots=2),
        seed=SEED,
        fault_plan=fault_plan,
    )


def _table1_1gb() -> None:
    """Table I javaSort at 1 GB, 4/2 slots."""
    _javasort_1gb()


def _lossy_javasort_1gb() -> None:
    """javaSort at 1 GB losing 120 flows per link-hour."""
    _javasort_1gb(FaultPlan(specs=(FlowLossRate(rate=120 / 3600),), seed=SEED))


def _mpid_sort_1gb(mappers: int, reducers: int, observe: bool = False) -> None:
    spec = JobSpec(name="sort-1g", input_bytes=GiB, profile=JAVASORT_PROFILE)
    MrMpiSimulation(
        spec=spec,
        config=MrMpiConfig(num_mappers=mappers, num_reducers=reducers),
        seed=SEED,
        observe=observe,
    ).run()


def _mpid_49x14() -> None:
    """MPI-D javaSort at 1 GB, 49 x 14: nine ranks on each 8-core node,
    so the mappers step through the CPU pool; with seven mappers per
    node none of them waits."""
    _mpid_sort_1gb(49, 14)


def _mpid_49x14_traced() -> None:
    _mpid_sort_1gb(49, 14, observe=True)


def _mpid_63x7() -> None:
    """MPI-D javaSort at 1 GB, 63 x 7: nine mappers on each 8-core node
    wait for cores."""
    _mpid_sort_1gb(63, 7)


#: (run, whether it kills flows)
RUNS = [
    pytest.param(_fig6_10gb, False, id="fig6-10gb"),
    pytest.param(_table1_1gb, False, id="table1-1gb-4-2"),
    pytest.param(_lossy_javasort_1gb, True, id="javasort-1gb-lossy"),
    pytest.param(_multi_tenant, False, id="multi-tenant-100n"),
]


@pytest.mark.parametrize("run,kills", RUNS)
def test_flow_invariants_hold_throughout(run, kills, monkeypatch):
    networks = use_checked_network(monkeypatch)
    run()
    assert networks
    for net in networks:
        net.check_drained()
    assert sum(net.rate_recomputes for net in networks) > 0
    assert (sum(net.bytes_killed for net in networks) > 0) == kills


def test_one_percent_rate_error_is_caught(monkeypatch):
    solve = Network._solve_component

    def inflated(self, flows):
        solve(self, flows)
        first = min(flows, key=lambda f: f.seq)
        first.rate *= 1.01

    monkeypatch.setattr(Network, "_solve_component", inflated)
    networks = use_checked_network(monkeypatch)
    _fig6_10gb()
    with pytest.raises(AssertionError, match="violations"):
        for net in networks:
            net.check_drained()


#: (run, whether some slot request has to wait)
SLOT_RUNS = [
    pytest.param(_fig6_10gb, True, id="fig6-10gb"),
    pytest.param(_table1_1gb, True, id="table1-1gb-4-2"),
    pytest.param(_mpid_49x14, False, id="mpid-sort-1gb-49x14"),
    pytest.param(_mpid_49x14_traced, False, id="mpid-sort-1gb-49x14-traced"),
    pytest.param(_mpid_63x7, True, id="mpid-sort-1gb-63x7"),
    pytest.param(_multi_tenant, True, id="multi-tenant-100n"),
]


@pytest.mark.parametrize("run,waits", SLOT_RUNS)
def test_slot_occupancy_holds_throughout(run, waits, monkeypatch):
    pools = use_checked_slot_pools(monkeypatch)
    run()
    assert pools
    for pool in pools:
        pool.check_idle()
    assert (sum(pool.queued for pool in pools) > 0) == waits


def test_release_that_skips_a_waiter_is_caught(monkeypatch):
    def release_past_waiters(self):
        self._in_use -= 1

    monkeypatch.setattr(SlotPool, "release", release_past_waiters)
    pools = use_checked_slot_pools(monkeypatch)
    _mpid_63x7()
    with pytest.raises(AssertionError, match="violations"):
        for pool in pools:
            pool.check_idle()
