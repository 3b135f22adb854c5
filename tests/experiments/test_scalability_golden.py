"""Golden differential for the two synthetic large-cluster cells.

A 100-node single Hadoop job (16 MiB per worker, so heartbeat traffic
dominates) and a 100-node two-tenant arrival stream (120 s horizon)
must each

* rerun byte-identically with the same seed (no state leaks between
  runs through the tick arena or the flow slots);
* export the same bytes with the scalar flow-engine oracle swapped in;
* export the same bytes, after dispatching the same number of events,
  with the reference max-min solver swapped in.

Raw sorted-key JSON export strings, compared in the test.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import MultiTenantEngine, QueueConfig, SchedulerConfig, TenantSpec
from repro.hadoop import WORDCOUNT_PROFILE, HadoopConfig, JobSpec
from repro.hadoop.simulation import HadoopSimulation
from repro.simnet.cluster import ClusterSpec
from repro.util.units import MiB
from tests.simnet.oracle import use_reference_solver, use_scalar_oracle

NODES = 100
SEED = 2011


def _single_job() -> tuple[str, int]:
    """One Hadoop WordCount on ``NODES`` nodes, input scaled with the
    worker count.  Returns (export JSON, events dispatched)."""
    workers = NODES - 1
    spec = JobSpec(
        name=f"scal-{NODES}n",
        input_bytes=workers * 16 * MiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=max(1, workers // 64),
    )
    hsim = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(),
        cluster_spec=ClusterSpec(num_nodes=NODES),
        seed=SEED,
    )
    metrics = hsim.run()
    return json.dumps(metrics.to_dict(), sort_keys=True), hsim.sim.events_dispatched


def _multi_tenant() -> tuple[str, int]:
    """A two-tenant arrival stream on ``NODES`` nodes: poisson batch
    sorts and diurnal interactive scans under fair sharing."""
    scale = NODES / 100.0
    tenants = [
        TenantSpec(
            name="batch",
            rate=0.02 * scale,
            profile="poisson",
            workloads=("javaSort", "streamSort"),
            min_input_bytes=64 * 2**20,
            max_input_bytes=512 * 2**20,
        ),
        TenantSpec(
            name="interactive",
            rate=0.03 * scale,
            profile="diurnal",
            workloads=("webdataScan",),
            max_input_bytes=128 * 2**20,
        ),
    ]
    queues = [
        QueueConfig(name="batch", weight=1.0, capacity=0.55, max_queued=64),
        QueueConfig(name="interactive", weight=2.0, capacity=0.45, max_queued=16),
    ]
    engine = MultiTenantEngine(
        tenants,
        scheduler=SchedulerConfig(policy="fair"),
        queues=queues,
        cluster_spec=ClusterSpec(num_nodes=NODES),
        hadoop_config=HadoopConfig(map_slots=4, reduce_slots=4),
        seed=SEED,
        horizon=120.0,
    )
    report = engine.run()
    return json.dumps(report, sort_keys=True), engine.sim.events_dispatched


CELLS = [
    pytest.param(_single_job, id="single_job"),
    pytest.param(_multi_tenant, id="multi_tenant"),
]


@pytest.mark.slow
@pytest.mark.parametrize("cell", CELLS)
class TestScalabilityGolden:
    def test_same_seed_rerun_is_identical(self, cell):
        export, events = cell()
        assert events > 0
        assert cell() == (export, events)

    def test_flow_engine_matches_scalar_oracle(self, cell, monkeypatch):
        export, _ = cell()
        use_scalar_oracle(monkeypatch)
        assert cell()[0] == export

    def test_fast_matches_reference_bit_for_bit(self, cell, monkeypatch):
        export, events = cell()
        use_reference_solver(monkeypatch)
        assert cell() == (export, events)
