"""Observability must be free: traced and untraced runs agree bit-for-bit.

The observer never schedules simulator events and never consumes
randomness, so ``observe=True`` may not move a single simulated
timestamp.  These tests pin that: the headline Figure-6 numbers are
*exactly* equal (``==`` on floats, no tolerance) with tracing on and
off, and the untraced numbers match the values the seed produced before
the observability subsystem existed.

An untraced MPI-D mapper takes the fused schedule where it can and a
traced one always steps, so the MPI-D cases compare whole exports: the
Fig 6 job, a compressed sort (the compress step of both chains), a sort
with more ranks than cores per node (stepped on both sides) and a
skewed sort whose first reducer receives nothing.
"""

import json

import pytest

from repro.hadoop import JAVASORT_PROFILE, HadoopConfig, JobSpec, WORDCOUNT_PROFILE
from repro.hadoop.simulation import HadoopSimulation
from repro.mrmpi import MrMpiConfig
from repro.mrmpi.simulator import MrMpiSimulation
from repro.simnet.kernel import Simulator
from repro.util.units import GiB

# Figure-6 1 GB WordCount makespans of the pre-observability seed.
HADOOP_1GB = 45.882213377859564
MPID_1GB = 7.795975713962058


def _spec() -> JobSpec:
    return JobSpec(
        name="wordcount-1g",
        input_bytes=GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )


def _hadoop(observe: bool) -> float:
    sim = HadoopSimulation(
        spec=_spec(),
        config=HadoopConfig(map_slots=7, reduce_slots=7),
        seed=2011,
        observe=observe,
    )
    return sim.run().elapsed


def _mpid(spec: JobSpec, config: MrMpiConfig, observe: bool) -> tuple[float, str]:
    m = MrMpiSimulation(spec=spec, config=config, observe=observe).run()
    return m.elapsed, json.dumps(m.to_dict(), sort_keys=True)


def _sort_1gb(**kwargs) -> JobSpec:
    return JobSpec(
        name="sort-1g", input_bytes=GiB, profile=JAVASORT_PROFILE, **kwargs
    )


#: (spec, config) of the javaSort cases; the Fig 6 case is separate.
MPID_SORTS = [
    pytest.param(
        _sort_1gb(),
        MrMpiConfig(num_mappers=35, num_reducers=14, compress=True),
        id="sort-35x14-compress",
    ),
    pytest.param(
        _sort_1gb(),
        MrMpiConfig(num_mappers=49, num_reducers=14),
        id="sort-49x14-9-ranks-per-node",
    ),
    pytest.param(
        _sort_1gb(partition_weights=(0.0, 6.0, 1.0, 1.0, 1.0, 1.0, 2.0)),
        MrMpiConfig(num_mappers=28, num_reducers=7),
        id="sort-28x7-skewed",
    ),
]


class TestZeroCostWhenDisabled:
    def test_simulator_defaults_to_null_observer(self):
        sim = Simulator()
        assert sim.obs.enabled is False
        assert sim.obs.tracer.begin("c", "s") == 0

    def test_hadoop_bit_for_bit(self):
        off, on = _hadoop(observe=False), _hadoop(observe=True)
        assert off == on  # exact float equality, not approx
        assert off == HADOOP_1GB

    def test_mpid_bit_for_bit(self):
        config = MrMpiConfig(num_mappers=49, num_reducers=1)
        off = _mpid(_spec(), config, observe=False)
        assert off == _mpid(_spec(), config, observe=True)
        assert off[0] == MPID_1GB

    @pytest.mark.parametrize("spec,config", MPID_SORTS)
    def test_mpid_export_bit_for_bit(self, spec, config):
        assert _mpid(spec, config, observe=False) == _mpid(
            spec, config, observe=True
        )

    def test_untraced_run_records_nothing(self):
        sim = HadoopSimulation(
            spec=_spec(),
            config=HadoopConfig(map_slots=7, reduce_slots=7),
            seed=2011,
        )
        sim.run()
        assert len(sim.sim.obs.tracer) == 0
        assert len(sim.sim.obs.metrics) == 0

    def test_traced_run_records_every_layer(self):
        sim = HadoopSimulation(
            spec=_spec(),
            config=HadoopConfig(map_slots=7, reduce_slots=7),
            seed=2011,
            observe=True,
        )
        sim.run()
        obs = sim.obs
        assert {"kernel", "net", "hadoop.job", "hadoop.map", "hadoop.reduce",
                "transport.jetty"} <= obs.tracer.categories()
        assert obs.tracer.open_spans() == []  # everything closed at job end
        assert obs.metrics.counter("hadoop.maps_finished").value == pytest.approx(16)
