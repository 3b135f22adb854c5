"""Durability: replication + re-replication vs dying disks.

The fault-tolerance experiment kills *nodes* and measures recovery of
**computation**; this one kills *disks* and measures recovery of
**data** — the other half of the paper's Section-V asymmetry.  Hadoop
sits on HDFS: every block is written ``dfs.replication`` times, the
NameNode notices lost replicas and re-replicates them (bandwidth-capped
repair traffic competing with the shuffle), and a reader that hits a
dead or corrupt replica silently fails over to another copy.  The MPI-D
prototype reads its pre-distributed input from the local FS: there is no
daemon healing it, so a destroyed replica stays destroyed across
restarts, and when the last copy of any split-covering block dies the
job can never finish, no matter how many times it is resubmitted.

Both systems face the identical seed-derived Poisson disk-failure
timeline at the same input replication, swept over failure rates.  The
table reports survival probability, mean makespan of surviving runs,
and the repair traffic Hadoop paid (bytes re-replicated / input bytes)
— the price of durability the paper's MPI-D does not pay and the
protection it therefore does not get.

Run: ``python -m repro durability [--input-gb N] [--seeds a,b]
[--rates-per-hour r1,r2,...] [--replications 1,2,3] [--quick]``;
``python -m repro trace durability`` records one disk-churned run observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.experiments.fault_tolerance import classify_failure
from repro.experiments.reporting import Table, banner
from repro.hadoop import (
    HadoopConfig,
    HadoopSimulation,
    JobFailedError,
    JobSpec,
    WORDCOUNT_PROFILE,
    run_hadoop_job,
)
from repro.mrmpi import (
    MrMpiConfig,
    run_mpid_job,
    run_mpid_job_resubmitted,
)
from repro.simnet.cluster import ClusterSpec
from repro.simnet.faults import DiskFailure, FaultPlan
from repro.util.units import GiB, MiB

#: Disk failures per node-hour.  Real AFRs are ~ 0.01/year; these rates
#: are accelerated so a ~minutes job sees the regime transition, exactly
#: as the crash sweep accelerates node churn.  The interesting band sits
#: higher than the node-churn sweep's because a disk death only dooms a
#: run once *every* replica of some needed block is gone.
DEFAULT_RATES = (15.0, 30.0, 60.0, 120.0, 240.0)
DEFAULT_REPLICATIONS = (1, 2, 3)
DEFAULT_SEEDS = (2011, 2012, 2013)


@dataclass
class DurabilityCell:
    """One (replication, rate) sweep point, aggregated over seeds."""

    survived: int = 0
    total: int = 0
    #: Mean makespan over *surviving* runs (inf when none survived).
    elapsed: float = float("inf")
    #: Mean HDFS repair traffic per run, as a fraction of the input.
    repair_overhead: float = 0.0
    blocks_repaired: float = 0.0
    blocks_lost: float = 0.0
    read_failovers: float = 0.0
    #: Hadoop only: why the dead runs died (one record per DNF seed).
    failures: list[dict] = field(default_factory=list)
    # MPI-D only.
    restarts: float = 0.0
    data_lost: int = 0

    @property
    def survival(self) -> float:
        return self.survived / self.total if self.total else 0.0


@dataclass
class DurabilityResult:
    """Replication x disk-failure-rate sweep for both systems."""

    input_gb: float
    replications: tuple[int, ...]
    rates_per_hour: tuple[float, ...]
    seeds: tuple[int, ...]
    repair_bandwidth_cap: float
    hadoop_clean: dict[int, float] = field(default_factory=dict)
    mpid_clean: float = 0.0
    hadoop: dict[tuple[int, float], DurabilityCell] = field(default_factory=dict)
    mpid: dict[tuple[int, float], DurabilityCell] = field(default_factory=dict)

    def crossover_rate(self, replication: int) -> Optional[float]:
        """Lowest swept rate where Hadoop's survival probability exceeds
        MPI-D's at this replication; None when the sweep never separates
        them.  This is the durability analogue of the fault-tolerance
        crossover: past it, only the system that repairs its data keeps
        finishing jobs."""
        for rate in self.rates_per_hour:
            h = self.hadoop[(replication, rate)]
            m = self.mpid[(replication, rate)]
            if h.survival > m.survival:
                return rate
        return None


def _spec(gb: float) -> JobSpec:
    return JobSpec(
        name=f"wordcount-{gb:g}g",
        input_bytes=int(gb * GiB),
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )


def _plan(rate_per_hour: float, workers: tuple[int, ...], seed: int) -> FaultPlan:
    return FaultPlan(
        specs=(DiskFailure(rate=rate_per_hour / 3600.0, nodes=workers),),
        seed=seed,
    )


def run(
    input_gb: float = 4.0,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    rates_per_hour: tuple[float, ...] = DEFAULT_RATES,
    replications: tuple[int, ...] = DEFAULT_REPLICATIONS,
    repair_bandwidth_cap: float = 10 * MiB,
) -> DurabilityResult:
    cluster_spec = ClusterSpec()
    workers = tuple(range(1, cluster_spec.num_nodes))
    spec = _spec(input_gb)
    result = DurabilityResult(
        input_gb=input_gb,
        replications=tuple(replications),
        rates_per_hour=tuple(rates_per_hour),
        seeds=tuple(seeds),
        repair_bandwidth_cap=repair_bandwidth_cap,
    )
    mpid_cfgs = {
        repl: MrMpiConfig(
            num_mappers=49, num_reducers=1, input_replication=repl
        )
        for repl in replications
    }
    hadoop_cfgs = {
        repl: HadoopConfig(
            map_slots=7,
            reduce_slots=7,
            replication=repl,
            repair_bandwidth_cap=repair_bandwidth_cap,
        )
        for repl in replications
    }
    # Clean baselines: Hadoop's makespan depends on replication (reduce
    # output is written repl times); MPI-D's does not (input layout only).
    for repl in replications:
        result.hadoop_clean[repl] = float(
            np.mean(
                [
                    run_hadoop_job(spec, config=hadoop_cfgs[repl], seed=s).elapsed
                    for s in seeds
                ]
            )
        )
    result.mpid_clean = run_mpid_job(
        spec, config=mpid_cfgs[replications[0]], cluster_spec=cluster_spec
    ).elapsed

    for repl in replications:
        for rate in rates_per_hour:
            h = DurabilityCell(total=len(seeds))
            m = DurabilityCell(total=len(seeds))
            h_times: list[float] = []
            m_times: list[float] = []
            for seed in seeds:
                plan = _plan(rate, workers, seed)
                try:
                    hm = run_hadoop_job(
                        spec, config=hadoop_cfgs[repl], seed=seed, fault_plan=plan
                    )
                    h.survived += 1
                    h_times.append(hm.elapsed)
                except JobFailedError as err:
                    hm = err.metrics
                    h.failures.append(
                        {
                            "seed": seed,
                            "reason": hm.failure_reason,
                            "kind": classify_failure(hm.failure_reason),
                            "node": hm.failure_node,
                            "task": hm.failure_task,
                            "time": hm.failure_time,
                        }
                    )
                h.repair_overhead += hm.repair_bytes / spec.input_bytes
                h.blocks_repaired += hm.blocks_repaired
                h.blocks_lost += hm.blocks_lost
                h.read_failovers += hm.read_failovers

                mm = run_mpid_job_resubmitted(
                    spec,
                    plan,
                    config=mpid_cfgs[repl],
                    cluster_spec=cluster_spec,
                )
                if mm.completed:
                    m.survived += 1
                    m_times.append(mm.elapsed)
                m.restarts += mm.restarts
                m.read_failovers += mm.read_failovers
                if mm.data_lost:
                    m.data_lost += 1
            n = len(seeds)
            h.repair_overhead /= n
            h.blocks_repaired /= n
            h.blocks_lost /= n
            h.read_failovers /= n
            m.restarts /= n
            m.read_failovers /= n
            if h_times:
                h.elapsed = float(np.mean(h_times))
            if m_times:
                m.elapsed = float(np.mean(m_times))
            result.hadoop[(repl, rate)] = h
            result.mpid[(repl, rate)] = m
    return result


def _fmt_cell(cell: DurabilityCell) -> str:
    if cell.survived == 0:
        return f"DNF (0/{cell.total})"
    t = f"{cell.elapsed:.1f}"
    if cell.survived < cell.total:
        t += f" ({cell.survived}/{cell.total})"
    return t


def format_report(result: DurabilityResult) -> str:
    n = len(result.seeds)
    sections = [banner("Durability: HDFS re-replication vs MPI-D's static input")]
    for repl in result.replications:
        table = Table(
            headers=(
                "disk fails/node-hr",
                "Hadoop (s)",
                "MPI-D (s)",
                "H survive",
                "M survive",
                "repair MB",
                "repair x input",
                "failovers",
                "M restarts",
            ),
            title=(
                f"WordCount {result.input_gb:g} GB, replication {repl} "
                f"(mean of {n} seeds)"
            ),
        )
        table.add_row(
            "0 (clean)",
            f"{result.hadoop_clean[repl]:.1f}",
            f"{result.mpid_clean:.1f}",
            f"{n}/{n}",
            f"{n}/{n}",
            0.0,
            0.0,
            0.0,
            0.0,
        )
        for rate in result.rates_per_hour:
            h = result.hadoop[(repl, rate)]
            m = result.mpid[(repl, rate)]
            table.add_row(
                f"{rate:g}",
                _fmt_cell(h),
                _fmt_cell(m),
                f"{h.survived}/{n}",
                f"{m.survived}/{n}",
                h.repair_overhead * result.input_gb * 1024.0,
                h.repair_overhead,
                h.read_failovers,
                m.restarts,
            )
        sections.append(table.render())
    notes = (
        f"identical per-seed disk-death timelines on both systems; HDFS "
        f"repair capped at {result.repair_bandwidth_cap / MiB:.0f} MiB/s per "
        f"stream; an MPI-D run whose last replica of any block dies is a "
        f"permanent DNF (damage survives resubmission)"
    )
    heads = []
    for repl in result.replications:
        cross = result.crossover_rate(repl)
        if cross is not None:
            heads.append(
                f"replication {repl}: from {cross:g} disk-failures/node-hour "
                f"on, Hadoop outlives MPI-D — the NameNode repairs what the "
                f"static layout cannot"
            )
    if not heads:
        heads.append(
            "no separation in the swept range: every rate either spared or "
            "killed both systems equally (sweep higher rates)"
        )
    sections.append(notes)
    sections.append("; ".join(heads))
    return "\n\n".join(sections)


def observed_run(
    attach,
    input_gb: float = 1.0,
    seed: int = 2011,
    rate_per_hour: float = 8.0,
    replication: int = 3,
    repair_bandwidth_cap: float = 10 * MiB,
):
    """One observed disk-churned Hadoop run: process ``hadoop-durability``.

    The trace shows the ``hdfs.repair`` flows on their own track next to
    the map/shuffle work they contend with, the ``hdfs.read.failover``
    instants where readers skipped dead replicas, and (at harsher rates)
    ``hdfs.block.lost`` — the durability story of one run, in Perfetto.
    """
    workers = tuple(range(1, ClusterSpec().num_nodes))
    sim = HadoopSimulation(
        spec=_spec(input_gb),
        config=HadoopConfig(
            map_slots=7,
            reduce_slots=7,
            replication=replication,
            repair_bandwidth_cap=repair_bandwidth_cap,
        ),
        seed=seed,
        fault_plan=_plan(rate_per_hour, workers, seed),
        observe=True,
    )
    attach("hadoop-durability", sim.obs)
    try:
        metrics = sim.run()
    except JobFailedError as err:
        metrics = err.metrics
    return [("hadoop-durability", sim.obs)], {"hadoop-durability": metrics.elapsed}


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
