"""Lossy networks: shuffle retries (Hadoop) vs abort-and-rerun (MPI).

The fault-tolerance experiment crashes *nodes*; this one degrades the
*network* — seeded Poisson kills of in-flight flows at a swept rate, and
one-shot network partitions of swept duration — over the same fixed-size
sort job on both simulators.

Hadoop rides it out: the 0.20-era shuffle re-fetches each killed segment
after an exponential backoff (re-executing source maps only past the
fetch-failure strike threshold), so its curve degrades smoothly with the
loss rate.  Baseline MPI-D treats a lost stream as fatal — MPICH2 aborts
the whole job, which is resubmitted from scratch — so its curve is a
cliff: fine while an attempt dodges every kill, unbounded once it
can't.  The optional reliable-transport mode retransmits killed arrays
instead, showing how much of the gap is the *transport contract* rather
than the programming model.  The report finds the **crossover loss
rate** where Hadoop's mean time dips below baseline MPI-D's.

Run: ``python -m repro network_faults [--input-gb N] [--seeds a,b]
[--rates-per-link-hour r1,r2,...] [--partition-durations d1,d2,...]
[--quick|--full]``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.experiments.reporting import Table, banner
from repro.hadoop import (
    JAVASORT_PROFILE,
    JobFailedError,
    JobSpec,
    run_hadoop_job,
)
from repro.mrmpi import MrMpiConfig, run_mpid_job, run_mpid_job_under_net_faults
from repro.simnet.cluster import ClusterSpec
from repro.simnet.faults import FaultPlan, FlowLossRate, NetworkPartition
from repro.util.units import GiB

#: Flow-kill rates, in expected kills per link-hour.
DEFAULT_RATES = (30.0, 120.0, 360.0, 900.0, 1800.0)
#: One-shot partition durations (seconds); the cut isolates three workers.
DEFAULT_PARTITIONS = (2.0, 5.0, 10.0, 20.0)
DEFAULT_SEEDS = (2011, 2012)
PARTITION_NODES = (5, 6, 7)
#: When the partition drops, as a fraction of the clean Hadoop makespan —
#: mid-job, when the shuffle is in flight.
PARTITION_AT_FRACTION = 0.4


@dataclass
class NetworkFaultsResult:
    """Mean elapsed per fault level for both systems, plus retry counters."""

    input_gb: float
    rates_per_link_hour: tuple[float, ...]
    partition_durations: tuple[float, ...]
    seeds: tuple[int, ...]
    partition_at: float = 0.0
    hadoop_clean: float = 0.0
    mpid_clean: float = 0.0
    # -- the loss-rate sweep ---------------------------------------------------
    hadoop: dict[float, float] = field(default_factory=dict)
    mpid: dict[float, float] = field(default_factory=dict)
    mpid_reliable: dict[float, float] = field(default_factory=dict)
    hadoop_dnf: dict[float, int] = field(default_factory=dict)
    mpid_dnf: dict[float, int] = field(default_factory=dict)
    #: Mean Hadoop shuffle counters per rate (fetch_retries,
    #: fetch_failures, maps_reexecuted_for_fetch).
    hadoop_shuffle: dict[float, dict] = field(default_factory=dict)
    mpid_restarts: dict[float, float] = field(default_factory=dict)
    mpid_retransmits: dict[float, float] = field(default_factory=dict)
    # -- the partition sweep -----------------------------------------------------
    hadoop_partition: dict[float, float] = field(default_factory=dict)
    mpid_partition: dict[float, float] = field(default_factory=dict)
    hadoop_partition_retries: dict[float, float] = field(default_factory=dict)
    mpid_partition_restarts: dict[float, float] = field(default_factory=dict)

    def hadoop_degradation(self, rate: float) -> float:
        return self.hadoop[rate] / self.hadoop_clean

    def mpid_degradation(self, rate: float) -> float:
        return self.mpid[rate] / self.mpid_clean

    def crossover_rate(self) -> Optional[float]:
        """Lowest loss rate where Hadoop's mean time beats baseline
        MPI-D's, linearly interpolated between the bracketing sweep
        points; None if the lines never cross in the swept range."""
        prev_rate: Optional[float] = None
        prev_diff: Optional[float] = None
        for rate in self.rates_per_link_hour:
            h, m = self.hadoop[rate], self.mpid[rate]
            if math.isinf(h):
                prev_rate, prev_diff = None, None
                continue
            diff = m - h  # positive once Hadoop is faster
            if diff > 0:
                if prev_diff is None or prev_rate is None or math.isinf(diff):
                    return rate
                span = diff - prev_diff
                frac = -prev_diff / span if span > 0 else 0.0
                return prev_rate + (rate - prev_rate) * frac
            prev_rate, prev_diff = rate, diff
        return None


def _spec(gb: float) -> JobSpec:
    return JobSpec(
        name=f"sort-{gb:g}g",
        input_bytes=int(gb * GiB),
        profile=JAVASORT_PROFILE,
    )


def run(
    input_gb: float = 1.0,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    rates_per_link_hour: tuple[float, ...] = DEFAULT_RATES,
    partition_durations: tuple[float, ...] = DEFAULT_PARTITIONS,
) -> NetworkFaultsResult:
    cluster_spec = ClusterSpec()
    #: Resubmission storms get expensive; 25 reruns is already a DNF story.
    mpid_cfg = MrMpiConfig(max_restarts=25)
    mpid_rel_cfg = MrMpiConfig(max_restarts=25, reliable_transport=True)
    spec = _spec(input_gb)
    result = NetworkFaultsResult(
        input_gb=input_gb,
        rates_per_link_hour=tuple(rates_per_link_hour),
        partition_durations=tuple(partition_durations),
        seeds=tuple(seeds),
    )
    clean = [run_hadoop_job(spec, seed=s) for s in seeds]
    result.hadoop_clean = float(np.mean([m.elapsed for m in clean]))
    result.mpid_clean = run_mpid_job(spec, cluster_spec=cluster_spec).elapsed
    result.partition_at = round(PARTITION_AT_FRACTION * result.hadoop_clean, 1)

    def mean_or_inf(xs: list[float]) -> float:
        return float(np.mean(xs))  # inf propagates, as it should

    for rate in result.rates_per_link_hour:
        h_times, m_times, r_times, m_restarts, m_retx = [], [], [], [], []
        h_dnf = m_dnf = 0
        shuffle_acc = {
            "fetch_retries": 0.0,
            "fetch_failures": 0.0,
            "maps_reexecuted_for_fetch": 0.0,
        }
        for seed in seeds:
            plan = FaultPlan(
                specs=(FlowLossRate(rate=rate / 3600.0),), seed=seed
            )
            try:
                hm = run_hadoop_job(spec, seed=seed, fault_plan=plan)
                h_times.append(hm.elapsed)
            except JobFailedError as err:
                hm = err.metrics
                h_times.append(float("inf"))
                h_dnf += 1
            for key in shuffle_acc:
                shuffle_acc[key] += getattr(hm, key)
            mm = run_mpid_job_under_net_faults(
                spec, plan, config=mpid_cfg, cluster_spec=cluster_spec
            )
            m_times.append(mm.elapsed)
            m_restarts.append(mm.restarts)
            if not mm.completed:
                m_dnf += 1
            rm = run_mpid_job_under_net_faults(
                spec, plan, config=mpid_rel_cfg, cluster_spec=cluster_spec
            )
            r_times.append(rm.elapsed)
            m_retx.append(rm.retransmits)
        result.hadoop[rate] = mean_or_inf(h_times)
        result.mpid[rate] = mean_or_inf(m_times)
        result.mpid_reliable[rate] = mean_or_inf(r_times)
        result.hadoop_dnf[rate] = h_dnf
        result.mpid_dnf[rate] = m_dnf
        result.hadoop_shuffle[rate] = {
            k: v / len(seeds) for k, v in shuffle_acc.items()
        }
        result.mpid_restarts[rate] = float(np.mean(m_restarts))
        result.mpid_retransmits[rate] = float(np.mean(m_retx))

    for duration in result.partition_durations:
        h_times, retries, m_times, m_restarts = [], [], [], []
        for seed in seeds:
            plan = FaultPlan(
                specs=(
                    NetworkPartition(
                        nodes=PARTITION_NODES,
                        at=result.partition_at,
                        duration=duration,
                    ),
                ),
                seed=seed,
            )
            try:
                hm = run_hadoop_job(spec, seed=seed, fault_plan=plan)
                h_times.append(hm.elapsed)
                retries.append(hm.fetch_retries)
            except JobFailedError:
                h_times.append(float("inf"))
            mm = run_mpid_job_under_net_faults(
                spec, plan, config=mpid_cfg, cluster_spec=cluster_spec
            )
            m_times.append(mm.elapsed)
            m_restarts.append(mm.restarts)
        result.hadoop_partition[duration] = mean_or_inf(h_times)
        result.mpid_partition[duration] = mean_or_inf(m_times)
        result.hadoop_partition_retries[duration] = float(np.mean(retries or [0.0]))
        result.mpid_partition_restarts[duration] = float(np.mean(m_restarts))
    return result


def _fmt(seconds: float, dnf: int = 0, total: int = 0) -> str:
    if math.isinf(seconds):
        return f"DNF ({dnf}/{total})" if total else "DNF"
    return f"{seconds:.1f}" + ("*" if dnf else "")


def format_report(result: NetworkFaultsResult) -> str:
    n = len(result.seeds)
    loss = Table(
        headers=(
            "kills/link-hr",
            "Hadoop (s)",
            "MPI-D (s)",
            "MPI-D rel. (s)",
            "fetch retries",
            "strikes",
            "maps re-run",
            "MPI-D restarts",
            "retransmits",
        ),
        title=(
            f"Sort {result.input_gb:g} GB on a lossy network "
            f"(mean of {n} seeds; Poisson flow kills per link)"
        ),
    )
    loss.add_row(
        "0 (clean)", f"{result.hadoop_clean:.1f}", f"{result.mpid_clean:.1f}",
        f"{result.mpid_clean:.1f}", 0.0, 0.0, 0.0, 0.0, 0.0,
    )
    for rate in result.rates_per_link_hour:
        s = result.hadoop_shuffle[rate]
        loss.add_row(
            f"{rate:g}",
            _fmt(result.hadoop[rate], result.hadoop_dnf[rate], n),
            _fmt(result.mpid[rate], result.mpid_dnf[rate], n),
            _fmt(result.mpid_reliable[rate]),
            s["fetch_retries"],
            s["fetch_failures"],
            s["maps_reexecuted_for_fetch"],
            result.mpid_restarts[rate],
            result.mpid_retransmits[rate],
        )
    part = Table(
        headers=(
            "partition (s)",
            "Hadoop (s)",
            "MPI-D (s)",
            "fetch retries",
            "MPI-D restarts",
        ),
        title=(
            f"One-shot partition of nodes {list(PARTITION_NODES)} at "
            f"t={result.partition_at:g}s"
        ),
    )
    for duration in result.partition_durations:
        part.add_row(
            f"{duration:g}",
            _fmt(result.hadoop_partition[duration]),
            _fmt(result.mpid_partition[duration]),
            result.hadoop_partition_retries[duration],
            result.mpid_partition_restarts[duration],
        )
    cross = result.crossover_rate()
    if cross is not None:
        headline = (
            f"crossover ≈ {cross:.0f} kills/link-hour: below it MPI-D's "
            f"clean-run speed absorbs the occasional rerun; above it "
            f"Hadoop's per-fetch retries win — the Section-V fault-"
            f"tolerance critique, restated for the network itself"
        )
    else:
        headline = (
            "no crossover in the swept range: MPI-D's rerun cost never "
            "exceeded Hadoop's retry cost here (sweep higher loss rates)"
        )
    notes = (
        "both systems face the identical per-seed kill timeline; the "
        "MPI-D baseline aborts on the first lost stream (whole-job "
        "resubmission), the reliable variant retransmits with "
        "TCP-RTO-style backoff.  A partition that shows MPI-D at zero "
        "restarts is not a bug: MPI-D's eager push drains its cross-node "
        "traffic in the first seconds of the map phase, so a mid-job cut "
        "lands on compute, while Hadoop's pull-based shuffle is still "
        "fetching and must ride it out"
    )
    return "\n\n".join(
        [
            banner("Network faults: retry (Hadoop) vs abort-and-rerun (MPI-D)"),
            loss.render(),
            part.render(),
            notes,
            headline,
        ]
    )


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
