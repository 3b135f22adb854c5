"""Fault tolerance: where does Hadoop's recovery beat MPI-D's rerun?

The paper's Section V names fault tolerance as the open problem of the
MPI-D approach: Hadoop re-executes the tasks of a lost node and keeps
going, while an MPI job aborts wholesale when any rank dies and must be
resubmitted.  This experiment quantifies that trade on the Figure-6
WordCount comparison: both systems face the *identical* seed-derived
Poisson node-crash timeline (crash, down ``restart_after`` seconds,
rejoin), swept over per-node failure rates.

At low rates MPI-D keeps its clean-run advantage — a rerun of a short
job is cheap.  As the rate climbs, the chance that a 7-worker MPI job
sees no crash for a full makespan decays exponentially and reruns pile
up, while Hadoop pays for each crash only the heartbeat-expiry detection
plus the lost attempts.  The report finds the **crossover failure
rate** where the Hadoop line dips below the MPI-D line.

Calibration note: Hadoop 0.20.2's default tasktracker expiry (600 s) is
longer than these whole jobs; like any sane operator of short jobs we
lower it (default 60 s) so detection isn't the entire story, and say so
in the report.

Run: ``python -m repro fault [--input-gb N] [--seeds a,b]
[--rates-per-hour r1,r2,...] [--checkpoint-interval SECS] [--quick|--full]``;
``python -m repro trace fault --size 1GB --rate 40`` records one churned
run observed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.experiments.reporting import Table, banner
from repro.hadoop import (
    HadoopConfig,
    HadoopSimulation,
    JobFailedError,
    JobSpec,
    WORDCOUNT_PROFILE,
    run_hadoop_job,
)
from repro.mrmpi import MrMpiConfig, run_mpid_job, run_mpid_job_under_faults
from repro.simnet.cluster import ClusterSpec
from repro.simnet.faults import CrashRate, FaultPlan
from repro.util.units import GiB, fmt_bytes

#: Per-node crash rates, in crashes per node-hour.
DEFAULT_RATES = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
DEFAULT_SEEDS = (2011, 2012, 2013)


@dataclass
class FaultToleranceResult:
    """Mean elapsed per failure rate for both systems, plus recovery cost."""

    input_gb: int
    rates_per_hour: tuple[float, ...]
    seeds: tuple[int, ...]
    expiry_interval: float
    restart_after: float
    checkpoint_interval: Optional[float]
    hadoop_clean: float = 0.0
    mpid_clean: float = 0.0
    hadoop: dict[float, float] = field(default_factory=dict)
    mpid: dict[float, float] = field(default_factory=dict)
    #: How many of the seeds' Hadoop runs died outright (out of attempts /
    #: master lost) at each rate; a rate where all died reports inf above.
    hadoop_dnf: dict[float, int] = field(default_factory=dict)
    mpid_dnf: dict[float, int] = field(default_factory=dict)
    hadoop_faults: dict[float, dict] = field(default_factory=dict)
    mpid_restarts: dict[float, float] = field(default_factory=dict)
    #: Mean MPI-D wasted seconds per rate (lost work + downtime +
    #: checkpoint tax) — symmetric with Hadoop's ``wasted_task_seconds``.
    mpid_wasted: dict[float, float] = field(default_factory=dict)
    #: Mean MPI-D fault counters per rate (``fault_summary`` records).
    mpid_faults: dict[float, dict] = field(default_factory=dict)
    #: Full per-task records when ``keep_task_records=True``:
    #: rate -> [JobMetrics.to_dict() per seed] (rate 0.0 = clean runs).
    hadoop_task_records: dict[float, list[dict]] = field(default_factory=dict)
    #: Why each Hadoop DNF died: rate -> one record per failed seed with
    #: the seed, the reason string, and the structured (node, task, time)
    #: triple behind it — a DNF cell stops being a mystery number.
    hadoop_failures: dict[float, list[dict]] = field(default_factory=dict)

    def crossover_rate(self) -> Optional[float]:
        """Lowest rate where Hadoop's mean time beats MPI-D's, linearly
        interpolated between the bracketing sweep points; None if the
        lines never cross in the swept range."""
        prev_rate: Optional[float] = None
        prev_diff: Optional[float] = None
        for rate in self.rates_per_hour:
            h, m = self.hadoop[rate], self.mpid[rate]
            if math.isinf(h):
                prev_rate, prev_diff = None, None  # Hadoop DNF: no win here
                continue
            diff = m - h  # positive once Hadoop is faster
            if diff > 0:
                if prev_diff is None or prev_rate is None:
                    return rate
                if math.isinf(diff):
                    return rate
                span = diff - prev_diff
                frac = -prev_diff / span if span > 0 else 0.0
                return prev_rate + (rate - prev_rate) * frac
            prev_rate, prev_diff = rate, diff
        return None


def classify_failure(reason: Optional[str]) -> str:
    """Compress a ``JobMetrics.failure_reason`` string into a stable kind.

    Storage-loss reasons (``block_lost:<file>:<block>``) pass through
    verbatim — the lost block *is* the diagnosis.  The free-text reasons
    the JobTracker writes become compact machine-readable tags, so sweep
    exports can group DNFs by cause instead of by prose.
    """
    if not reason:
        return "unknown"
    if reason.startswith("block_lost:"):
        return reason
    m = re.match(r"(map|reduce) (\d+) failed (\d+) attempts", reason)
    if m:
        return f"{m.group(1)}_attempts:{m.group(3)}"
    if reason.startswith("master node 0 lost"):
        return "master_lost"
    if reason.startswith("all tasktrackers lost"):
        return "all_trackers_lost"
    return "other"


def _failure_record(seed: int, hm) -> dict:
    return {
        "seed": seed,
        "reason": hm.failure_reason,
        "kind": classify_failure(hm.failure_reason),
        "node": hm.failure_node,
        "task": hm.failure_task,
        "time": hm.failure_time,
    }


def _spec(gb: int) -> JobSpec:
    return JobSpec(
        name=f"wordcount-{gb}g",
        input_bytes=gb * GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )


def run(
    input_gb: int = 10,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    rates_per_hour: tuple[float, ...] = DEFAULT_RATES,
    restart_after: float = 30.0,
    expiry_interval: float = 60.0,
    checkpoint_interval: Optional[float] = None,
    keep_task_records: bool = False,
) -> FaultToleranceResult:
    cluster_spec = ClusterSpec()
    workers = tuple(range(1, cluster_spec.num_nodes))
    hadoop_cfg = HadoopConfig(
        map_slots=7, reduce_slots=7, tasktracker_expiry_interval=expiry_interval
    )
    mpid_cfg = MrMpiConfig(
        num_mappers=49,
        num_reducers=1,
        checkpoint_interval=checkpoint_interval,
    )
    spec = _spec(input_gb)
    result = FaultToleranceResult(
        input_gb=input_gb,
        rates_per_hour=tuple(rates_per_hour),
        seeds=tuple(seeds),
        expiry_interval=expiry_interval,
        restart_after=restart_after,
        checkpoint_interval=checkpoint_interval,
    )
    clean_metrics = [run_hadoop_job(spec, config=hadoop_cfg, seed=s) for s in seeds]
    result.hadoop_clean = float(np.mean([m.elapsed for m in clean_metrics]))
    if keep_task_records:
        result.hadoop_task_records[0.0] = [m.to_dict() for m in clean_metrics]
    # MPI-D has no placement randomness: one clean run, reused everywhere.
    result.mpid_clean = run_mpid_job(
        spec, config=mpid_cfg, cluster_spec=cluster_spec
    ).elapsed

    for rate in result.rates_per_hour:
        h_times, m_times, m_restarts, m_wasted = [], [], [], []
        h_dnf = m_dnf = 0
        fault_acc: dict[str, float] = {
            "lost_trackers": 0.0,
            "maps_reexecuted": 0.0,
            "wasted_task_seconds": 0.0,
        }
        m_fault_acc: dict[str, float] = {}
        rate_records: list[dict] = []
        for seed in seeds:
            plan = FaultPlan(
                specs=(
                    CrashRate(
                        rate=rate / 3600.0,
                        nodes=workers,
                        restart_after=restart_after,
                    ),
                ),
                seed=seed,
            )
            try:
                hm = run_hadoop_job(
                    spec, config=hadoop_cfg, seed=seed, fault_plan=plan
                )
                h_times.append(hm.elapsed)
            except JobFailedError as err:
                hm = err.metrics
                h_times.append(float("inf"))
                h_dnf += 1
                result.hadoop_failures.setdefault(rate, []).append(
                    _failure_record(seed, hm)
                )
            for key in fault_acc:
                fault_acc[key] += getattr(hm, key)
            if keep_task_records:
                rate_records.append(hm.to_dict())
            mm = run_mpid_job_under_faults(
                spec,
                plan,
                config=mpid_cfg,
                cluster_spec=cluster_spec,
                nodes=workers,
                clean_elapsed=result.mpid_clean,
            )
            m_times.append(mm.elapsed)
            m_restarts.append(mm.restarts)
            m_wasted.append(mm.wasted_task_seconds)
            for key, value in mm.fault_summary().items():
                m_fault_acc[key] = m_fault_acc.get(key, 0.0) + value
            if not mm.completed:
                m_dnf += 1
        result.hadoop[rate] = float(np.mean(h_times))
        result.mpid[rate] = float(np.mean(m_times))
        result.hadoop_dnf[rate] = h_dnf
        result.mpid_dnf[rate] = m_dnf
        result.hadoop_faults[rate] = {
            k: v / len(seeds) for k, v in fault_acc.items()
        }
        result.mpid_restarts[rate] = float(np.mean(m_restarts))
        result.mpid_wasted[rate] = float(np.mean(m_wasted))
        result.mpid_faults[rate] = {
            k: v / len(seeds) for k, v in m_fault_acc.items()
        }
        if keep_task_records:
            result.hadoop_task_records[rate] = rate_records
    return result


def _fmt_time(seconds: float, dnf: int, total: int) -> str:
    if math.isinf(seconds):
        return f"DNF ({dnf}/{total})"
    if dnf:
        return f"{seconds:.1f}*"
    return f"{seconds:.1f}"


def format_report(result: FaultToleranceResult) -> str:
    n = len(result.seeds)
    table = Table(
        headers=(
            "crashes/node-hr",
            "Hadoop (s)",
            "MPI-D (s)",
            "lost trackers",
            "maps re-run",
            "wasted task-s",
            "MPI-D restarts",
            "MPI-D wasted-s",
        ),
        title=(
            f"WordCount {result.input_gb} GB under Poisson node churn "
            f"(mean of {n} seeds; down {result.restart_after:.0f}s per crash)"
        ),
    )
    table.add_row(
        "0 (clean)", f"{result.hadoop_clean:.1f}", f"{result.mpid_clean:.1f}",
        0.0, 0.0, 0.0, 0.0, 0.0,
    )
    for rate in result.rates_per_hour:
        f = result.hadoop_faults[rate]
        table.add_row(
            f"{rate:g}",
            _fmt_time(result.hadoop[rate], result.hadoop_dnf[rate], n),
            _fmt_time(result.mpid[rate], result.mpid_dnf[rate], n),
            f["lost_trackers"],
            f["maps_reexecuted"],
            f["wasted_task_seconds"],
            result.mpid_restarts[rate],
            result.mpid_wasted.get(rate, 0.0),
        )
    notes = [
        f"tasktracker expiry lowered to {result.expiry_interval:.0f}s "
        f"(0.20.2 default 600s dwarfs these short jobs); "
        f"both systems replay the identical per-seed crash timeline",
    ]
    if result.checkpoint_interval is not None:
        notes.append(
            f"MPI-D checkpointing every {result.checkpoint_interval:.0f}s of progress"
        )
    cross = result.crossover_rate()
    if cross is not None:
        headline = (
            f"crossover ≈ {cross:.1f} crashes/node-hour: below it MPI-D's "
            f"clean-run speed wins despite whole-job reruns; above it "
            f"Hadoop's task-level recovery wins — the Section-V trade, "
            f"quantified"
        )
    else:
        headline = (
            "no crossover in the swept range: MPI-D's rerun cost never "
            "exceeded Hadoop's recovery cost here (sweep higher rates or "
            "larger inputs)"
        )
    return "\n\n".join(
        [
            banner("Fault tolerance: recovery (Hadoop) vs rerun (MPI-D)"),
            table.render(),
            "; ".join(notes),
            headline,
        ]
    )


def observed_run(attach, size: int = GiB, seed: int = 2011, rate: float = 40.0):
    """One observed Hadoop WordCount under ``rate`` crashes/node-hour.

    Process ``hadoop-faulted``.  The trace shows the fault instants, the
    killed task attempts (aborted spans) and the re-executions — the
    recovery story of one churned run, loadable in Perfetto.
    """
    plan = FaultPlan(
        specs=(
            CrashRate(
                rate=rate / 3600.0,
                nodes=tuple(range(1, ClusterSpec().num_nodes)),
                restart_after=30.0,
            ),
        ),
        seed=seed,
    )
    sim = HadoopSimulation(
        spec=JobSpec(
            name=f"wordcount-{fmt_bytes(size)}",
            input_bytes=size,
            profile=WORDCOUNT_PROFILE,
            num_reduce_tasks=1,
        ),
        config=HadoopConfig(
            map_slots=7, reduce_slots=7, tasktracker_expiry_interval=60.0
        ),
        seed=seed,
        fault_plan=plan,
        observe=True,
    )
    attach("hadoop-faulted", sim.obs)
    try:
        metrics = sim.run()
    except JobFailedError as err:
        metrics = err.metrics
    return [("hadoop-faulted", sim.obs)], {"hadoop-faulted": metrics.elapsed}


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
