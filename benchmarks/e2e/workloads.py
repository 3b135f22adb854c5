"""The benchmark's four workloads, built from the package's public API.

Each workload has a ``build(seed, scratch)`` that constructs every
simulation object (timed as set-up) and returns a zero-argument ``go``
that runs the event loops and collects the exports (timed as the run).
Only public constructors are used, so the benchmark measures what a user
of the library would run.

Importing this module imports the simulator; the child process times
exactly that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.cluster import MultiTenantEngine, QueueConfig, SchedulerConfig
from repro.experiments import paper
from repro.hadoop import JAVASORT_PROFILE, WORDCOUNT_PROFILE, HadoopConfig, JobSpec
from repro.hadoop.simulation import HadoopSimulation
from repro.mrmpi import MrMpiConfig
from repro.mrmpi.simulator import MrMpiSimulation
from repro.obs import TraceStoreWriter
from repro.simnet.cluster import ClusterSpec
from repro.util.units import GiB, MiB
from repro.workloads.gridmix_suite import suite_by_name


@dataclass
class RunOutput:
    """What one run of a workload produced."""

    #: JSON-serializable simulated results; its sorted-key sha256 pins the model.
    export: object
    #: Every simulated cluster the run used, for the ledger's counters.
    clusters: list
    #: Simulated seconds summed over the run's jobs.
    sim_elapsed: float
    #: Distance from the paper's figure in percentage points; None when
    #: the workload has no paper reference.
    fidelity_err_pts: Optional[float] = None
    #: Failed workload checks (empty on success).
    problems: list[str] = field(default_factory=list)
    #: Files the run wrote (streamed trace stores); digested with the export.
    files: list[Path] = field(default_factory=list)
    store_events: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], Callable[[], RunOutput]]
    #: Timed runs made even when ``--seconds`` has already passed, so
    #: every quartile rests on at least this many samples.
    min_runs: int


# -- Figure 6 WordCount: Hadoop 7/7 slots vs MPI-D 49 mappers, 8 nodes -------


def _wordcount_jobs(gb: int, seed: int, observe: bool = False):
    spec = JobSpec(
        name=f"wordcount-{gb}g",
        input_bytes=gb * GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )
    hsim = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(map_slots=7, reduce_slots=7),
        seed=seed,
        observe=observe,
    )
    msim = MrMpiSimulation(
        spec=spec,
        config=MrMpiConfig(num_mappers=49, num_reducers=1),
        seed=seed,
        observe=observe,
    )
    return hsim, msim


def _run_wordcount(gb: int, hsim: HadoopSimulation, msim: MrMpiSimulation) -> RunOutput:
    hm = hsim.run()
    mm = msim.run()
    problems = []
    if mm.elapsed <= 0:
        problems.append("MPI-D job did not finish")
    if not 0.0 <= hm.copy_fraction <= 1.0:
        problems.append(f"copy fraction {hm.copy_fraction} outside [0, 1]")
    ratio = mm.elapsed / hm.elapsed
    return RunOutput(
        export={"hadoop": hm.to_dict(), "mpid": mm.to_dict()},
        clusters=[hsim.cluster, msim.cluster],
        sim_elapsed=hm.elapsed + mm.elapsed,
        fidelity_err_pts=abs(ratio - paper.FIG6_RATIO[gb]) * 100,
        problems=problems,
    )


def build_wordcount(seed: int, scratch: Path) -> Callable[[], RunOutput]:
    hsim, msim = _wordcount_jobs(100, seed)
    return lambda: _run_wordcount(100, hsim, msim)


def build_traced_wordcount(seed: int, scratch: Path) -> Callable[[], RunOutput]:
    """Fig 6 at 10 GB with observation on, both jobs streamed to stores."""
    hsim, msim = _wordcount_jobs(10, seed, observe=True)
    writers = [
        TraceStoreWriter(scratch / f"{name}.jsonl", system=name).attach(job.obs)
        for name, job in (("hadoop-10g", hsim), ("mpid-10g", msim))
    ]

    def go() -> RunOutput:
        try:
            out = _run_wordcount(10, hsim, msim)
        finally:
            out_files = [w.close() for w in writers]
        out.files = out_files
        out.store_events = sum(w.events for w in writers)
        return out

    return go


# -- Table I javaSort grid: 1/3 GB x four slot configurations ----------------

#: Table I also has 9 GB; its four cells alone take four times as long
#: as these eight, which would leave too few timed runs in BENCHMARK.json's
#: run_seconds.
SORT_SIZES_GB = (1, 3)
SORT_SLOTS = {"4/2": (4, 2), "4/4": (4, 4), "8/8": (8, 8), "16/16": (16, 16)}


def build_sort_grid(seed: int, scratch: Path) -> Callable[[], RunOutput]:
    cells = [
        (
            gb,
            label,
            HadoopSimulation(
                spec=JobSpec(
                    name=f"sort-{gb}g-{label}",
                    input_bytes=gb * GiB,
                    profile=JAVASORT_PROFILE,
                ),
                config=HadoopConfig(map_slots=maps, reduce_slots=reduces),
                seed=seed,
            ),
        )
        for gb in SORT_SIZES_GB
        for label, (maps, reduces) in SORT_SLOTS.items()
    ]

    def go() -> RunOutput:
        export, problems, errors, elapsed = {}, [], [], 0.0
        for gb, label, hsim in cells:
            metrics = hsim.run()
            frac = metrics.copy_fraction
            if not 0.0 <= frac <= 1.0:
                problems.append(f"{gb}g {label}: copy fraction {frac} outside [0, 1]")
            export[f"{gb}g-{label}"] = metrics.to_dict()
            errors.append(abs(frac * 100 - paper.TABLE1_COPY_PCT[gb][label]))
            elapsed += metrics.elapsed
        return RunOutput(
            export=export,
            clusters=[hsim.cluster for _, _, hsim in cells],
            sim_elapsed=elapsed,
            fidelity_err_pts=sum(errors) / len(errors),
            problems=problems,
        )

    return go


# -- Two tenants on a 600-node fair-scheduled cluster -------------------------

TENANT_NODES = 600
#: Jobs arrive within this many simulated seconds.
TENANT_WINDOW = 60.0
TENANT_HADOOP = HadoopConfig(map_slots=4, reduce_slots=4)


def tenant_jobs() -> list[tuple[str, str, int]]:
    """(tenant, GridMix entry, input bytes) of every job, in the 2:3 mix of
    the scalability cell's two tenants.  The sizes are fixed quantiles of
    its log-uniform size ranges, so every seed offers the same load.  The
    cell's own random streams do not: scaled to 250 nodes, seeds 1 to 6
    submitted 8 to 20 jobs."""
    batch = [
        ("batch", ("javaSort", "streamSort")[i % 2], int(64 * MiB * 8 ** ((i + 0.5) / 8)))
        for i in range(8)
    ]
    interactive = [
        ("interactive", "webdataScan", int(64 * MiB * 2 ** ((i + 0.5) / 12)))
        for i in range(12)
    ]
    return batch + interactive


def _gridmix_spec(name: str, workload: str, input_bytes: int) -> JobSpec:
    entry = suite_by_name()[workload]
    maps = JobSpec(name, input_bytes=input_bytes, profile=entry.profile).num_map_tasks(
        TENANT_HADOOP.block_size
    )
    return JobSpec(
        name=name,
        input_bytes=input_bytes,
        profile=entry.profile,
        num_reduce_tasks=max(1, math.ceil(entry.reducers_per_map * maps)),
    )


def build_tenants(seed: int, scratch: Path) -> Callable[[], RunOutput]:
    """The seed draws the arrival times, the order of the jobs and each
    job's own seed (HDFS placement and task jitter)."""
    engine = MultiTenantEngine(
        scheduler=SchedulerConfig(policy="fair"),
        queues=[
            QueueConfig(name="batch", weight=1.0, capacity=0.55, max_queued=64),
            QueueConfig(name="interactive", weight=2.0, capacity=0.45, max_queued=16),
        ],
        cluster_spec=ClusterSpec(num_nodes=TENANT_NODES),
        hadoop_config=TENANT_HADOOP,
        seed=seed,
        horizon=TENANT_WINDOW,
    )
    rng = np.random.default_rng(seed)
    jobs = tenant_jobs()
    times = np.sort(rng.uniform(0.0, TENANT_WINDOW, len(jobs)))
    for at, index in zip(times, rng.permutation(len(jobs))):
        tenant, workload, input_bytes = jobs[index]
        engine.add_job(
            _gridmix_spec(f"{tenant}-{index}-{workload}", workload, input_bytes),
            at=float(at),
            tenant=tenant,
            seed=int(rng.integers(2**31)),
        )
    engine.setup()

    def go() -> RunOutput:
        report = engine.run()
        problems = []
        accounted = report["completed"] + report["shed"] + report["failed"]
        if accounted != report["jobs"] or report["unfinished"]:
            problems.append(
                f"{report['jobs']} submitted but {report['completed']} completed + "
                f"{report['shed']} shed + {report['failed']} failed, "
                f"{report['unfinished']} unfinished"
            )
        return RunOutput(
            export=report,
            clusters=[engine.cluster],
            sim_elapsed=report["makespan"],
            problems=problems,
        )

    return go


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wordcount", build_wordcount, min_runs=10),
        Workload("sort_grid", build_sort_grid, min_runs=7),
        Workload("tenants", build_tenants, min_runs=5),
        Workload("traced_wordcount", build_traced_wordcount, min_runs=10),
    )
}
