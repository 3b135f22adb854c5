"""Scalability: the paper's future-work item (3), measured.

"(3) to optimize the MPI-D library to exploit its potential, especially
improving scalability" — this experiment sweeps the cluster size at a
fixed 20 GB WordCount and reports both systems' job times and the
MPI-D/Hadoop ratio, showing where each stops scaling (Hadoop's
heartbeat-paced scheduling amortizes at scale; MPI-D's single reducer
becomes the ceiling).

Run: ``python -m repro scalability [--node-counts 3,8,16] [--input-gb N]``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.reporting import Table, banner
from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE, run_hadoop_job
from repro.mrmpi import MrMpiConfig, run_mpid_job
from repro.simnet.cluster import ClusterSpec
from repro.util.units import GiB

DEFAULT_NODES = (3, 5, 8, 12, 16)


@dataclass
class ScalabilityResult:
    """total nodes -> (hadoop s, mpid s)."""

    node_counts: tuple[int, ...]
    input_gb: int
    hadoop: dict[int, float] = field(default_factory=dict)
    mpid: dict[int, float] = field(default_factory=dict)

    def speedup(self, system: str) -> dict[int, float]:
        series = self.hadoop if system == "hadoop" else self.mpid
        base = series[self.node_counts[0]]
        return {n: base / series[n] for n in self.node_counts}


def run(
    node_counts: tuple[int, ...] = DEFAULT_NODES,
    input_gb: int = 20,
    seed: int = 2011,
) -> ScalabilityResult:
    result = ScalabilityResult(node_counts=tuple(node_counts), input_gb=input_gb)
    spec = JobSpec(
        name=f"wc-{input_gb}g",
        input_bytes=input_gb * GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )
    for nodes in node_counts:
        workers = nodes - 1
        cluster = ClusterSpec(num_nodes=nodes)
        result.hadoop[nodes] = run_hadoop_job(
            spec,
            config=HadoopConfig(map_slots=7, reduce_slots=7),
            cluster_spec=cluster,
            seed=seed,
        ).elapsed
        result.mpid[nodes] = run_mpid_job(
            spec,
            config=MrMpiConfig(num_mappers=7 * workers, num_reducers=1),
            cluster_spec=cluster,
        ).elapsed
    return result


def format_report(result: ScalabilityResult) -> str:
    table = Table(
        headers=("nodes", "Hadoop (s)", "MPI-D (s)", "ratio", "Hadoop speedup", "MPI-D speedup"),
        title=f"WordCount {result.input_gb} GB, workers = nodes - 1",
    )
    h_speed = result.speedup("hadoop")
    m_speed = result.speedup("mpid")
    for n in result.node_counts:
        table.add_row(
            n,
            result.hadoop[n],
            result.mpid[n],
            f"{result.mpid[n] / result.hadoop[n] * 100:.0f}%",
            f"{h_speed[n]:.2f}x",
            f"{m_speed[n]:.2f}x",
        )
    return "\n\n".join([banner("Scalability sweep (paper future work 3)"), table.render()])


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
