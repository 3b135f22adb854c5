"""Figure 6: WordCount — ordinary Hadoop vs the MPI-D simulation system.

The paper's configuration: 8 nodes (7 workers), 7/7 concurrent
map/reduce slots on Hadoop; on the MPI-D side 49 mapper processes, 1
reducer, 1 master.  Input from 1 GB to 100 GB.  The headline: MPI-D
reduces execution time to 8% / 48% / 56% of Hadoop at 1 / 10 / 100 GB.

Run: ``python -m repro fig6 [--full] [--sizes-gb 1,4]``.
``python -m repro trace fig6 --size 1GB`` runs one size observed
(:func:`observed_run`) and writes a Perfetto-loadable trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper
from repro.experiments.reporting import Table, banner, compare_to_paper
from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
from repro.hadoop.simulation import HadoopSimulation
from repro.mrmpi import MrMpiConfig
from repro.mrmpi.simulator import MrMpiSimulation
from repro.util.units import GiB, fmt_bytes

DEFAULT_SIZES_GB = (1, 4, 10)


@dataclass
class Fig6Result:
    """size (GiB) -> (hadoop seconds, mpid seconds)."""

    sizes_gb: tuple[int, ...]
    hadoop: dict[int, float] = field(default_factory=dict)
    mpid: dict[int, float] = field(default_factory=dict)
    #: Full per-task phase records (``JobMetrics.to_dict()`` /
    #: ``MrMpiMetrics.to_dict()``) per size — the JSON export's payload.
    hadoop_metrics: dict[int, dict] = field(default_factory=dict)
    mpid_metrics: dict[int, dict] = field(default_factory=dict)

    def ratio(self, gb: int) -> float:
        return self.mpid[gb] / self.hadoop[gb]


def _spec(gb: int) -> JobSpec:
    return JobSpec(
        name=f"wordcount-{gb}g",
        input_bytes=gb * GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )


def run(
    sizes_gb: tuple[int, ...] = DEFAULT_SIZES_GB,
    seed: int = 2011,
) -> Fig6Result:
    hadoop_cfg = HadoopConfig(map_slots=7, reduce_slots=7)
    mpid_cfg = MrMpiConfig(num_mappers=49, num_reducers=1)
    result = Fig6Result(sizes_gb=tuple(sizes_gb))
    for gb in sizes_gb:
        hm = HadoopSimulation(spec=_spec(gb), config=hadoop_cfg, seed=seed).run()
        result.hadoop[gb] = hm.elapsed
        result.hadoop_metrics[gb] = hm.to_dict()
        mm = MrMpiSimulation(spec=_spec(gb), config=mpid_cfg).run()
        result.mpid[gb] = mm.elapsed
        result.mpid_metrics[gb] = mm.to_dict()
    return result


def observed_run(attach, size: int = GiB, seed: int = 2011):
    """One observed WordCount of ``size`` bytes on both systems.

    The registry's observed-run function for ``repro trace fig6`` and
    ``repro replay fig6``: processes ``hadoop`` and ``mpid``.
    """
    spec = JobSpec(
        name=f"wordcount-{fmt_bytes(size)}",
        input_bytes=size,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )
    hsim = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(map_slots=7, reduce_slots=7),
        seed=seed,
        observe=True,
    )
    attach("hadoop", hsim.obs)
    hm = hsim.run()
    msim = MrMpiSimulation(
        spec=spec, config=MrMpiConfig(num_mappers=49, num_reducers=1), observe=True
    )
    attach("mpid", msim.obs)
    mm = msim.run()
    observers = [("hadoop", hsim.obs), ("mpid", msim.obs)]
    return observers, {"hadoop": hm.elapsed, "mpid": mm.elapsed}


def format_report(result: Fig6Result) -> str:
    table = Table(
        headers=("input", "Hadoop (s)", "MPI-D system (s)", "MPI-D/Hadoop"),
        title="WordCount execution time",
    )
    for gb in result.sizes_gb:
        table.add_row(
            f"{gb} GB",
            result.hadoop[gb],
            result.mpid[gb],
            f"{result.ratio(gb) * 100:.0f}%",
        )
    comparisons = []
    for gb in result.sizes_gb:
        published = paper.FIG6_RATIO.get(gb)
        comparisons.append(
            (f"MPI-D/Hadoop ratio @ {gb} GB", result.ratio(gb), published)
        )
        if gb in paper.FIG6_HADOOP_S:
            comparisons.append(
                (f"Hadoop time @ {gb} GB (s)", result.hadoop[gb], paper.FIG6_HADOOP_S[gb])
            )
        if gb in paper.FIG6_MPID_S:
            comparisons.append(
                (f"MPI-D time @ {gb} GB (s)", result.mpid[gb], paper.FIG6_MPID_S[gb])
            )
    biggest = max(result.sizes_gb)
    headline = (
        f"reduction at {biggest} GB: {(1 - result.ratio(biggest)) * 100:.0f}% "
        f"(paper: {paper.FIG6_HEADLINE_REDUCTION_AT_100GB * 100:.0f}% at 100 GB)"
    )
    return "\n\n".join(
        [
            banner("Figure 6: WordCount, Hadoop vs MPI-D simulation system"),
            table.render(),
            compare_to_paper(comparisons),
            headline,
        ]
    )


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
