"""The GridMix suite end to end: does MPI-D's win generalize past WordCount?

Figure 6 compares one application.  This experiment runs the whole
GridMix mix (the benchmark family the paper's Section II draws from) at
a fixed input size on both the simulated Hadoop and the MPI-D system,
reporting per-workload times and ratios — the generalization check a
reviewer would ask for.

Run: ``python -m repro gridmix [--input-gb N]``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments.reporting import Table, banner
from repro.hadoop import HadoopConfig, JobSpec, run_hadoop_job
from repro.mrmpi import MrMpiConfig, run_mpid_job
from repro.util.units import GiB
from repro.workloads.gridmix_suite import GRIDMIX_SUITE, GridmixEntry


@dataclass
class GridmixResult:
    input_gb: int
    #: workload -> (hadoop s, mpid s)
    times: dict[str, tuple[float, float]] = field(default_factory=dict)

    def ratio(self, name: str) -> float:
        h, m = self.times[name]
        return m / h


def _reduce_tasks(entry: GridmixEntry, num_maps: int) -> int:
    return max(1, math.ceil(entry.reducers_per_map * num_maps))


def run(
    input_gb: int = 4,
    suite: tuple[GridmixEntry, ...] = GRIDMIX_SUITE,
    seed: int = 2011,
) -> GridmixResult:
    result = GridmixResult(input_gb=input_gb)
    hadoop_cfg = HadoopConfig(map_slots=7, reduce_slots=7)
    for entry in suite:
        num_maps = JobSpec(
            "probe", input_bytes=input_gb * GiB, profile=entry.profile
        ).num_map_tasks(hadoop_cfg.block_size)
        reducers = _reduce_tasks(entry, num_maps)
        spec = JobSpec(
            name=f"gridmix-{entry.name}",
            input_bytes=input_gb * GiB,
            profile=entry.profile,
            num_reduce_tasks=reducers,
        )
        hadoop = run_hadoop_job(spec, config=hadoop_cfg, seed=seed).elapsed
        mpid_cfg = MrMpiConfig(
            num_mappers=49, num_reducers=min(reducers, 14)
        )
        mpid = run_mpid_job(spec, config=mpid_cfg).elapsed
        result.times[entry.name] = (hadoop, mpid)
    return result


def format_report(result: GridmixResult) -> str:
    table = Table(
        headers=("workload", "Hadoop (s)", "MPI-D (s)", "MPI-D/Hadoop"),
        title=f"GridMix suite, {result.input_gb} GB per workload",
    )
    for name, (h, m) in result.times.items():
        table.add_row(name, h, m, f"{m / h * 100:.0f}%")
    ratios = [result.ratio(name) for name in result.times]
    summary = (
        f"MPI-D wins on {sum(1 for r in ratios if r < 1.0)}/{len(ratios)} "
        f"workloads; ratio range {min(ratios) * 100:.0f}%-"
        f"{max(ratios) * 100:.0f}%"
    )
    return "\n\n".join(
        [banner("GridMix suite: Hadoop vs MPI-D"), table.render(), summary]
    )


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
