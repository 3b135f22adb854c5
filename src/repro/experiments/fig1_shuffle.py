"""Figure 1: per-reducer copy/sort/reduce times, JavaSort on Hadoop.

The paper runs GridMix JavaSort over 150 GB on 7 workers with 8/8
slots and plots every reducer's copy, sort and reduce stage time.  The
default here is a 16 GB scale model (same wave structure, ~2 s of wall
time); ``--full`` runs the paper's 150 GB (about half a minute of wall
time, ~2400 reducers).

Run: ``python -m repro fig1 [--full] [--input-bytes 4GB]``;
``python -m repro trace fig1 --size 1GB`` runs it observed.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import paper
from repro.experiments.reporting import Table, banner, compare_to_paper
from repro.hadoop import HadoopConfig, JAVASORT_PROFILE, JobMetrics, JobSpec, run_hadoop_job
from repro.hadoop.simulation import HadoopSimulation
from repro.util.units import GiB, fmt_bytes


def run(input_bytes: int = 16 * GiB, seed: int = 2011) -> JobMetrics:
    """JavaSort at the paper's 8/8 slot configuration."""
    spec = JobSpec(
        name=f"javasort-{input_bytes // GiB}g",
        input_bytes=input_bytes,
        profile=JAVASORT_PROFILE,
    )
    return run_hadoop_job(spec, config=HadoopConfig(map_slots=8, reduce_slots=8), seed=seed)


def observed_run(attach, size: int = GiB, seed: int = 2011):
    """One observed JavaSort of ``size`` bytes: process ``hadoop``."""
    spec = JobSpec(
        name=f"javasort-{fmt_bytes(size)}",
        input_bytes=size,
        profile=JAVASORT_PROFILE,
    )
    sim = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(map_slots=8, reduce_slots=8),
        seed=seed,
        observe=True,
    )
    attach("hadoop", sim.obs)
    metrics = sim.run()
    return [("hadoop", sim.obs)], {"hadoop": metrics.elapsed}


def format_report(metrics: JobMetrics, show_reducers: int = 12) -> str:
    copy = metrics.copy_times()
    sort = metrics.sort_times()
    red = metrics.reduce_times()

    per_reducer = Table(
        headers=("reducer", "copy (s)", "sort (s)", "reduce (s)"),
        title=f"First {show_reducers} of {len(copy)} reducers",
    )
    for i in range(min(show_reducers, len(copy))):
        per_reducer.add_row(i, copy[i], sort[i], red[i])

    lifecycle = copy.sum() / (copy.sum() + sort.sum() + red.sum())
    comparisons = [
        ("avg copy (s)", float(copy.mean()), paper.FIG1_AVG_COPY_S),
        ("avg sort (s)", float(sort.mean()), paper.FIG1_AVG_SORT_S),
        ("avg reduce (s)", float(red.mean()), paper.FIG1_AVG_REDUCE_S),
        (
            "copy share of reducer lifecycle",
            float(lifecycle),
            paper.FIG1_COPY_SHARE_OF_REDUCER_LIFECYCLE,
        ),
    ]
    note = (
        "Note: paper values are for 150 GB; scale the input with --full "
        "for the direct comparison."
        if len(copy) < 2000
        else ""
    )
    dist = Table(
        headers=("stat", "copy (s)", "sort (s)", "reduce (s)"),
        title="Distribution over reducers",
    )
    for stat, fn in (("min", np.min), ("median", np.median), ("max", np.max)):
        dist.add_row(stat, float(fn(copy)), float(fn(sort)), float(fn(red)))

    blocks = [
        banner("Figure 1: copy/sort/reduce per reducer (JavaSort)"),
        f"job elapsed: {metrics.elapsed:.1f}s  maps: {len(metrics.map_tasks)}  "
        f"reducers: {len(metrics.reduce_tasks)}  locality: "
        f"{metrics.data_locality() * 100:.0f}%",
        per_reducer.render(),
        dist.render(),
        compare_to_paper(comparisons),
    ]
    if note:
        blocks.append(note)
    return "\n\n".join(blocks)


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
