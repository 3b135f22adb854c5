"""Stragglers and speculative execution: the story behind Figure 1's outliers.

The paper deletes 56 reducer points "as their time reaches 4000 s" —
an entire scheduling wave of stragglers.  This experiment injects a
slow-disk node into the simulated cluster (a failing drive, the classic
production straggler) and measures the job three ways:

* healthy cluster,
* one straggler node, speculation off (0.20.2 with
  ``mapred.map.tasks.speculative.execution=false``),
* one straggler node, speculation on — duplicate attempts of slow maps
  race on healthy nodes.

Run: ``python -m repro stragglers [--input-gb N] [--seeds a,b] [--out DIR]``
(the three scenarios at every seed, :func:`sweep`);
``python -m repro trace stragglers`` records one speculative run observed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import Table, banner
from repro.hadoop import (
    HadoopConfig,
    HadoopSimulation,
    JAVASORT_PROFILE,
    JobMetrics,
    JobSpec,
    run_hadoop_job,
)
from repro.util.units import GiB

DEFAULT_SEEDS = (2011, 2012, 2013)


@dataclass
class StragglerResult:
    healthy: JobMetrics
    degraded: JobMetrics
    speculative: JobMetrics

    @property
    def degradation(self) -> float:
        return self.degraded.elapsed / self.healthy.elapsed

    @property
    def recovered(self) -> float:
        """Fraction of the straggler-induced slowdown speculation removed."""
        lost = self.degraded.elapsed - self.healthy.elapsed
        if lost <= 0:
            return 0.0
        won_back = self.degraded.elapsed - self.speculative.elapsed
        return won_back / lost


def run(
    input_gb: int = 4,
    slow_node: int = 3,
    slowdown: float = 6.0,
    seed: int = 2011,
) -> StragglerResult:
    spec = JobSpec(
        name=f"sort-{input_gb}g",
        input_bytes=input_gb * GiB,
        profile=JAVASORT_PROFILE,
    )
    base_cfg = HadoopConfig()
    spec_cfg = HadoopConfig(speculative_execution=True)
    return StragglerResult(
        healthy=run_hadoop_job(spec, config=base_cfg, seed=seed),
        degraded=run_hadoop_job(
            spec, config=base_cfg, seed=seed, disk_slowdown={slow_node: slowdown}
        ),
        speculative=run_hadoop_job(
            spec, config=spec_cfg, seed=seed, disk_slowdown={slow_node: slowdown}
        ),
    )


def sweep(
    input_gb: int = 4,
    slow_node: int = 3,
    slowdown: float = 6.0,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
) -> dict[int, StragglerResult]:
    """The three-scenario comparison across placement seeds."""
    return {
        seed: run(
            input_gb=input_gb, slow_node=slow_node, slowdown=slowdown, seed=seed
        )
        for seed in seeds
    }


def to_rows(results: dict[int, StragglerResult]) -> tuple[list[str], list[list]]:
    """One CSV row per (seed, scenario) with the speculation counters."""
    header = [
        "seed",
        "scenario",
        "elapsed_s",
        "avg_copy_s",
        "spec_map_attempts",
        "spec_map_wins",
        "spec_reduce_attempts",
        "spec_reduce_wins",
        "degradation_x",
        "recovered_frac",
    ]
    rows: list[list] = []
    for seed in sorted(results):
        r = results[seed]
        for label, m in (
            ("healthy", r.healthy),
            ("degraded", r.degraded),
            ("speculative", r.speculative),
        ):
            rows.append(
                [
                    seed,
                    label,
                    m.elapsed,
                    float(m.copy_times().mean()),
                    m.speculative_attempts,
                    m.speculative_wins,
                    m.speculative_reduce_attempts,
                    m.speculative_reduce_wins,
                    r.degradation,
                    r.recovered,
                ]
            )
    return header, rows


def to_json(results: dict[int, StragglerResult]) -> dict:
    """Per-seed full job histories of all three scenarios."""
    return {
        "experiment": "stragglers",
        "seeds": sorted(results),
        "runs": {
            str(seed): {
                "healthy": r.healthy.to_dict(),
                "degraded": r.degraded.to_dict(),
                "speculative": r.speculative.to_dict(),
                "degradation_x": r.degradation,
                "recovered_frac": r.recovered,
            }
            for seed, r in results.items()
        },
    }


def observed_run(
    attach,
    input_gb: int = 1,
    slow_node: int = 3,
    slowdown: float = 6.0,
    seed: int = 2011,
):
    """One observed straggler run with speculation on: process
    ``hadoop-stragglers``.

    The trace shows the duplicate ``map<N>.spec`` attempts racing their
    originals on healthy nodes while the slow disk drags its own lane.
    """
    sim = HadoopSimulation(
        spec=JobSpec(
            name=f"sort-{input_gb}g",
            input_bytes=input_gb * GiB,
            profile=JAVASORT_PROFILE,
        ),
        config=HadoopConfig(speculative_execution=True),
        seed=seed,
        disk_slowdown={slow_node: slowdown},
        observe=True,
    )
    attach("hadoop-stragglers", sim.obs)
    metrics = sim.run()
    return [("hadoop-stragglers", sim.obs)], {"hadoop-stragglers": metrics.elapsed}


def format_report(result: StragglerResult) -> str:
    table = Table(
        headers=("scenario", "job time (s)", "avg copy (s)", "spec attempts", "spec wins"),
    )
    for label, m in (
        ("healthy cluster", result.healthy),
        ("1 slow disk, no speculation", result.degraded),
        ("1 slow disk, speculation on", result.speculative),
    ):
        table.add_row(
            label,
            m.elapsed,
            float(m.copy_times().mean()),
            m.speculative_attempts,
            m.speculative_wins,
        )
    summary = (
        f"straggler cost: {result.degradation:.2f}x; speculation recovered "
        f"{result.recovered * 100:.0f}% of the lost time"
    )
    return "\n\n".join(
        [banner("Stragglers & speculative execution"), table.render(), summary]
    )


def format_sweep_report(results: dict[int, StragglerResult]) -> str:
    """The first seed's report plus the recovered range across seeds."""
    seeds = list(results)
    text = format_report(results[seeds[0]])
    if len(seeds) > 1:
        recs = [results[s].recovered for s in seeds]
        text += (
            f"\n\nacross seeds {','.join(map(str, seeds))}: speculation "
            f"recovered {min(recs) * 100:.0f}%–{max(recs) * 100:.0f}% "
            f"of the lost time"
        )
    return text


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
