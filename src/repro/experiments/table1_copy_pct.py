"""Table I: copy-stage share of total task time across sizes x slots.

The paper sweeps input sizes 1-150 GB against per-node slot
configurations 4/2, 4/4, 8/8, 16/16 and reports, for each cell,
``sum(copy stage time) / sum(all mappers' and reducers' execution
time)``.  The default sweep uses sizes 1-12 GB (same shape, seconds of
wall time); ``--full`` reproduces the paper's exact grid.

Run: ``python -m repro table1 [--full] [--sizes-gb 1,4]``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper
from repro.experiments.reporting import Table, banner
from repro.hadoop import HadoopConfig, JAVASORT_PROFILE, JobSpec, run_hadoop_job
from repro.util.units import GiB

SLOT_CONFIGS: dict[str, tuple[int, int]] = {
    "4/2": (4, 2),
    "4/4": (4, 4),
    "8/8": (8, 8),
    "16/16": (16, 16),
}

DEFAULT_SIZES_GB = (1, 2, 4, 8, 12)


@dataclass
class Table1Result:
    """size (GiB) -> slot config -> copy fraction (0-1)."""

    sizes_gb: tuple[int, ...]
    cells: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def min_pct(self) -> float:
        return min(v for row in self.cells.values() for v in row.values()) * 100

    @property
    def max_pct(self) -> float:
        return max(v for row in self.cells.values() for v in row.values()) * 100


def run(
    sizes_gb: tuple[int, ...] = DEFAULT_SIZES_GB,
    configs: dict[str, tuple[int, int]] | None = None,
    seed: int = 2011,
) -> Table1Result:
    configs = configs or SLOT_CONFIGS
    result = Table1Result(sizes_gb=tuple(sizes_gb))
    for gb in sizes_gb:
        row: dict[str, float] = {}
        for label, (map_slots, reduce_slots) in configs.items():
            metrics = run_hadoop_job(
                JobSpec(
                    name=f"sort-{gb}g-{label}",
                    input_bytes=gb * GiB,
                    profile=JAVASORT_PROFILE,
                ),
                config=HadoopConfig(map_slots=map_slots, reduce_slots=reduce_slots),
                seed=seed,
            )
            row[label] = metrics.copy_fraction
        result.cells[gb] = row
    return result


def format_report(result: Table1Result) -> str:
    configs = list(next(iter(result.cells.values())))
    table = Table(
        headers=("input", *configs),
        title="Copy-stage share of total mapper+reducer time (%)",
    )
    for gb in result.sizes_gb:
        table.add_row(
            f"{gb} GB", *[f"{result.cells[gb][c] * 100:.1f}%" for c in configs]
        )
    published = Table(
        headers=("input", *paper.TABLE1_SLOT_CONFIGS),
        title="Paper's Table I (for reference, sizes 1-150 GB)",
    )
    for gb in paper.TABLE1_SIZES_GB:
        published.add_row(
            f"{gb} GB",
            *[f"{paper.TABLE1_COPY_PCT[gb][c]}%" for c in paper.TABLE1_SLOT_CONFIGS],
        )
    summary = (
        f"measured range: {result.min_pct:.1f}% .. {result.max_pct:.1f}%   "
        f"(paper: {paper.TABLE1_MIN_PCT}% .. {paper.TABLE1_MAX_PCT}%)"
    )
    return "\n\n".join(
        [banner("Table I: copy-stage overhead"), table.render(), published.render(), summary]
    )


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
