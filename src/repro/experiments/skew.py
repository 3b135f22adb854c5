"""Partition skew: the hot-reducer pathology on both systems.

Figure 1's per-reducer spread comes partly from *key skew* — hash
partitioning sends Zipf-heavy keys to one unlucky reducer.  This
experiment drives a JavaSort-shaped job with increasingly skewed
partition weights through both the simulated Hadoop and the MPI-D
system, and also measures, on the functional plane, the real byte
imbalance a Zipf corpus induces under hash partitioning.

Run: ``python -m repro skew [--input-gb N]``
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import HashPartitioner
from repro.experiments.reporting import Table, banner
from repro.hadoop import HadoopConfig, JAVASORT_PROFILE, JobSpec, run_hadoop_job
from repro.mrmpi import MrMpiConfig, run_mpid_job
from repro.util.serde import serialized_size
from repro.util.units import GiB
from repro.workloads import ZipfTextGenerator


def skewed_weights(num_partitions: int, hot_share: float) -> tuple[float, ...]:
    """One hot partition holding ``hot_share`` of the data, rest uniform."""
    if not 0 < hot_share < 1:
        raise ValueError(f"hot share must be in (0,1): {hot_share}")
    cold = (1.0 - hot_share) / (num_partitions - 1)
    return (hot_share, *([cold] * (num_partitions - 1)))


@dataclass
class SkewResult:
    input_gb: int
    num_reduces: int
    #: hot-partition share -> (hadoop s, mpid s)
    times: dict[float, tuple[float, float]] = field(default_factory=dict)
    #: measured byte share of the hottest partition under real hashing
    zipf_hot_share: float = 0.0


def measure_zipf_imbalance(num_partitions: int = 8, lines: int = 3000) -> float:
    """Bytes per partition when Zipf words hash-partition (functional)."""
    gen = ZipfTextGenerator(vocab_size=5000, zipf_s=1.2, seed=31)
    part = HashPartitioner()
    bytes_per = np.zeros(num_partitions)
    for line in gen.lines(lines):
        for word in line.split():
            bytes_per[part.partition(word, num_partitions)] += serialized_size(
                word, 1
            )
    return float(bytes_per.max() / bytes_per.sum())


def run(
    input_gb: int = 4,
    num_reduces: int = 8,
    hot_shares: tuple[float, ...] = (0.125, 0.3, 0.5),
    seed: int = 2011,
) -> SkewResult:
    result = SkewResult(input_gb=input_gb, num_reduces=num_reduces)
    result.zipf_hot_share = measure_zipf_imbalance(num_reduces)
    for hot in hot_shares:
        weights = (
            None
            if abs(hot - 1.0 / num_reduces) < 1e-9
            else skewed_weights(num_reduces, hot)
        )
        spec = JobSpec(
            name=f"sort-skew-{hot}",
            input_bytes=input_gb * GiB,
            profile=JAVASORT_PROFILE,
            num_reduce_tasks=num_reduces,
            partition_weights=weights,
        )
        hadoop = run_hadoop_job(spec, config=HadoopConfig(), seed=seed).elapsed
        mpid = run_mpid_job(
            spec, config=MrMpiConfig(num_mappers=28, num_reducers=num_reduces)
        ).elapsed
        result.times[hot] = (hadoop, mpid)
    return result


def format_report(result: SkewResult) -> str:
    table = Table(
        headers=("hot partition share", "Hadoop (s)", "MPI-D (s)"),
        title=f"JavaSort {result.input_gb} GB, {result.num_reduces} reducers, "
        f"one hot partition",
    )
    for hot, (h, m) in sorted(result.times.items()):
        label = f"{hot * 100:.1f}%" + (
            " (uniform)" if abs(hot - 1.0 / result.num_reduces) < 1e-9 else ""
        )
        table.add_row(label, h, m)
    shares = sorted(result.times)
    h_cost = result.times[shares[-1]][0] / result.times[shares[0]][0]
    m_cost = result.times[shares[-1]][1] / result.times[shares[0]][1]
    summary = (
        f"going from {shares[0] * 100:.0f}% to {shares[-1] * 100:.0f}% hot "
        f"share costs Hadoop {h_cost:.2f}x and MPI-D {m_cost:.2f}x — skew "
        f"is a data problem no communication library fixes.\n"
        f"(measured: a Zipf(1.2) corpus hash-partitions its hottest of "
        f"{result.num_reduces} partitions to "
        f"{result.zipf_hot_share * 100:.0f}% of the bytes)"
    )
    return "\n\n".join([banner("Partition skew"), table.render(), summary])


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
