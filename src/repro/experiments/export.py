"""CSV/JSON shapes of experiment results, for external plotting.

Each function here takes one experiment's result and returns either a
CSV table ``(header, rows)`` — exactly the series a plot needs, a column
per curve and a row per x value — or a JSON-ready dict.  Which files an
experiment writes is listed in :mod:`repro.experiments.registry`;
``python -m repro <name> --out results/`` (or ``python -m repro all
--quick --out results/``) writes them, so any plotting stack can
regenerate the paper's graphics from this repo's numbers without
rerunning the simulations.

Six JSON exports ride along with the CSVs: ``fig6_wordcount``,
``fault_tolerance``, ``network_faults``, ``durability``,
``critical_path`` and ``multi_tenant``.  The first two carry the *full*
per-task phase records (``JobMetrics.to_dict()`` — the machine-readable
job history), which the CSVs' aggregate rows deliberately drop.
``gridmix`` and ``ablation_compression`` export JSON only.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from typing import Sequence

from repro.obs.analysis import STAGES
from repro.util.units import GiB


def fig1_csv(m) -> tuple[list[str], list[list]]:
    """Per-reducer copy/sort/reduce rows (Figure 1's scatter data)."""
    header = ["reducer_id", "copy_s", "sort_s", "reduce_s"]
    rows = [
        [r.task_id, r.copy_time, r.sort_time, r.reduce_time]
        for r in sorted(m.reduce_tasks, key=lambda r: r.task_id)
    ]
    return header, rows


def fig2_csv(r) -> tuple[list[str], list[list]]:
    header = ["size_bytes", "hadoop_rpc_s", "mpich2_s", "ratio"]
    rows = [[n, r.rpc[n], r.mpich[n], r.ratio(n)] for n in r.sizes]
    return header, rows


def fig3_csv(r) -> tuple[list[str], list[list]]:
    names = list(r.series)
    header = ["packet_bytes"] + [n.replace("/", "_").replace(" ", "_") for n in names]
    rows = [[p] + [r.series[n][p] for n in names] for p in r.packets]
    return header, rows


def table1_csv(r) -> tuple[list[str], list[list]]:
    configs = list(next(iter(r.cells.values())))
    header = ["input_gb"] + [c.replace("/", "_") for c in configs]
    rows = [[gb] + [r.cells[gb][c] for c in configs] for gb in r.sizes_gb]
    return header, rows


def fig6_csv(r) -> tuple[list[str], list[list]]:
    header = ["input_gb", "hadoop_s", "mpid_s", "ratio"]
    rows = [[gb, r.hadoop[gb], r.mpid[gb], r.ratio(gb)] for gb in r.sizes_gb]
    return header, rows


def fig6_json(r) -> dict:
    """Full per-task phase records for every Figure-6 size."""
    return {
        "experiment": "fig6_wordcount",
        "sizes_gb": list(r.sizes_gb),
        "hadoop": {str(gb): r.hadoop_metrics[gb] for gb in r.sizes_gb},
        "mpid": {str(gb): r.mpid_metrics[gb] for gb in r.sizes_gb},
    }


def fault_tolerance_csv(r) -> tuple[list[str], list[list]]:
    """Failure-rate sweep rows (the fault-tolerance crossover data).

    Runs that never finished export an empty elapsed cell rather than
    ``inf``.
    """

    def cell(x: float):
        return "" if math.isinf(x) else x

    def why(rate: float) -> str:
        """One compact cell per rate: which runs died, of what, where and
        when.  The kind tag distinguishes computation loss (attempts ran
        out, master died) from data loss (``block_lost:<file>:<block>``)."""
        return "; ".join(
            f"seed{f['seed']}:{f.get('kind', 'unknown')}:node{f['node']}"
            f"@t{f['time']:.1f}" + (f":task{f['task']}" if f["task"] is not None else "")
            for f in r.hadoop_failures.get(rate, [])
            if f["time"] is not None
        )

    header = [
        "crashes_per_node_hour",
        "hadoop_s",
        "mpid_s",
        "hadoop_dnf",
        "mpid_dnf",
        "lost_trackers",
        "maps_reexecuted",
        "wasted_task_s",
        "mpid_restarts",
        "mpid_wasted_task_s",
        "hadoop_failure_why",
    ]
    rows: list[list] = [
        [0.0, r.hadoop_clean, r.mpid_clean, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, ""]
    ]
    for rate in r.rates_per_hour:
        f = r.hadoop_faults[rate]
        rows.append(
            [
                rate,
                cell(r.hadoop[rate]),
                cell(r.mpid[rate]),
                r.hadoop_dnf[rate],
                r.mpid_dnf[rate],
                f["lost_trackers"],
                f["maps_reexecuted"],
                f["wasted_task_seconds"],
                r.mpid_restarts[rate],
                r.mpid_wasted.get(rate, 0.0),
                why(rate),
            ]
        )
    return header, rows


def fault_tolerance_json(r) -> dict:
    """Per-seed job histories of the fault sweep (rate 0.0 = clean)."""
    return {
        "experiment": "fault_tolerance",
        "input_gb": r.input_gb,
        "seeds": list(r.seeds),
        "rates_per_hour": list(r.rates_per_hour),
        "hadoop_task_records": {
            str(rate): records for rate, records in r.hadoop_task_records.items()
        },
        "hadoop_failures": {
            str(rate): records for rate, records in r.hadoop_failures.items()
        },
        "mpid_faults": {str(rate): f for rate, f in r.mpid_faults.items()},
        "mpid_wasted_task_seconds": {
            str(rate): w for rate, w in r.mpid_wasted.items()
        },
    }


def network_faults_csv(r) -> tuple[list[str], list[list]]:
    """Loss-rate sweep rows (the lossy-network degradation curves).

    DNF runs export an empty elapsed cell rather than ``inf``; the
    partition sweep lives in the JSON export (different x-axis)."""

    def cell(x: float):
        return "" if math.isinf(x) else x

    header = [
        "kills_per_link_hour",
        "hadoop_s",
        "mpid_s",
        "mpid_reliable_s",
        "hadoop_dnf",
        "mpid_dnf",
        "fetch_retries",
        "fetch_failures",
        "maps_reexecuted_for_fetch",
        "mpid_restarts",
        "mpid_retransmits",
    ]
    rows: list[list] = [
        [0.0, r.hadoop_clean, r.mpid_clean, r.mpid_clean, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0]
    ]
    for rate in r.rates_per_link_hour:
        s = r.hadoop_shuffle[rate]
        rows.append(
            [
                rate,
                cell(r.hadoop[rate]),
                cell(r.mpid[rate]),
                cell(r.mpid_reliable[rate]),
                r.hadoop_dnf[rate],
                r.mpid_dnf[rate],
                s["fetch_retries"],
                s["fetch_failures"],
                s["maps_reexecuted_for_fetch"],
                r.mpid_restarts[rate],
                r.mpid_retransmits[rate],
            ]
        )
    return header, rows


def network_faults_json(r) -> dict:
    """Both sweeps (loss rate + partition duration) with the crossover."""

    def clean(x: float):
        return None if math.isinf(x) else x

    return {
        "experiment": "network_faults",
        "input_gb": r.input_gb,
        "seeds": list(r.seeds),
        "rates_per_link_hour": list(r.rates_per_link_hour),
        "partition_durations": list(r.partition_durations),
        "partition_at": r.partition_at,
        "hadoop_clean": r.hadoop_clean,
        "mpid_clean": r.mpid_clean,
        "crossover_rate_per_link_hour": r.crossover_rate(),
        "loss": {
            str(rate): {
                "hadoop_s": clean(r.hadoop[rate]),
                "mpid_s": clean(r.mpid[rate]),
                "mpid_reliable_s": clean(r.mpid_reliable[rate]),
                "hadoop_dnf": r.hadoop_dnf[rate],
                "mpid_dnf": r.mpid_dnf[rate],
                "hadoop_shuffle": r.hadoop_shuffle[rate],
                "mpid_restarts": r.mpid_restarts[rate],
                "mpid_retransmits": r.mpid_retransmits[rate],
            }
            for rate in r.rates_per_link_hour
        },
        "partition": {
            str(duration): {
                "hadoop_s": clean(r.hadoop_partition[duration]),
                "mpid_s": clean(r.mpid_partition[duration]),
                "hadoop_fetch_retries": r.hadoop_partition_retries[duration],
                "mpid_restarts": r.mpid_partition_restarts[duration],
            }
            for duration in r.partition_durations
        },
    }


def durability_csv(r) -> tuple[list[str], list[list]]:
    """Replication x disk-failure-rate rows (the durability crossover).

    One row per (replication, rate) cell; runs where no seed finished
    export an empty elapsed cell rather than ``inf``."""

    def cell(x: float):
        return "" if math.isinf(x) else x

    def why(cell_failures: list[dict]) -> str:
        return "; ".join(
            f"seed{f['seed']}:{f.get('kind', 'unknown')}@t{f['time']:.1f}"
            for f in cell_failures
            if f["time"] is not None
        )

    header = [
        "replication",
        "disk_fails_per_node_hour",
        "hadoop_s",
        "mpid_s",
        "hadoop_survival",
        "mpid_survival",
        "repair_bytes_x_input",
        "blocks_repaired",
        "blocks_lost",
        "read_failovers",
        "mpid_restarts",
        "mpid_data_lost",
        "hadoop_failure_why",
    ]
    rows: list[list] = []
    for repl in r.replications:
        rows.append(
            [repl, 0.0, r.hadoop_clean[repl], r.mpid_clean, 1.0, 1.0,
             0.0, 0.0, 0.0, 0.0, 0.0, 0, ""]
        )
        for rate in r.rates_per_hour:
            h = r.hadoop[(repl, rate)]
            m = r.mpid[(repl, rate)]
            rows.append(
                [
                    repl,
                    rate,
                    cell(h.elapsed),
                    cell(m.elapsed),
                    h.survival,
                    m.survival,
                    h.repair_overhead,
                    h.blocks_repaired,
                    h.blocks_lost,
                    h.read_failovers,
                    m.restarts,
                    m.data_lost,
                    why(h.failures),
                ]
            )
    return header, rows


def durability_json(r) -> dict:
    """The full durability sweep with per-cell records and crossovers."""

    def clean(x: float):
        return None if math.isinf(x) else x

    return {
        "experiment": "durability",
        "input_gb": r.input_gb,
        "seeds": list(r.seeds),
        "replications": list(r.replications),
        "rates_per_hour": list(r.rates_per_hour),
        "repair_bandwidth_cap": r.repair_bandwidth_cap,
        "hadoop_clean": {str(k): v for k, v in r.hadoop_clean.items()},
        "mpid_clean": r.mpid_clean,
        "crossover_rate_per_node_hour": {
            str(repl): r.crossover_rate(repl) for repl in r.replications
        },
        "cells": {
            f"{repl}x{rate:g}": {
                "hadoop": {
                    "elapsed_s": clean(h.elapsed),
                    "survival": h.survival,
                    "repair_bytes_x_input": h.repair_overhead,
                    "blocks_repaired": h.blocks_repaired,
                    "blocks_lost": h.blocks_lost,
                    "read_failovers": h.read_failovers,
                    "failures": h.failures,
                },
                "mpid": {
                    "elapsed_s": clean(m.elapsed),
                    "survival": m.survival,
                    "restarts": m.restarts,
                    "read_failovers": m.read_failovers,
                    "data_lost": m.data_lost,
                },
            }
            for repl in r.replications
            for rate in r.rates_per_hour
            for h, m in [(r.hadoop[(repl, rate)], r.mpid[(repl, rate)])]
        },
    }


def gridmix_json(r) -> dict:
    """Hadoop and MPI-D seconds per GridMix workload."""
    return {
        "experiment": "gridmix",
        "input_gb": r.input_gb,
        "workloads": {
            name: {"hadoop_s": h, "mpid_s": m} for name, (h, m) in r.times.items()
        },
    }


def ablation_compression_json(r) -> dict:
    """Wire bytes of the functional run and simulated sort seconds,
    uncompressed and compressed."""
    return {"experiment": "ablation_compression", **dataclasses.asdict(r)}


def critical_path_csv(r) -> tuple[list[str], list[list]]:
    """Per-size ``hadoop.phase`` blame rows: causal critical-path share
    per stage plus the Table-I counter share (spans vs JobMetrics)."""
    header = (
        ["input_gb", "makespan_s"]
        + [f"{stage}_blame_pct" for stage in STAGES]
        + ["copy_pct_spans", "copy_pct_counters"]
    )
    rows = [
        [
            row.input_bytes / GiB,
            row.makespan,
            *[row.cp_blame_pct.get(stage, 0.0) for stage in STAGES],
            row.span_copy_pct,
            row.counter_copy_pct,
        ]
        for row in r.rows
    ]
    return header, rows


def critical_path_json(r) -> dict:
    """The same blame sweep with the cross-check deltas spelled out."""
    return {
        "experiment": "critical_path",
        "seed": r.seed,
        "stages": list(STAGES),
        "rows": [
            {
                "input_gb": row.input_bytes / GiB,
                "makespan_s": row.makespan,
                "blame_pct": row.cp_blame_pct,
                "copy_pct_spans": row.span_copy_pct,
                "copy_pct_counters": row.counter_copy_pct,
                "cross_check_delta_pts": row.cross_check_delta,
            }
            for row in r.rows
        ],
    }


def obs_metrics_csv(observer) -> tuple[list[str], list[list]]:
    """One row per metric of a live :class:`~repro.obs.Observer`."""
    header, rows = observer.metrics.rows()
    return list(header), [list(row) for row in rows]


def obs_metrics_json(observer) -> dict:
    """Full metric dump (counters and histogram aggregates)."""
    return observer.metrics.to_dict()


def render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """CSV text of one table; every ``.csv`` export is written from it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
