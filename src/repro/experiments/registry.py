"""Every experiment, listed once.

Each :class:`Experiment` names one driver module and says how to call
it: the function that runs it (``run`` unless noted), the one that
renders its report, the ``--quick`` and ``--full`` keyword presets, the
files ``--out`` writes, and, for the six experiments ``repro trace``
can observe, the function that runs them observed.  ``python -m repro``
builds every command from this table (see :mod:`repro.__main__`); the
drivers themselves hold no command-line code.

Modules are imported only when an entry is used, so listing the table
stays cheap.  Nothing in :mod:`repro` imports this module at start-up.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.experiments import paper
from repro.util.units import GiB


@dataclass(frozen=True)
class Experiment:
    """One experiment: its command name, driver module and presets."""

    name: str
    #: Driver module under :mod:`repro.experiments`.
    module: str
    title: str
    quick: dict = field(default_factory=dict)
    full: dict = field(default_factory=dict)
    #: ``(file name, maker)`` pairs; a maker is ``"module.function"``
    #: under :mod:`repro.experiments` and takes the run's result.  A
    #: ``.csv`` maker returns ``(header, rows)``, a ``.json`` maker a
    #: JSON-ready object; ``None`` writes the result itself.
    exports: tuple[tuple[str, Optional[str]], ...] = ()
    #: Observed-run function ``f(attach, **params)``.  It builds its
    #: simulations with observers on, calls ``attach(name, obs)`` for
    #: each before running it (so a streaming trace store sees every
    #: event), and returns ``(observers, sim_elapsed)`` keyed by ``name``.
    observed: Optional[str] = None
    run: str = "run"
    report: str = "format_report"
    #: ``f(result) -> int`` exit status, for experiments that gate.
    gate: Optional[str] = None

    @property
    def path(self) -> str:
        return f"repro.experiments.{self.module}"

    def load(self):
        return importlib.import_module(self.path)

    def function(self, attr: str) -> Callable:
        return getattr(self.load(), attr)

    def preset(self, quick: bool = False, full: bool = False) -> dict:
        return dict(self.quick if quick else self.full if full else {})

    def write_exports(self, result, out_dir: Path) -> list[Path]:
        """Write this experiment's files for ``result`` into ``out_dir``."""
        from repro.experiments.export import render_csv

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for filename, maker in self.exports:
            data = result if maker is None else _resolve(maker)(result)
            path = out_dir / filename
            if path.suffix == ".csv":
                path.write_text(render_csv(*data), newline="")
            else:
                path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
            written.append(path)
        return written


def _resolve(ref: str) -> Callable:
    module, attr = ref.rsplit(".", 1)
    return getattr(importlib.import_module(f"repro.experiments.{module}"), attr)


def _csv_json(stem: str, csv_maker: str, json_maker: str):
    return ((f"{stem}.csv", csv_maker), (f"{stem}.json", json_maker))


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "fig1", "fig1_shuffle", "Figure 1: per-reducer copy/sort/reduce",
        full={"input_bytes": 150 * GiB},
        exports=(("fig1_shuffle.csv", "export.fig1_csv"),),
        observed="observed_run",
    ),
    Experiment(
        "table1", "table1_copy_pct", "Table I: copy-stage share grid",
        full={"sizes_gb": paper.TABLE1_SIZES_GB},
        exports=(("table1_copy_pct.csv", "export.table1_csv"),),
    ),
    Experiment(
        "fig2", "fig2_latency", "Figure 2: RPC vs MPICH2 latency",
        exports=(("fig2_latency.csv", "export.fig2_csv"),),
    ),
    Experiment(
        "fig3", "fig3_bandwidth", "Figure 3: RPC/Jetty/MPICH2 bandwidth",
        quick={"include_nio": True},
        exports=(("fig3_bandwidth.csv", "export.fig3_csv"),),
    ),
    Experiment(
        "fig6", "fig6_wordcount", "Figure 6: Hadoop vs MPI-D WordCount",
        full={"sizes_gb": (1, 10, 100)},
        exports=_csv_json(
            "fig6_wordcount", "export.fig6_csv", "export.fig6_json"
        ),
        observed="observed_run",
    ),
    Experiment(
        "ablation_combiner", "ablation_combiner", "ablation: local combining",
    ),
    Experiment(
        "ablation_partition", "ablation_partition",
        "ablation: partition-array size",
    ),
    Experiment(
        "ablation_compression", "ablation_compression",
        "ablation: realignment compression",
    ),
    Experiment(
        "ablation_scheduling", "ablation_scheduling",
        "ablation: heartbeat scheduling",
    ),
    Experiment("gridmix", "gridmix", "GridMix suite: Hadoop vs MPI-D"),
    Experiment("skew", "skew", "partition skew / hot-reducer pathology"),
    Experiment(
        "stragglers", "stragglers", "stragglers & speculative execution",
        exports=_csv_json(
            "stragglers", "stragglers.to_rows", "stragglers.to_json"
        ),
        observed="observed_run",
        run="sweep",
        report="format_sweep_report",
    ),
    Experiment("scalability", "scalability", "scalability sweep (future work 3)"),
    Experiment(
        "interconnect_whatif", "interconnect_whatif",
        "IB/SSD what-if (future work 4)",
    ),
    Experiment(
        "robustness", "robustness", "seed-robustness of the headline results"
    ),
    Experiment(
        "fault", "fault_tolerance", "node churn: Hadoop recovery vs MPI-D rerun",
        quick={"input_gb": 4, "seeds": (2011,), "keep_task_records": True},
        full={
            "rates_per_hour": (
                1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0
            ),
        },
        exports=_csv_json(
            "fault_tolerance",
            "export.fault_tolerance_csv",
            "export.fault_tolerance_json",
        ),
        observed="observed_run",
    ),
    Experiment(
        "network_faults", "network_faults",
        "lossy links: shuffle retries vs abort-and-rerun",
        quick={
            "input_gb": 1.0,
            "seeds": (2011, 2012),
            "rates_per_link_hour": (120.0, 900.0, 1800.0),
            "partition_durations": (5.0, 15.0),
        },
        full={
            "rates_per_link_hour": (
                15.0, 30.0, 60.0, 120.0, 360.0, 900.0, 1800.0, 3600.0
            ),
        },
        exports=_csv_json(
            "network_faults",
            "export.network_faults_csv",
            "export.network_faults_json",
        ),
    ),
    Experiment(
        "durability", "durability",
        "dying disks: HDFS re-replication vs static input",
        quick={
            "input_gb": 1.0,
            "seeds": (2011,),
            "rates_per_hour": (30.0, 120.0),
            "replications": (1, 2, 3),
        },
        exports=_csv_json(
            "durability", "export.durability_csv", "export.durability_json"
        ),
        observed="observed_run",
    ),
    Experiment(
        "critical_path", "critical_path",
        "critical-path blame + causal what-if validation",
        quick={"sizes_gb": (1.0, 4.0)},
        full={"sizes_gb": (1.0, 10.0, 50.0, 100.0)},
        exports=_csv_json(
            "critical_path",
            "export.critical_path_csv",
            "export.critical_path_json",
        ),
    ),
    Experiment(
        "tenants", "multi_tenant", "multi-tenant load x scheduler policy x chaos",
        quick={
            "loads": (1.0, 2.0),
            "policies": ("fair",),
            "seeds": (2011,),
            "horizon": 600.0,
            "chaos": (False, True),
        },
        exports=_csv_json(
            "multi_tenant", "multi_tenant.to_rows", "multi_tenant.to_json"
        ),
        observed="observed_run",
    ),
    Experiment(
        "capacity", "capacity",
        "capacity planning: validated scheduler what-ifs",
        quick={"quick": True},
        exports=(("capacity.json", None),),
        gate="exit_status",
    ),
)

BY_NAME: dict[str, Experiment] = {e.name: e for e in EXPERIMENTS}
BY_MODULE: dict[str, Experiment] = {e.path: e for e in EXPERIMENTS}
OBSERVED: dict[str, Experiment] = {
    e.name: e for e in EXPERIMENTS if e.observed is not None
}
