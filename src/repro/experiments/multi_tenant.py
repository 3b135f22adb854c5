"""Multi-tenant sweep: offered load x scheduler policy x chaos.

The paper benchmarks one job at a time; production Hadoop clusters run
*queues* of them.  This sweep drives seeded open-loop arrival streams —
a batch tenant (Poisson Hadoop traffic), an interactive tenant (diurnal,
latency-sensitive), and a science tenant (bursty, part MPI-D gangs) —
through :class:`~repro.cluster.engine.MultiTenantEngine` on one shared
cluster, and asks how each scheduling policy holds up as offered load
climbs past capacity:

* **load** scales every tenant's arrival rate (2.0 = roughly twice what
  the cluster can absorb — the overload regime where admission control
  and fair-share matter);
* **policy** is ``fair`` / ``capacity`` / ``fifo`` (see
  ``docs/SCHEDULER.md``);
* **chaos** optionally overlays the PR-1/3 style fault plan (two node
  crashes plus a straggler) on top of the overload, so the per-tenant
  SLO numbers are measured while the cluster is *both* saturated and
  breaking.

Per (load, policy, chaos, seed) cell the engine reports per-tenant SLOs:
p50/p95/p99 job latency and queue wait, shed/failed/preempted counts,
and slot-second utilization.

Run: ``python -m repro tenants [--quick] [--loads 0.5,1] [--policies fair]
[--seeds a,b] [--horizon S] [--chaos false] [--out DIR]``;
``python -m repro trace tenants`` records one fully observed
chaos-under-load run for the replay dashboard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import (
    MultiTenantEngine,
    QueueConfig,
    SchedulerConfig,
    TenantSpec,
)
from repro.experiments.reporting import Table, banner
from repro.hadoop.config import HadoopConfig
from repro.simnet.faults import FaultPlan, NodeCrash, Straggler

DEFAULT_SEEDS = (2011, 2012, 2013)
DEFAULT_LOADS = (0.5, 1.0, 2.0)
DEFAULT_POLICIES = ("fair", "capacity", "fifo")
DEFAULT_HORIZON = 1800.0

#: Base (load = 1.0) arrival rates, jobs per second per tenant.  Tuned so
#: the default cluster sits near full utilization at 1.0: doubling them
#: is genuine overload — queues grow open-loop and shedding kicks in.
BASE_RATES = {"batch": 0.035, "interactive": 0.055, "science": 0.015}


def make_tenants(load: float) -> list[TenantSpec]:
    """The three-tenant traffic mix at an offered-load multiplier."""
    return [
        TenantSpec(
            name="batch",
            rate=BASE_RATES["batch"] * load,
            profile="poisson",
            workloads=("javaSort", "streamSort", "monsterQuery"),
            min_input_bytes=256 * 2**20,
            max_input_bytes=2 * 2**30,
        ),
        TenantSpec(
            name="interactive",
            rate=BASE_RATES["interactive"] * load,
            profile="diurnal",
            workloads=("webdataScan", "combiner"),
            max_input_bytes=256 * 2**20,
        ),
        TenantSpec(
            name="science",
            rate=BASE_RATES["science"] * load,
            profile="bursty",
            runtime="mixed",
            mpid_fraction=0.5,
            workloads=("javaSort", "webdataSort"),
            min_input_bytes=256 * 2**20,
            max_input_bytes=2**30,
        ),
    ]


def make_queues() -> list[QueueConfig]:
    """Capacity split matching the tenants' importance: interactive gets
    the biggest guaranteed share and the shortest queue (it would rather
    shed than wait), batch gets the deepest backlog."""
    return [
        QueueConfig(name="batch", weight=1.0, capacity=0.3, max_queued=64),
        QueueConfig(
            name="interactive", weight=2.0, capacity=0.45, max_queued=8
        ),
        QueueConfig(name="science", weight=1.0, capacity=0.25, max_queued=16),
    ]


def chaos_plan(seed: int) -> FaultPlan:
    """The PR-1/3 style chaos overlay: a transient crash early, a second
    crash mid-run, and a slow node through the middle of the horizon."""
    return FaultPlan(
        specs=(
            NodeCrash(node=3, at=200.0, restart_after=150.0),
            NodeCrash(node=5, at=600.0, restart_after=240.0),
            Straggler(node=2, at=300.0, factor=4.0, duration=400.0),
        ),
        seed=seed,
    )


@dataclass
class MultiTenantResult:
    """The full sweep: one engine report per cell per seed."""

    loads: tuple[float, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...]
    horizon: float
    #: cells[(load, policy, chaos)] -> {seed: engine report dict}
    cells: dict = field(default_factory=dict)

    def reports(self, load: float, policy: str, chaos: bool) -> dict:
        return self.cells[(load, policy, chaos)]


def run(
    loads: tuple[float, ...] = DEFAULT_LOADS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    chaos: tuple[bool, ...] = (False, True),
) -> MultiTenantResult:
    """Execute the whole sweep (pure function of its arguments)."""
    result = MultiTenantResult(
        loads=tuple(loads),
        policies=tuple(policies),
        seeds=tuple(seeds),
        horizon=horizon,
    )
    for load in result.loads:
        for policy in result.policies:
            for with_chaos in chaos:
                cell = {}
                for seed in result.seeds:
                    engine = MultiTenantEngine(
                        make_tenants(load),
                        scheduler=SchedulerConfig(policy=policy),
                        queues=make_queues(),
                        hadoop_config=HadoopConfig(map_slots=4, reduce_slots=4),
                        fault_plan=chaos_plan(seed) if with_chaos else None,
                        seed=seed,
                        horizon=horizon,
                    )
                    cell[seed] = engine.run()
                result.cells[(load, policy, with_chaos)] = cell
    return result


def to_rows(result: MultiTenantResult) -> tuple[list[str], list[list]]:
    """One CSV row per (cell, seed, tenant) with the full SLO readout."""
    header = [
        "load",
        "policy",
        "chaos",
        "seed",
        "tenant",
        "queue",
        "submitted",
        "completed",
        "failed",
        "shed",
        "unfinished",
        "latency_p50_s",
        "latency_p95_s",
        "latency_p99_s",
        "queue_wait_p50_s",
        "queue_wait_p95_s",
        "queue_wait_p99_s",
        "maps_preempted",
        "reduces_preempted",
        "slot_seconds",
        "utilization",
        "makespan_s",
    ]
    rows: list[list] = []
    for (load, policy, chaos), per_seed in sorted(
        result.cells.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
    ):
        for seed in result.seeds:
            report = per_seed[seed]
            for tenant, slo in sorted(report["tenants"].items()):
                rows.append(
                    [
                        load,
                        policy,
                        int(chaos),
                        seed,
                        tenant,
                        slo["queue"],
                        slo["submitted"],
                        slo["completed"],
                        slo["failed"],
                        slo["shed"],
                        slo["unfinished"],
                        slo["latency_p50"],
                        slo["latency_p95"],
                        slo["latency_p99"],
                        slo["queue_wait_p50"],
                        slo["queue_wait_p95"],
                        slo["queue_wait_p99"],
                        slo["maps_preempted"],
                        slo["reduces_preempted"],
                        slo["slot_seconds"],
                        slo["utilization"],
                        report["makespan"],
                    ]
                )
    return header, rows


def to_json(result: MultiTenantResult) -> dict:
    """The sweep with every per-cell engine report intact."""
    return {
        "experiment": "multi_tenant",
        "loads": list(result.loads),
        "policies": list(result.policies),
        "seeds": list(result.seeds),
        "horizon": result.horizon,
        "cells": {
            f"{load:g}x-{policy}-{'chaos' if chaos else 'clean'}": {
                str(seed): report for seed, report in per_seed.items()
            }
            for (load, policy, chaos), per_seed in sorted(
                result.cells.items(),
                key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]),
            )
        },
    }


def format_report(result: MultiTenantResult) -> str:
    """Terminal report: one table per (load, chaos) comparing policies."""
    sections = [banner("Multi-tenant scheduling under load (and chaos)")]
    for load in result.loads:
        for chaos in sorted({k[2] for k in result.cells}):
            title = (
                f"offered load {load:g}x"
                + (" + chaos (2 crashes, 1 straggler)" if chaos else "")
            )
            table = Table(
                headers=(
                    "policy",
                    "tenant",
                    "jobs",
                    "done",
                    "shed",
                    "p50 lat",
                    "p95 lat",
                    "p95 wait",
                    "preempt",
                    "util",
                ),
                title=title,
            )
            for policy in result.policies:
                if (load, policy, chaos) not in result.cells:
                    continue
                per_seed = result.cells[(load, policy, chaos)]
                report = per_seed[result.seeds[0]]
                for tenant, slo in sorted(report["tenants"].items()):
                    table.add_row(
                        policy,
                        tenant,
                        slo["submitted"],
                        slo["completed"],
                        slo["shed"],
                        slo["latency_p50"],
                        slo["latency_p95"],
                        slo["queue_wait_p95"],
                        slo["maps_preempted"] + slo["reduces_preempted"],
                        slo["utilization"],
                    )
            sections.append(table.render())
    sections.append(
        "Open-loop arrivals do not back off: past 1x the backlog grows "
        "until admission control sheds deterministically.  fair/capacity "
        "keep the interactive tenant's p95 flat by preempting batch maps; "
        "fifo lets one tenant's burst head-of-line block everyone."
    )
    return "\n\n".join(sections)


def observed_run(
    attach,
    load: float = 2.0,
    policy: str = "fair",
    seed: int = 2011,
    horizon: float = 900.0,
):
    """One fully observed chaos-under-load run: process
    ``tenants-<load>x-<policy>``.

    The trace shows every tenant's queue/dispatch/preempt spans on their
    own tracks next to the per-job map/shuffle work — the whole cluster's
    story under overload and faults, in Perfetto or the dashboard.
    """
    engine = MultiTenantEngine(
        make_tenants(load),
        scheduler=SchedulerConfig(policy=policy),
        queues=make_queues(),
        hadoop_config=HadoopConfig(map_slots=4, reduce_slots=4),
        fault_plan=chaos_plan(seed),
        seed=seed,
        horizon=horizon,
        observe=True,
    )
    engine.setup()
    name = f"tenants-{load:g}x-{policy}"
    attach(name, engine.sim.obs)
    report = engine.run()
    return [(name, engine.sim.obs)], {name: report["makespan"]}


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
