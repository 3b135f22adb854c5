"""Micro- and macro-benchmarks of the simulation engine.

Every benchmark here does two jobs at once:

1. **time** the fast path against the reference implementation
   (the fast max-min solver against ``_maxmin_rates_reference``), and
2. **verify** that both produce bit-for-bit identical simulated results
   — rates, completion times, exported metrics.

A benchmark that reports a speedup for a solver that diverged would be
worse than useless, so each result carries an ``identical`` flag and
:func:`run_bench` aggregates them into a top-level ``divergence`` bit
that the CLI (and the CI ``bench-smoke`` job) turns into a non-zero
exit status.

Timings use ``time.perf_counter``; micro-benchmarks report best-of-N
to shave scheduler noise, macro-benchmarks run once per solver (the
Figure-6 100 GB point is seconds, not microseconds).
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.simnet.kernel import Simulator
from repro.simnet.network import Network, use_solver

#: Paper testbed scale: 8 dual-NIC-ish nodes → star with 16 directed links.
_GIGE_BPS = 117e6


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


@dataclass
class BenchReport:
    """One harness run: micro + macro sections plus the divergence bit."""

    micro: dict = field(default_factory=dict)
    macro: dict = field(default_factory=dict)
    divergence: bool = False
    manifest: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def record(self, section: str, name: str, result: dict) -> None:
        getattr(self, section)[name] = result
        if result.get("identical") is False:
            self.divergence = True
        # A same-seed rerun that exports different bytes is as
        # disqualifying as a fast-vs-reference divergence.
        if result.get("deterministic") is False:
            self.divergence = True


def _best_of(fn: Callable[[], float], repeats: int) -> float:
    return min(fn() for _ in range(max(1, repeats)))


# ---------------------------------------------------------------------------
# micro: max-min solver
# ---------------------------------------------------------------------------


def _star_network(
    num_nodes: int, flows: int, caps_every: int, seed: int
) -> tuple[Simulator, Network]:
    """A star topology loaded with ``flows`` concurrent transfers.

    Every ``caps_every``-th flow carries a rate cap (the Hadoop-RPC
    virtual bottleneck), which is what makes the reference solver
    re-scan: each cap freeze restarts its link sweep.
    """
    sim = Simulator()
    net = Network(sim)
    links = []
    for n in range(num_nodes):
        links.append(
            (net.add_link(f"n{n}.up", _GIGE_BPS), net.add_link(f"n{n}.dn", _GIGE_BPS))
        )
    rng = random.Random(seed)
    for i in range(flows):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        while dst == src:
            dst = rng.randrange(num_nodes)
        cap = 20e6 + rng.random() * 50e6 if i % caps_every == 0 else float("inf")
        net.transfer_flow(
            (links[src][0], links[dst][1]), 1e12, rate_cap=cap
        )
    return sim, net


def bench_maxmin_solver(
    flows: int = 400,
    num_nodes: int = 16,
    caps_every: int = 4,
    repeats: int = 5,
    solves: int = 40,
    seed: int = 2011,
) -> dict:
    """Time one full max-min solve, fast vs reference, same flow state.

    The fast solver is forced through its worst case — every link dirty,
    one connected component spanning the whole star — so the measured
    gain is the solver kernel itself (sorted-once links, maintained
    unfrozen counts, the cap cursor and cap batching), not the
    incremental dirty-set bookkeeping.
    """

    def run_ref() -> float:
        _, net = _star_network(num_nodes, flows, caps_every, seed)
        t0 = time.perf_counter()
        for _ in range(solves):
            net._maxmin_rates_reference()
        return time.perf_counter() - t0

    def run_fast() -> float:
        _, net = _star_network(num_nodes, flows, caps_every, seed)
        t0 = time.perf_counter()
        for _ in range(solves):
            net._dirty.update(net._links.values())
            net._maxmin_rates_fast()
        return time.perf_counter() - t0

    # Equality first: same state, both solvers, rates keyed by flow seq.
    _, net = _star_network(num_nodes, flows, caps_every, seed)
    net._dirty.update(net._links.values())
    net._maxmin_rates_fast()
    fast_rates = {f.seq: f.rate for f in net._flows}
    net._maxmin_rates_reference()
    ref_rates = {f.seq: f.rate for f in net._flows}

    ref_s = _best_of(run_ref, repeats) / solves
    fast_s = _best_of(run_fast, repeats) / solves
    return {
        "flows": flows,
        "links": 2 * num_nodes,
        "capped_flows": len(range(0, flows, caps_every)),
        "solves": solves,
        "repeats": repeats,
        "reference_ms_per_solve": ref_s * 1e3,
        "fast_ms_per_solve": fast_s * 1e3,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
        "identical": fast_rates == ref_rates,
    }


def _churn_script(
    num_nodes: int, flows: int, kills_every: int, caps_every: int, seed: int
) -> tuple[Simulator, Network, list]:
    """Seeded arrival/kill churn over a star; returns the finish log.

    Arrivals are spread over time (so flow sets overlap but change),
    every ``kills_every``-th flow is killed mid-flight, and the log
    records ``(flow_seq, finish_time, ok)`` for an exact cross-solver
    comparison.
    """
    sim = Simulator()
    net = Network(sim)
    links = []
    for n in range(num_nodes):
        links.append(
            (net.add_link(f"n{n}.up", _GIGE_BPS), net.add_link(f"n{n}.dn", _GIGE_BPS))
        )
    rng = random.Random(seed)
    log: list = []

    def driver():
        live = []
        for i in range(flows):
            src = rng.randrange(num_nodes)
            dst = rng.randrange(num_nodes)
            while dst == src:
                dst = rng.randrange(num_nodes)
            cap = 30e6 + rng.random() * 60e6 if i % caps_every == 0 else float("inf")
            nbytes = 1e6 + rng.random() * 64e6
            flow = net.transfer_flow(
                (links[src][0], links[dst][1]), nbytes, rate_cap=cap
            )

            def _done(ev, f=flow):
                log.append((f.seq, sim.now, ev.ok))

            flow.done.callbacks.append(_done)
            flow.done.defuse()  # bench kills flows on purpose; don't raise
            live.append(flow)
            if i % kills_every == kills_every - 1:
                victim = live[rng.randrange(len(live))]
                net.fail_flow(victim, reason="bench-kill")
            yield sim.timeout(0.001 + rng.random() * 0.02)

    sim.process(driver(), name="churn-driver")
    return sim, net, log


def bench_maxmin_churn(
    flows: int = 600,
    num_nodes: int = 16,
    kills_every: int = 7,
    caps_every: int = 5,
    repeats: int = 3,
    seed: int = 2011,
) -> dict:
    """End-to-end churn: every start/finish/kill triggers a reallocation.

    This is the production shape of the win — the dirty-set skip path,
    component-restricted solves, and timer tombstones all participate.
    The finish log (flow seq, finish time, outcome) must match exactly.
    """

    def run_with(solver: str) -> tuple[float, list, float, dict]:
        with use_solver(solver):
            sim, net, log = _churn_script(
                num_nodes, flows, kills_every, caps_every, seed
            )
            t0 = time.perf_counter()
            end = sim.run()
            wall = time.perf_counter() - t0
        counters = {
            "rate_recomputes": net.rate_recomputes,
            "rate_recompute_flows": net.rate_recompute_flows,
            "rate_skips": net.rate_skips,
            "events_dispatched": sim.events_dispatched,
            "events_cancelled": sim.events_cancelled,
        }
        return wall, log, end, counters

    ref_wall, ref_log, ref_end, _ = run_with("reference")
    fast_wall, fast_log, fast_end, fast_counters = run_with("fast")
    for _ in range(repeats - 1):
        ref_wall = min(ref_wall, run_with("reference")[0])
        fast_wall = min(fast_wall, run_with("fast")[0])
    return {
        "flows": flows,
        "links": 2 * num_nodes,
        "repeats": repeats,
        "reference_s": ref_wall,
        "fast_s": fast_wall,
        "speedup": ref_wall / fast_wall if fast_wall > 0 else float("inf"),
        "identical": ref_log == fast_log and ref_end == fast_end,
        "sim_end": fast_end,
        "counters": fast_counters,
    }


# ---------------------------------------------------------------------------
# micro: kernel cancel
# ---------------------------------------------------------------------------


def _timer_storm(
    sim: Simulator, timers: int, cancel_fraction: float, seed: int
) -> float:
    """Schedule a seeded storm of timeouts, cancel a fraction, run."""
    rng = random.Random(seed)
    pending = []
    for _ in range(timers):
        pending.append(sim.timeout(0.001 + rng.random() * 2.0))
    if cancel_fraction > 0:
        n_cancel = int(timers * cancel_fraction)
        for ev in rng.sample(pending, n_cancel):
            ev.cancel()
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def bench_kernel_cancel(
    timers: int = 200_000,
    cancel_fraction: float = 0.9,
    repeats: int = 3,
    seed: int = 2011,
) -> dict:
    """The PR-3 retry/backoff shape: most timers are cancelled before firing.

    Tombstones make a cancel O(1); the bench shows what a 90 %-cancelled
    storm costs end-to-end (cancelled events still pop, but dispatch
    nothing).
    """
    run_s = _best_of(
        lambda: _timer_storm(Simulator(), timers, cancel_fraction, seed), repeats
    )
    sim = Simulator()
    _timer_storm(sim, timers, cancel_fraction, seed)
    return {
        "timers": timers,
        "cancel_fraction": cancel_fraction,
        "repeats": repeats,
        "run_s": run_s,
        "events_dispatched": sim.events_dispatched,
        "events_cancelled": sim.events_cancelled,
        "identical": sim.events_cancelled == int(timers * cancel_fraction),
    }


# ---------------------------------------------------------------------------
# macro: experiments, fast vs reference
# ---------------------------------------------------------------------------


def bench_fig6(
    sizes_gb: tuple[float, ...] = (1.0, 10.0, 100.0),
    seed: int = 2011,
    repeats: int = 5,
) -> dict:
    """Figure-6 WordCount at each size, fast vs reference max-min solver.

    The fast leg is the process default; the reference leg pins
    ``use_solver("reference")``, so the ratio measures the solver
    alone.  Exports (the full Hadoop and MPI-D metrics dicts) are
    serialised with sorted keys and compared as strings — bit-for-bit,
    the same check the determinism CI applies.  Each leg is timed
    best-of-N with the reference leg first, so the fast leg never gets
    the cold-cache run and neither leg wears the machine's background
    noise alone.
    """
    from repro.experiments import fig6_wordcount as f6

    per_size: dict = {}
    total_fast = total_ref = 0.0
    all_identical = True
    for size in sizes_gb:
        fast_s = ref_s = float("inf")
        fast = ref = None
        for _ in range(max(1, repeats)):
            # Collect the previous leg's cycle garbage (tens of
            # thousands of flow/event closures) *outside* the timed
            # window — each leg is measured on its own allocations.
            with use_solver("reference"):
                gc.collect()
                t0 = time.perf_counter()
                ref = f6.run(sizes_gb=(size,), seed=seed)
                ref_s = min(ref_s, time.perf_counter() - t0)
            gc.collect()
            t0 = time.perf_counter()
            fast = f6.run(sizes_gb=(size,), seed=seed)
            fast_s = min(fast_s, time.perf_counter() - t0)
        fast_json = json.dumps(
            {"hadoop": fast.hadoop_metrics, "mpid": fast.mpid_metrics},
            sort_keys=True,
        )
        ref_json = json.dumps(
            {"hadoop": ref.hadoop_metrics, "mpid": ref.mpid_metrics},
            sort_keys=True,
        )
        identical = fast_json == ref_json
        all_identical = all_identical and identical
        total_fast += fast_s
        total_ref += ref_s
        per_size[f"{size:g}"] = {
            "fast_s": fast_s,
            "reference_s": ref_s,
            "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
            "identical": identical,
        }
    return {
        "seed": seed,
        "sizes_gb": list(sizes_gb),
        "per_size": per_size,
        "total_fast_s": total_fast,
        "total_reference_s": total_ref,
        "speedup": total_ref / total_fast if total_fast > 0 else float("inf"),
        "identical": all_identical,
    }


def bench_network_faults(
    input_gb: float = 0.5,
    seeds: tuple[int, ...] = (2011,),
    rates: tuple[float, ...] = (120.0, 900.0),
    partitions: tuple[float, ...] = (5.0,),
) -> dict:
    """The lossy-network sweep, fast vs reference max-min solver."""
    from repro.experiments import network_faults as nf

    t0 = time.perf_counter()
    fast = nf.run(
        input_gb=input_gb,
        seeds=seeds,
        rates_per_link_hour=rates,
        partition_durations=partitions,
    )
    fast_s = time.perf_counter() - t0
    with use_solver("reference"):
        t0 = time.perf_counter()
        ref = nf.run(
            input_gb=input_gb,
            seeds=seeds,
            rates_per_link_hour=rates,
            partition_durations=partitions,
        )
        ref_s = time.perf_counter() - t0
    fast_json = json.dumps(asdict(fast), sort_keys=True, default=str)
    ref_json = json.dumps(asdict(ref), sort_keys=True, default=str)
    return {
        "input_gb": input_gb,
        "seeds": list(seeds),
        "rates_per_link_hour": list(rates),
        "partition_durations": list(partitions),
        "fast_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
        "identical": fast_json == ref_json,
    }


def _scalability_single_job(
    nodes: int, seed: int, mib_per_worker: int, profiler=None
) -> tuple[float, str, int, float]:
    """One Hadoop WordCount on an ``nodes``-node cluster, input scaled
    with the worker count.  Returns (wall s, export JSON, events
    dispatched, simulated elapsed).  ``profiler`` (a
    :class:`~repro.simnet.profiler.SelfProfiler`) rides an extra,
    untimed leg only — never the timed comparisons."""
    from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
    from repro.hadoop.simulation import HadoopSimulation
    from repro.simnet.cluster import ClusterSpec
    from repro.util.units import MiB

    workers = nodes - 1
    spec = JobSpec(
        name=f"scal-{nodes}n",
        input_bytes=workers * mib_per_worker * MiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=max(1, workers // 64),
    )
    hsim = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(),
        cluster_spec=ClusterSpec(num_nodes=nodes),
        seed=seed,
    )
    if profiler is not None:
        hsim.sim.attach_profiler(profiler)
    t0 = time.perf_counter()
    metrics = hsim.run()
    wall = time.perf_counter() - t0
    export = json.dumps(metrics.to_dict(), sort_keys=True)
    return wall, export, hsim.sim.events_dispatched, metrics.elapsed


def _scalability_multi_tenant(
    nodes: int, seed: int, horizon: float, profiler=None
) -> tuple[float, str, int, float]:
    """A two-tenant arrival stream on an ``nodes``-node cluster, arrival
    rates scaled with the cluster so the offered load per node is
    constant across sweep points."""
    from repro.cluster import (
        MultiTenantEngine,
        QueueConfig,
        SchedulerConfig,
        TenantSpec,
    )
    from repro.hadoop.config import HadoopConfig
    from repro.simnet.cluster import ClusterSpec

    scale = nodes / 100.0
    tenants = [
        TenantSpec(
            name="batch",
            rate=0.02 * scale,
            profile="poisson",
            workloads=("javaSort", "streamSort"),
            min_input_bytes=64 * 2**20,
            max_input_bytes=512 * 2**20,
        ),
        TenantSpec(
            name="interactive",
            rate=0.03 * scale,
            profile="diurnal",
            workloads=("webdataScan",),
            max_input_bytes=128 * 2**20,
        ),
    ]
    queues = [
        QueueConfig(name="batch", weight=1.0, capacity=0.55, max_queued=64),
        QueueConfig(
            name="interactive", weight=2.0, capacity=0.45, max_queued=16
        ),
    ]
    engine = MultiTenantEngine(
        tenants,
        scheduler=SchedulerConfig(policy="fair"),
        queues=queues,
        cluster_spec=ClusterSpec(num_nodes=nodes),
        hadoop_config=HadoopConfig(map_slots=4, reduce_slots=4),
        seed=seed,
        horizon=horizon,
    )
    if profiler is not None:
        engine.setup()
        engine.sim.attach_profiler(profiler)
    t0 = time.perf_counter()
    report = engine.run()
    wall = time.perf_counter() - t0
    export = json.dumps(report, sort_keys=True)
    return wall, export, engine.sim.events_dispatched, report["makespan"]


def bench_scalability(
    node_counts: tuple[int, ...] = (200, 500, 1000),
    seed: int = 2011,
    mib_per_worker: int = 32,
    horizon: float = 240.0,
    profile: bool = True,
) -> dict:
    """Synthetic large clusters: fast vs reference max-min solver.

    Per cluster size it runs a single Hadoop job (input scaled with
    workers, so heartbeat traffic dominates as the cluster grows) and a
    multi-tenant arrival stream, and reports wall time, dispatched-event
    counts, the solver speedup and two correctness bits:

    * ``identical`` — fast-solver exports == reference-solver exports,
      bit-for-bit (sorted-key JSON string compare);
    * ``deterministic`` — two same-seed fast runs export byte-identical
      results (the arena/slot reuse must not leak state between runs).

    When ``profile`` is set, one *extra, untimed* fast run per
    (nodes, kind) rides with a :class:`~repro.simnet.profiler.SelfProfiler`
    attached, and its wall-clock attribution snapshot lands in
    ``entry[kind]["self_profile"]``.  The profiler never touches the
    timed legs — the speedup numbers above are measured with the
    profiler detached, exactly as before.
    """
    from repro.simnet.profiler import SelfProfiler

    per_nodes: dict = {}
    total_fast = total_ref = 0.0
    all_identical = True
    for nodes in node_counts:
        entry: dict = {}
        for kind, runner in (
            (
                "single_job",
                lambda profiler=None: _scalability_single_job(
                    nodes, seed, mib_per_worker, profiler=profiler
                ),
            ),
            (
                "multi_tenant",
                lambda profiler=None: _scalability_multi_tenant(
                    nodes, seed, horizon, profiler=profiler
                ),
            ),
        ):
            with use_solver("reference"):
                ref_wall, ref_export, ref_events, sim_elapsed = runner()
            fast_wall, fast_export, fast_events, _ = runner()
            fast_wall2, fast_export2, _, _ = runner()
            fast_wall = min(fast_wall, fast_wall2)
            identical = fast_export == ref_export
            all_identical = all_identical and identical
            total_fast += fast_wall
            total_ref += ref_wall
            entry[kind] = {
                "fast_s": fast_wall,
                "reference_s": ref_wall,
                "speedup": ref_wall / fast_wall if fast_wall > 0 else float("inf"),
                "identical": identical,
                "deterministic": fast_export == fast_export2,
                "events_fast": fast_events,
                "events_reference": ref_events,
                "sim_elapsed_s": sim_elapsed,
            }
            if profile:
                prof = SelfProfiler(leg=f"{kind}@{nodes}")
                runner(profiler=prof)
                entry[kind]["self_profile"] = prof.snapshot()
        per_nodes[str(nodes)] = entry
    return {
        "seed": seed,
        "node_counts": list(node_counts),
        "mib_per_worker": mib_per_worker,
        "horizon_s": horizon,
        "per_nodes": per_nodes,
        "total_fast_s": total_fast,
        "total_reference_s": total_ref,
        "speedup": total_ref / total_fast if total_fast > 0 else float("inf"),
        "identical": all_identical,
        "deterministic": all(
            leg["deterministic"]
            for entry in per_nodes.values()
            for leg in entry.values()
        ),
    }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def run_bench(
    quick: bool = False,
    seed: int = 2011,
    sizes_gb: Optional[tuple[float, ...]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the full harness; ``quick`` shrinks every knob for CI smoke.

    The report's ``manifest`` is filled by the CLI (it owns wall-clock
    accounting); library callers get it empty.
    """
    say = progress or (lambda msg: None)
    report = BenchReport()
    if sizes_gb is None:
        sizes_gb = (1.0,) if quick else (1.0, 10.0, 100.0)
    micro_flows = 120 if quick else 400
    churn_flows = 150 if quick else 600
    timers = 30_000 if quick else 200_000
    repeats = 2 if quick else 3

    say("micro: max-min solver (full re-solve, worst case)")
    report.record(
        "micro",
        "maxmin_solver",
        bench_maxmin_solver(
            flows=micro_flows, repeats=repeats + 2, solves=10 if quick else 40, seed=seed
        ),
    )
    say("micro: max-min churn (incremental, production shape)")
    report.record(
        "micro",
        "maxmin_churn",
        bench_maxmin_churn(flows=churn_flows, repeats=repeats, seed=seed),
    )
    say("micro: kernel cancel storm (tombstones)")
    report.record(
        "micro", "kernel_cancel", bench_kernel_cancel(timers=timers, repeats=repeats, seed=seed)
    )
    # The micros above churned hundreds of thousands of timer objects;
    # collect the garbage and freeze the survivors so the macros' timed
    # legs never pay gen-2 scans over a heap they didn't allocate.  The
    # fast leg packs the same allocations into fewer wall seconds, so
    # stray GC pauses bias the *ratio*, not just the absolute numbers.
    gc.collect()
    gc.freeze()
    say(f"macro: Figure-6 WordCount at {', '.join(f'{s:g}' for s in sizes_gb)} GB")
    report.record(
        "macro",
        "fig6",
        bench_fig6(sizes_gb=sizes_gb, seed=seed, repeats=1 if quick else 5),
    )
    scal_nodes = (100,) if quick else (200, 500, 1000)
    say(
        "macro: scalability (solver A/B at "
        + ", ".join(str(n) for n in scal_nodes)
        + " nodes)"
    )
    report.record(
        "macro",
        "scalability",
        bench_scalability(
            node_counts=scal_nodes,
            seed=seed,
            mib_per_worker=16 if quick else 32,
            horizon=120.0 if quick else 240.0,
        ),
    )
    say("macro: network-fault sweep")
    if quick:
        report.record(
            "macro",
            "network_faults",
            bench_network_faults(
                input_gb=0.25, seeds=(seed,), rates=(900.0,), partitions=(5.0,)
            ),
        )
    else:
        report.record(
            "macro",
            "network_faults",
            bench_network_faults(input_gb=0.5, seeds=(seed,)),
        )
    return report
