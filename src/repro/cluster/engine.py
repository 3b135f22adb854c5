"""Multi-tenant engine: many jobs, one cluster, one kernel.

:class:`MultiTenantEngine` drives an open-loop arrival stream (or
hand-submitted jobs) through the :class:`~repro.cluster.scheduler.
ClusterScheduler` onto a single shared simnet cluster.  Hadoop jobs run
elastically — their JobTrackers poll the scheduler for slot grants on
every heartbeat that has a task to place — while MPI-D jobs gang-reserve
every rank's slot atomically (optionally preempting Hadoop work to make
room).  Fault plans apply cluster-wide: one injector, with crash/restart
fan-out to every live job.

Overload is a first-class regime, not an error:

* admission control sheds jobs past each queue's ``max_queued`` backlog,
  deterministically, before they cost anything;
* dispatch caps (``max_running``) bound the number of concurrent
  JobTrackers, so the backlog waits in O(1) state instead of thrashing;
* slot grants round up from fractional entitlements, so every running
  job keeps making progress — there is no circular wait anywhere in the
  design (slots are polled, never blocked on), hence no deadlock.

Everything — arrivals, scheduling, preemption, shedding — is driven by
the one seeded kernel, so a run is bit-for-bit reproducible and the
whole thing composes with `repro.obs` tracing and the replay dashboard.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.arrivals import (
    Arrival,
    TenantSpec,
    build_arrivals,
    offered_load_summary,
)
from repro.cluster.scheduler import ClusterScheduler, QueueConfig, SchedulerConfig
from repro.hadoop.config import HadoopConfig
from repro.hadoop.job import JobSpec
from repro.hadoop.simulation import HadoopSimulation, JobFailedError
from repro.mrmpi.config import MrMpiConfig
from repro.mrmpi.simulator import MpiJobAborted, MrMpiSimulation
from repro.obs import Observer
from repro.simnet.cluster import Cluster, ClusterSpec
from repro.simnet.faults import FaultInjector, FaultPlan
from repro.simnet.kernel import Interrupt, Simulator
from repro.util.rng import make_rng
from repro.workloads.gridmix_suite import suite_by_name


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class JobRecord:
    """One submission's life, from arrival to the report."""

    job_id: int
    tenant: str
    queue: str
    name: str
    runtime: str  # "hadoop" | "mpid"
    workload: str
    input_bytes: int
    submitted_at: float
    seed: int
    dispatched_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: "done" | "failed" | "shed" | None (= still queued/running).
    outcome: Optional[str] = None
    failure: Optional[str] = None
    elapsed: float = 0.0
    maps_preempted: int = 0
    reduces_preempted: int = 0
    #: The finished job's full metrics object (JobMetrics/MrMpiMetrics);
    #: not serialized into :meth:`to_dict` — use it for deep dives.
    metrics: Optional[object] = None
    _queue_sid: int = 0
    _run_sid: int = 0

    @property
    def queue_wait(self) -> float:
        if self.dispatched_at is None:
            return 0.0
        return self.dispatched_at - self.submitted_at

    @property
    def latency(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "queue": self.queue,
            "name": self.name,
            "runtime": self.runtime,
            "workload": self.workload,
            "input_bytes": self.input_bytes,
            "submitted_at": self.submitted_at,
            "dispatched_at": self.dispatched_at,
            "finished_at": self.finished_at,
            "queue_wait": self.queue_wait,
            "latency": self.latency,
            "outcome": self.outcome or "unfinished",
            "failure": self.failure,
            "elapsed": self.elapsed,
            "maps_preempted": self.maps_preempted,
            "reduces_preempted": self.reduces_preempted,
        }


@dataclass
class _Pending:
    """A queued (admitted, undispatched) job."""

    record: JobRecord
    spec: JobSpec
    mpid_config: Optional[MrMpiConfig] = None
    #: Constructed lazily at first dispatch try (MPI-D placement is
    #: needed for the gang reservation) and cached across retries.
    sim_job: Optional[object] = None


class MultiTenantEngine:
    """One shared cluster serving many tenants' job streams."""

    def __init__(
        self,
        tenants: Optional[list[TenantSpec]] = None,
        *,
        scheduler: Optional[SchedulerConfig] = None,
        queues: Optional[list[QueueConfig]] = None,
        cluster_spec: Optional[ClusterSpec] = None,
        hadoop_config: Optional[HadoopConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 2011,
        horizon: float = 1800.0,
        observe: bool = False,
        #: MPI-D gang sizing caps (gangs scale with job size below these).
        mpid_max_mappers: int = 13,
        mpid_max_reducers: int = 7,
    ):
        self.tenants = list(tenants or [])
        self.sched_config = scheduler or SchedulerConfig()
        self.cluster_spec = cluster_spec or ClusterSpec()
        self.hadoop_config = hadoop_config or HadoopConfig()
        self.fault_plan = fault_plan
        if fault_plan is not None and fault_plan.has_storage_faults():
            raise ValueError(
                "storage fault specs are per-job (each job owns its HDFS "
                "namespace); multi-tenant runs take crash/churn/network/"
                "degradation specs only"
            )
        self.seed = seed
        self.horizon = horizon
        self.observe = observe
        self.mpid_max_mappers = mpid_max_mappers
        self.mpid_max_reducers = mpid_max_reducers
        # Default queues: one per tenant, equal weight, equal capacity.
        if queues is None:
            names = sorted({t.queue_name for t in self.tenants}) or ["default"]
            queues = [
                QueueConfig(name=n, capacity=1.0 / len(names)) for n in names
            ]
        self.queues = queues
        self._queue_names = {q.name for q in queues}
        for t in self.tenants:
            if t.queue_name not in self._queue_names:
                raise ValueError(
                    f"tenant {t.name!r} submits to unknown queue "
                    f"{t.queue_name!r}"
                )
        self._manual: list[tuple[float, str, JobSpec, str, int, Optional[MrMpiConfig]]] = []
        # -- run state (built in run()) ------------------------------------
        self.sim: Optional[Simulator] = None
        self.cluster: Optional[Cluster] = None
        self.scheduler: Optional[ClusterScheduler] = None
        self.injector: Optional[FaultInjector] = None
        self.records: list[JobRecord] = []
        self.dead_nodes: set[int] = set()
        self._backlog: dict[str, deque] = {}
        self._running_in_queue: dict[str, int] = {}
        self._live: dict[int, tuple[JobRecord, object, str]] = {}
        self._next_job_id = 0
        self._wake = None
        self._submit_done = False
        self._preempt_proc = None
        self.shed = {q.name: 0 for q in queues}

    # -- manual submission (tests, single-job determinism) -------------------
    def add_job(
        self,
        spec: JobSpec,
        runtime: str = "hadoop",
        at: float = 0.0,
        tenant: str = "default",
        seed: Optional[int] = None,
        mpid_config: Optional[MrMpiConfig] = None,
    ) -> None:
        """Queue one explicit job alongside (or instead of) the streams."""
        if runtime not in ("hadoop", "mpid"):
            raise ValueError(f"unknown runtime {runtime!r}")
        queue = tenant if tenant in self._queue_names else None
        if queue is None:
            if "default" not in self._queue_names:
                raise ValueError(
                    f"no queue for tenant {tenant!r} and no 'default' queue"
                )
            queue = "default"
        self._manual.append(
            (at, tenant, spec, runtime, self.seed if seed is None else seed, mpid_config)
        )

    # -- FaultHost: cluster-wide fan-out -------------------------------------
    def crash_node(self, node_id: int, now: float) -> None:
        self.dead_nodes.add(node_id)
        for record, job, _ in list(self._live.values()):
            job.crash_node(node_id, now)

    def restart_node(self, node_id: int, now: float) -> None:
        self.dead_nodes.discard(node_id)
        for record, job, _ in list(self._live.values()):
            job.restart_node(node_id, now)
        self._kick()  # a waiting gang may be placeable again

    # -- job construction ----------------------------------------------------
    def _spec_for(self, arrival: Arrival) -> JobSpec:
        entry = suite_by_name()[arrival.workload]
        num_maps = JobSpec(
            "probe", input_bytes=arrival.input_bytes, profile=entry.profile
        ).num_map_tasks(self.hadoop_config.block_size)
        reducers = max(1, math.ceil(entry.reducers_per_map * num_maps))
        return JobSpec(
            name=arrival.job_name,
            input_bytes=arrival.input_bytes,
            profile=entry.profile,
            num_reduce_tasks=reducers,
        )

    def _mpid_config_for(self, spec: JobSpec) -> MrMpiConfig:
        """Size the gang to the job: one rank per map task up to the cap."""
        num_maps = spec.num_map_tasks(self.hadoop_config.block_size)
        mappers = max(2, min(num_maps, self.mpid_max_mappers))
        reducers = max(
            1, min(spec.reduce_tasks(self.hadoop_config.block_size), self.mpid_max_reducers)
        )
        return MrMpiConfig(num_mappers=mappers, num_reducers=reducers)

    def _job_seed(self, tenant: str, index: int) -> int:
        return int(make_rng(self.seed, "job-seed", tenant, index).integers(2**31))

    # -- admission -----------------------------------------------------------
    def _admit(
        self,
        tenant: str,
        queue: str,
        spec: JobSpec,
        runtime: str,
        workload: str,
        seed: int,
        mpid_config: Optional[MrMpiConfig],
    ) -> None:
        sim = self.sim
        jid = self._next_job_id
        self._next_job_id += 1
        record = JobRecord(
            job_id=jid,
            tenant=tenant,
            queue=queue,
            name=spec.name,
            runtime=runtime,
            workload=workload,
            input_bytes=spec.input_bytes,
            submitted_at=sim.now,
            seed=seed,
        )
        self.records.append(record)
        obs = sim.obs
        if obs.enabled:
            obs.metrics.counter(f"tenants.{tenant}.submitted").add()
        qcfg = next(q for q in self.queues if q.name == queue)
        backlog = self._backlog[queue]
        if len(backlog) >= qcfg.max_queued:
            # Deterministic load shedding: reject before the job costs
            # anything.  The client sees it immediately (outcome=shed).
            record.outcome = "shed"
            record.finished_at = sim.now
            self.shed[queue] += 1
            if obs.enabled:
                obs.metrics.counter(f"tenants.{tenant}.shed").add()
                obs.tracer.instant(
                    "tenant.shed",
                    spec.name,
                    track=f"tenant:{tenant}",
                    tenant=tenant,
                    queue=queue,
                    job_id=jid,
                )
            return
        record._queue_sid = obs.tracer.begin(
            "tenant.queue",
            spec.name,
            track=f"tenant:{tenant}",
            tenant=tenant,
            queue=queue,
            job_id=jid,
            runtime=runtime,
        )
        backlog.append(_Pending(record=record, spec=spec, mpid_config=mpid_config))
        self._note_depth(queue)
        self._kick()

    def _note_depth(self, queue: str) -> None:
        """Per-queue backlog depth as a duration-weighted histogram."""
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.histogram(f"queues.{queue}.depth").set(
                len(self._backlog[queue])
            )

    # -- kernel processes ----------------------------------------------------
    def _submitter(self, arrivals: list[tuple[float, str, str, JobSpec, str, str, int, Optional[MrMpiConfig]]]):
        sim = self.sim
        for at, tenant, queue, spec, runtime, workload, seed, mcfg in arrivals:
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            self._admit(tenant, queue, spec, runtime, workload, seed, mcfg)
        self._submit_done = True
        self._check_drain()

    def _dispatcher(self):
        sim = self.sim
        while True:
            ev = self._wake = sim.event()
            yield ev
            self._sched_tick()

    def _kick(self) -> None:
        ev = self._wake
        if ev is not None and not ev.triggered:
            self._wake = None
            ev.succeed(None)

    def _preempt_loop(self):
        sim = self.sim
        interval = self.sched_config.preemption_interval
        idle_sweeps = 0
        try:
            while True:
                # Pooled tick — same instant and dispatch order a
                # Timeout would get, but recycled through the tick arena.
                yield sim.tick(interval)
                self._rebalance()
                self._sched_tick()
                # Stall safety valve: the cluster is empty, arrivals are
                # over, and queued jobs still cannot be placed (a gang's
                # rank host died for good).  Shed them after three idle
                # sweeps so open-ended churn cannot keep the run alive
                # forever — deterministic, and accounted per tenant.
                if self._submit_done and not self._live:
                    idle_sweeps += 1
                    if idle_sweeps >= 3 and any(self._backlog.values()):
                        self._shed_stalled()
                else:
                    idle_sweeps = 0
        except Interrupt:
            return

    def _shed_stalled(self) -> None:
        sim = self.sim
        for queue in sorted(self._backlog):
            backlog = self._backlog[queue]
            while backlog:
                pending = backlog.popleft()
                record = pending.record
                record.outcome = "shed"
                record.failure = "stalled: required nodes never restarted"
                record.finished_at = sim.now
                self.shed[queue] += 1
                sim.obs.tracer.end(record._queue_sid, outcome="shed")
            self._note_depth(queue)
        self._check_drain()

    # -- dispatch ------------------------------------------------------------
    def _sched_tick(self) -> None:
        for queue in sorted(self._backlog):
            qcfg = next(q for q in self.queues if q.name == queue)
            backlog = self._backlog[queue]
            while backlog and self._running_in_queue[queue] < qcfg.max_running:
                pending = backlog[0]
                if pending.record.runtime == "hadoop":
                    backlog.popleft()
                    self._note_depth(queue)
                    self._dispatch_hadoop(pending)
                else:
                    if not self._dispatch_mpid(pending):
                        break  # head-of-line gang waits for slots
                    backlog.popleft()
                    self._note_depth(queue)

    def _dispatch_hadoop(self, pending: _Pending) -> None:
        sim = self.sim
        record = pending.record
        slots = self.scheduler.register_job(record.job_id, record.queue)
        job = HadoopSimulation(
            spec=pending.spec,
            config=self.hadoop_config,
            seed=record.seed,
            sim=sim,
            cluster=self.cluster,
            sched=slots,
        )
        self._arm_faults(job)
        proc = job.start()
        self._note_dispatch(record, job, "hadoop", proc)

    def _dispatch_mpid(self, pending: _Pending) -> bool:
        sim = self.sim
        record = pending.record
        if pending.sim_job is None:
            cfg = pending.mpid_config or self._mpid_config_for(pending.spec)
            pending.sim_job = MrMpiSimulation(
                spec=pending.spec,
                config=cfg,
                seed=record.seed,
                sim=sim,
                cluster=self.cluster,
            )
        job = pending.sim_job
        needs = job.ranks_per_node()
        if any(node in self.dead_nodes for node in needs):
            return False  # a rank host is down; wait for its restart
        if not self.scheduler.gang_feasible(needs):
            # Could never fit even an idle cluster: shed instead of
            # blocking the queue forever.
            record.outcome = "shed"
            record.failure = "gang larger than cluster slot capacity"
            record.finished_at = sim.now
            self.shed[record.queue] += 1
            sim.obs.tracer.end(record._queue_sid, outcome="shed")
            self._check_drain()
            return True  # popped by caller
        self.scheduler.register_job(record.job_id, record.queue)
        if not self.scheduler.try_reserve(record.job_id, needs):
            if self.sched_config.preemption:
                self._preempt_for_gang(needs)
            if not self.scheduler.try_reserve(record.job_id, needs):
                self.scheduler.job_finished(record.job_id)
                return False
        self._arm_faults(job)
        proc = job.start()
        self._note_dispatch(record, job, "mpid", proc)
        return True

    def _preempt_for_gang(self, needs: dict[int, int]) -> None:
        """Make room for a gang by killing Hadoop map attempts on exactly
        the nodes where the reservation falls short (youngest victims
        first, via each job's own preemption path)."""
        shortfall = self.scheduler.gang_shortfall(needs)
        for node, missing in sorted(shortfall.items()):
            for jid in sorted(self._live, reverse=True):
                if missing <= 0:
                    break
                record, job, kind = self._live[jid]
                if kind != "hadoop":
                    continue
                lost_before = job.preempted_lost_seconds
                killed = job.preempt_slots("map", missing, nodes={node})
                if killed:
                    missing -= killed
                    record.maps_preempted += killed
                    self.scheduler.note_preempted("map", killed)
                    obs = self.sim.obs
                    if obs.enabled:
                        obs.tracer.instant(
                            "tenant.preempt",
                            f"{record.name} -{killed} map",
                            track=f"tenant:{record.tenant}",
                            tenant=record.tenant,
                            kind="map",
                            killed=killed,
                            reason="gang",
                            lost_s=job.preempted_lost_seconds - lost_before,
                        )

    def _arm_faults(self, job) -> None:
        """Point a freshly constructed job at the cluster-wide plan."""
        if self.fault_plan:
            job.fault_aware = True
            job.net_faults = self.fault_plan.has_network_faults()
            if isinstance(job, HadoopSimulation):
                job.dead_nodes |= set(self.dead_nodes)

    def _note_dispatch(self, record: JobRecord, job, kind: str, proc) -> None:
        sim = self.sim
        record.dispatched_at = sim.now
        self._live[record.job_id] = (record, job, kind)
        self._running_in_queue[record.queue] += 1
        obs = sim.obs
        obs.tracer.end(record._queue_sid, outcome="dispatched")
        record._run_sid = obs.tracer.begin(
            "tenant.job",
            record.name,
            track=f"tenant:{record.tenant}",
            runtime=kind,
            tenant=record.tenant,
            queue=record.queue,
            job_id=record.job_id,
            workload=record.workload,
        )
        if obs.enabled:
            obs.metrics.counter(f"tenants.{record.tenant}.dispatched").add()
            obs.metrics.histogram(f"tenants.{record.tenant}.running").add(1)
        sim.process(
            self._monitor(record, job, proc), name=f"monitor:{record.name}"
        )

    # -- completion ----------------------------------------------------------
    def _monitor(self, record: JobRecord, job, proc):
        sim = self.sim
        yield proc
        try:
            job.complete()
            record.outcome = "done"
        except (JobFailedError, MpiJobAborted) as exc:
            record.outcome = "failed"
            record.failure = str(exc)
        record.finished_at = sim.now
        metrics = job.metrics
        record.metrics = metrics
        record.elapsed = getattr(metrics, "elapsed", sim.now - record.submitted_at)
        record.maps_preempted = getattr(metrics, "maps_preempted", record.maps_preempted)
        record.reduces_preempted = getattr(metrics, "reduces_preempted", 0)
        self.scheduler.job_finished(record.job_id)
        self._live.pop(record.job_id, None)
        self._running_in_queue[record.queue] -= 1
        obs = sim.obs
        obs.tracer.end(record._run_sid, outcome=record.outcome)
        if obs.enabled:
            obs.metrics.counter(
                f"tenants.{record.tenant}.{record.outcome}"
            ).add()
            obs.metrics.histogram(f"tenants.{record.tenant}.running").add(-1)
        self._kick()
        self._check_drain()

    def _check_drain(self) -> None:
        """Stop the open-ended machinery once the offered load is spent."""
        if not self._submit_done or self._live:
            return
        if any(self._backlog.values()):
            return
        if self.injector is not None:
            self.injector.stop()
        if self._preempt_proc is not None and self._preempt_proc.is_alive:
            self._preempt_proc.interrupt("drained")

    # -- preemption sweep ----------------------------------------------------
    def _rebalance(self) -> None:
        """Kill over-entitlement Hadoop attempts when someone is starved."""
        sched = self.scheduler
        for kind in ("map", "reduce"):
            demands: dict[int, int] = {}
            for jid, (record, job, jkind) in self._live.items():
                if jkind != "hadoop":
                    continue
                jt = job.jobtracker
                entry = sched._jobs.get(jid)
                if entry is None:
                    continue
                running = entry.usage[kind]
                if kind == "map":
                    demands[jid] = max(
                        0, jt.total_maps - jt.maps_completed - running
                    )
                else:
                    want = jt.num_reduces - jt.reduces_completed - running
                    demands[jid] = max(0, want) if jt.reduces_may_start() else 0
            for jid, take in sched.overages(kind, demands):
                entry = self._live.get(jid)
                if entry is None:
                    continue
                record, job, jkind = entry
                if jkind != "hadoop":
                    continue
                lost_before = job.preempted_lost_seconds
                killed = job.preempt_slots(kind, take)
                if killed:
                    sched.note_preempted(kind, killed)
                    obs = self.sim.obs
                    if obs.enabled:
                        obs.tracer.instant(
                            "tenant.preempt",
                            f"{record.name} -{killed} {kind}",
                            track=f"tenant:{record.tenant}",
                            tenant=record.tenant,
                            kind=kind,
                            killed=killed,
                            reason="rebalance",
                            lost_s=job.preempted_lost_seconds - lost_before,
                        )

    # -- the run -------------------------------------------------------------
    def setup(self) -> Simulator:
        """Build the kernel, cluster, scheduler and observer without
        running anything yet.  Optional — :meth:`run` calls it — but
        calling it first lets tests and tools attach streaming trace
        stores to ``engine.sim.obs`` before the clock starts."""
        sim = Simulator()
        self.sim = sim
        self.obs = Observer.attach(sim) if self.observe else sim.obs
        self.cluster = Cluster(sim, self.cluster_spec)
        workers = list(range(1, self.cluster_spec.num_nodes))
        self.scheduler = ClusterScheduler(
            self.sched_config,
            self.queues,
            workers,
            self.hadoop_config.map_slots,
            self.hadoop_config.reduce_slots,
            clock=lambda: sim.now,
        )
        self._backlog = {q.name: deque() for q in self.queues}
        self._running_in_queue = {q.name: 0 for q in self.queues}
        return sim

    def run(self, until: Optional[float] = None) -> dict:
        """Execute the whole offered load; returns :meth:`report`."""
        if self.sim is None:
            self.setup()
        sim = self.sim
        workers = list(range(1, self.cluster_spec.num_nodes))
        # Materialize the offered load: streams + manual submissions.
        self.arrivals = build_arrivals(self.tenants, self.seed, self.horizon)
        queue_of = {t.name: t.queue_name for t in self.tenants}
        feed: list[tuple] = [
            (
                a.time,
                a.tenant,
                queue_of[a.tenant],
                self._spec_for(a),
                a.runtime,
                a.workload,
                self._job_seed(a.tenant, a.index),
                None,
            )
            for a in self.arrivals
        ]
        for at, tenant, spec, runtime, seed, mcfg in self._manual:
            queue = tenant if tenant in self._queue_names else "default"
            feed.append(
                (at, tenant, queue, spec, runtime, spec.profile.name, seed, mcfg)
            )
        feed.sort(key=lambda f: (f[0], f[1], f[3].name))
        if self.fault_plan:
            self.injector = FaultInjector(
                sim,
                self.cluster,
                self.fault_plan,
                host=self,
                default_nodes=tuple(workers),
            )
            self.injector.start()
        sim.process(self._dispatcher(), name="dispatcher")
        sim.process(self._submitter(feed), name="arrivals")
        if self.sched_config.preemption:
            self._preempt_proc = sim.process(
                self._preempt_loop(), name="preempt-sweep"
            )
        sim.run(until=until)
        self.scheduler.finalize()
        self.makespan = sim.now
        return self.report()

    # -- reporting -----------------------------------------------------------
    def report(self) -> dict:
        """Per-tenant SLO rollup + cluster headline numbers."""
        tenants: dict[str, dict] = {}
        names = sorted(
            {r.tenant for r in self.records} | {t.name for t in self.tenants}
        )
        for name in names:
            recs = [r for r in self.records if r.tenant == name]
            done = [r for r in recs if r.outcome == "done"]
            lat = [r.latency for r in done]
            waits = [r.queue_wait for r in recs if r.dispatched_at is not None]
            queue = (
                recs[0].queue
                if recs
                else next(
                    (t.queue_name for t in self.tenants if t.name == name), name
                )
            )
            tenants[name] = {
                "queue": queue,
                "submitted": len(recs),
                "completed": len(done),
                "failed": sum(1 for r in recs if r.outcome == "failed"),
                "shed": sum(1 for r in recs if r.outcome == "shed"),
                "unfinished": sum(1 for r in recs if r.outcome is None),
                "latency_p50": percentile(lat, 50),
                "latency_p95": percentile(lat, 95),
                "latency_p99": percentile(lat, 99),
                "queue_wait_p50": percentile(waits, 50),
                "queue_wait_p95": percentile(waits, 95),
                "queue_wait_p99": percentile(waits, 99),
                "maps_preempted": sum(r.maps_preempted for r in recs),
                "reduces_preempted": sum(r.reduces_preempted for r in recs),
                "slot_seconds": self.scheduler.slot_seconds.get(queue, 0.0),
                "utilization": (
                    self.scheduler.utilization(queue, self.makespan)
                    if self.makespan and queue in self.scheduler.slot_seconds
                    else 0.0
                ),
            }
        return {
            "policy": self.sched_config.policy,
            "preemption": self.sched_config.preemption,
            "seed": self.seed,
            "horizon": self.horizon,
            "makespan": self.makespan,
            "offered": offered_load_summary(self.arrivals),
            "jobs": len(self.records),
            "completed": sum(1 for r in self.records if r.outcome == "done"),
            "failed": sum(1 for r in self.records if r.outcome == "failed"),
            "shed": sum(1 for r in self.records if r.outcome == "shed"),
            "unfinished": sum(1 for r in self.records if r.outcome is None),
            "preemptions": dict(self.scheduler.preemptions),
            "tenants": tenants,
        }
