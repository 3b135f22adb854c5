"""Top-level driver: one simulated Hadoop job on the paper's testbed.

Wiring: node 0 is the master (JobTracker + NameNode), the remaining
nodes are workers (TaskTracker + DataNode), matching the paper's
"1 master, 7 slaves" deployment.  Input data is pre-loaded into HDFS
spread across all workers; the job then runs to completion under the
DES, and :class:`~repro.hadoop.metrics.JobMetrics` comes back with the
phase timings Figures 1/6 and Table I are built from.

Fault injection: pass a :class:`~repro.simnet.faults.FaultPlan` and the
driver becomes the plan's host — a crashed worker has every process it
was running interrupted (tracker loop, task processes, in-flight
fetches), the JobTracker notices via heartbeat expiry and recovers, and
a restarted node rejoins with a fresh TaskTracker.  With no plan (or an
empty one) none of the fault machinery is instantiated and the event
sequence is bit-for-bit the fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hadoop.config import HadoopConfig
from repro.hadoop.hdfs import HdfsNamespace
from repro.hadoop.job import JobSpec
from repro.hadoop.jobtracker import (
    _RUNNING,
    JobTracker,
    MapAttempt,
    ReduceAttempt,
)
from repro.hadoop.maptask import map_task_process
from repro.hadoop.metrics import JobMetrics
from repro.hadoop.reducetask import reduce_task_process
from repro.hadoop.storage import StorageManager
from repro.hadoop.tasktracker import TaskTracker
from repro.obs import Observer
from repro.simnet.cluster import Cluster, ClusterSpec
from repro.simnet.faults import FaultInjector, FaultPlan
from repro.simnet.kernel import Interrupt, Process, Simulator
from repro.simnet.network import FlowFailed
from repro.transports.hadoop_rpc import HadoopRpcTransport
from repro.transports.jetty import JettyHttpTransport
from repro.transports.nio import NioSocketTransport
from repro.transports.retry import RetryPolicy


class JobFailedError(RuntimeError):
    """The simulated job died (task out of attempts, master lost, ...).

    Carries the partial :class:`JobMetrics` so experiments can still
    account the wasted work of a run that never finished.
    """

    def __init__(self, reason: str, metrics: JobMetrics):
        super().__init__(f"hadoop job failed: {reason}")
        self.reason = reason
        self.metrics = metrics


@dataclass
class HadoopSimulation:
    """One job on one freshly built simulated cluster."""

    spec: JobSpec
    config: HadoopConfig = field(default_factory=HadoopConfig)
    cluster_spec: ClusterSpec = field(default_factory=ClusterSpec)
    seed: int = 2011
    #: Straggler injection: node id -> disk slowdown factor (>1 = slower).
    disk_slowdown: Optional[dict[int, float]] = None
    #: Fault injection; None or an empty plan leaves the run untouched.
    fault_plan: Optional[FaultPlan] = None
    #: Observability: True attaches an :class:`~repro.obs.Observer` to the
    #: simulator before any model is built.  Off by default — an untraced
    #: run is bit-for-bit identical to the uninstrumented code.
    observe: bool = False
    #: Multi-tenant mode: run against an existing kernel + cluster instead
    #: of building a private pair.  Both must be given together; faults
    #: are then owned by the engine (``fault_plan`` must stay None).
    sim: Optional[Simulator] = None
    cluster: Optional[Cluster] = None
    #: Cluster-scheduler slot facade (a ``JobSlots``), set by the engine:
    #: the JobTracker asks it for slot grants and TaskTrackers report
    #: usage to it.
    sched: Optional[object] = None

    def __post_init__(self) -> None:
        self.shared = self.sim is not None
        if self.shared != (self.cluster is not None):
            raise ValueError("pass sim and cluster together (or neither)")
        if self.shared:
            if self.fault_plan is not None:
                raise ValueError(
                    "per-job fault plans are not supported on a shared "
                    "cluster; give the plan to the engine instead"
                )
            if self.disk_slowdown:
                raise ValueError(
                    "per-job disk_slowdown is not supported on a shared "
                    "cluster; slow the shared cluster's nodes instead"
                )
            self.cluster_spec = self.cluster.spec
            self.obs = self.sim.obs
        else:
            self.sim = Simulator()
            # Attach before Cluster: SlotPool/RateDevice bind metrics at init.
            self.obs = Observer.attach(self.sim) if self.observe else self.sim.obs
            self.cluster = Cluster(self.sim, self.cluster_spec)
            for node_id, factor in (self.disk_slowdown or {}).items():
                if factor <= 0:
                    raise ValueError(f"slowdown factor must be positive: {factor}")
                self.cluster.node(node_id).disk.rate /= factor
        if self.cluster_spec.num_nodes < 2:
            raise ValueError("need a master plus at least one worker node")
        self.num_workers = self.cluster_spec.num_nodes - 1
        self.hdfs = HdfsNamespace(
            datanodes=[self.worker_node_id(w) for w in range(self.num_workers)],
            block_size=self.config.block_size,
            replication=self.config.replication,
            seed=self.seed,
        )
        self.rpc = HadoopRpcTransport()
        #: One way of the heartbeat's status RPC; every beat pays it twice.
        self.status_rpc_latency = self.rpc.latency(self.config.rpc_status_bytes)
        self.jetty = JettyHttpTransport()
        self.nio = NioSocketTransport()
        self._file = self.hdfs.create_file(self.spec.input_file, self.spec.input_bytes)
        self.jobtracker = JobTracker(
            self.spec,
            self.config,
            self._file,
            num_workers=self.num_workers,
            sched=self.sched,
        )
        self.metrics = JobMetrics(job_name=self.spec.name)
        # -- fault-injection state (inert without a plan) --------------------
        self.dead_nodes: set[int] = set()
        self._epoch: dict[int, int] = {}
        self._node_procs: dict[int, list[Process]] = {}
        self._tracker_procs: list[Process] = []
        self._topology_event = None
        self.injector: Optional[FaultInjector] = None
        #: True when crashes can reach this job — either a private fault
        #: plan (standalone) or the engine's cluster-wide plan (shared
        #: mode; the engine flips it after construction).  Gates the
        #: crash-bookkeeping paths in the task models.
        self.fault_aware = False
        #: Running attempts (with their processes) on the shared cluster,
        #: so the scheduler can pick preemption victims.  Standalone runs
        #: never populate it.
        self._live_attempts: list = []
        #: True when the plan can fail flows: switches the shuffle into
        #: its retry/backoff pipeline and wraps DFS streams in resends.
        #: False keeps every transfer on the original (infallible) path,
        #: so crash-only and clean runs stay bit-for-bit unchanged.
        self.net_faults = False
        #: Replica liveness + repair; built only when the plan carries
        #: storage specs, so crash/network-only runs never touch it.
        self.storage: Optional[StorageManager] = None
        if self.fault_plan:  # an empty plan is falsy: nothing to inject
            if self.fault_plan.has_storage_faults():
                self.storage = StorageManager(
                    self.sim,
                    self.cluster,
                    self.hdfs,
                    seed=self.seed,
                    repair_bandwidth_cap=self.config.repair_bandwidth_cap,
                    repair_max_streams=self.config.repair_max_streams,
                    is_node_dead=self.is_node_dead,
                )
            self.injector = FaultInjector(
                self.sim,
                self.cluster,
                self.fault_plan,
                host=self,
                default_nodes=tuple(
                    self.worker_node_id(w) for w in range(self.num_workers)
                ),
                storage=self.storage,
            )
            self.net_faults = self.fault_plan.has_network_faults()
            self.fault_aware = True
        #: Backoff schedule shared by the shuffle's fetch retries; DFS
        #: streams (map-side remote reads, reduce output replication) use
        #: a more patient variant of the same progression, since a task
        #: that gives up on DFS burns a whole attempt.
        self.fetch_retry_policy = RetryPolicy(
            base=self.config.fetch_backoff_base,
            max_delay=self.config.fetch_backoff_max,
            retries=self.config.fetch_retries,
        )
        self.dfs_retry_policy = RetryPolicy(
            base=self.config.fetch_backoff_base,
            max_delay=self.config.fetch_backoff_max,
            retries=2 * self.config.fetch_retries,
        )
        #: The job span's tracer id (set by :meth:`run`; 0 = untraced).
        self.job_sid = 0
        #: Attempt-seconds thrown away by :meth:`preempt_slots` — work
        #: that was running when the scheduler killed it.  The tenant
        #: engine diffs this around each preemption to put a ``lost_s``
        #: figure on the trace instant.
        self.preempted_lost_seconds = 0.0

    # -- id mapping -----------------------------------------------------------
    def worker_node_id(self, worker_index: int) -> int:
        """Worker index (0-based, HDFS space) -> cluster node id."""
        return worker_index + 1

    def node_worker_index(self, node_id: int) -> int:
        return node_id - 1

    # -- task process factories (called by TaskTracker) --------------------------
    def run_map_task(self, attempt: MapAttempt, tracker: TaskTracker):
        return map_task_process(self, attempt, tracker)

    def run_reduce_task(self, attempt: ReduceAttempt, tracker: TaskTracker):
        return reduce_task_process(self, attempt, tracker)

    def note_attempt(
        self, kind: str, attempt, proc: Process, tracker: TaskTracker
    ) -> None:
        """Scheduler bookkeeping for one spawned attempt (shared mode)."""
        if self.sched is None:
            return
        self.sched.task_started(tracker.node_id, kind)
        self._live_attempts.append((kind, attempt, proc, tracker))

    def preempt_slots(
        self, kind: str, count: int, nodes: Optional[set[int]] = None
    ) -> int:
        """Kill up to ``count`` running ``kind`` attempts for the scheduler.

        Victims are the youngest attempts first (the fair scheduler's
        kill order — least work lost), deterministically tie-broken by
        task id.  The killed work requeues via
        :meth:`JobTracker.map_attempt_preempted` /
        :meth:`~JobTracker.reduce_attempt_preempted` without burning a
        retry, and the tracker's slot frees immediately.
        """
        self._live_attempts = [e for e in self._live_attempts if e[2].is_alive]
        victims = [
            e
            for e in self._live_attempts
            if e[0] == kind
            and e[1].task.state == _RUNNING
            and (nodes is None or e[3].node_id in nodes)
        ]
        victims.sort(
            key=lambda e: (e[1].metrics.scheduled_at, e[1].task_id), reverse=True
        )
        killed = 0
        now = self.sim.now
        for _, attempt, proc, tracker in victims[:count]:
            proc.interrupt("preempted by cluster scheduler")
            self.preempted_lost_seconds += max(
                0.0, now - attempt.metrics.scheduled_at
            )
            if kind == "map":
                self.jobtracker.map_attempt_preempted(attempt, now)
                tracker.map_failed(attempt)
            else:
                self.jobtracker.reduce_attempt_preempted(attempt, now)
                tracker.reduce_failed(attempt)
            killed += 1
        return killed

    # -- fault-injection plumbing -------------------------------------------------
    def is_node_dead(self, node_id: int) -> bool:
        return node_id in self.dead_nodes

    def live_datanodes(self) -> list[int]:
        """Datanodes currently usable as write-pipeline targets: alive
        and not draining toward decommission."""
        out = [n for n in self.hdfs.datanodes if n not in self.dead_nodes]
        if self.storage is not None:
            out = [n for n in out if not self.storage.is_decommissioning(n)]
        return out

    def node_epoch(self, node_id: int) -> int:
        """Incarnation counter: bumped on every crash, so a transfer can
        detect that its peer died *and came back* while the bytes flowed."""
        return self._epoch.get(node_id, 0)

    def spawn_on_node(self, node_id: int, gen, name: str = "") -> Process:
        """``sim.process`` plus crash bookkeeping: under fault injection
        the process is registered as running on ``node_id`` so a crash
        can interrupt it (and deregistered once it finishes)."""
        proc = self.sim.process(gen, name=name)
        if self.fault_aware:
            self._node_procs.setdefault(node_id, []).append(proc)
            proc.callbacks.append(lambda ev: self._forget_proc(node_id, proc))
        return proc

    def _forget_proc(self, node_id: int, proc: Process) -> None:
        bucket = self._node_procs.get(node_id)
        if bucket is not None:
            try:
                bucket.remove(proc)
            except ValueError:
                pass

    def reliable_send(
        self,
        src: int,
        dst: int,
        nbytes: float,
        extra_latency: float = 0.0,
        rate_cap: float = float("inf"),
        rng=None,
        label: str = "dfs",
        waiter_sid: int = 0,
    ):
        """Generator: a :meth:`Cluster.send` that survives killed flows.

        TCP-like recovery for DFS streams — on :class:`FlowFailed` the
        transfer restarts from scratch after an exponential backoff
        (jittered from ``rng``), up to ``dfs_retry_policy.retries``
        times; exhaustion re-raises for the caller's task-level
        recovery.  Spawn via :meth:`spawn_on_node` (or ``yield from``)
        so crash interrupts still reach the waiter.
        """
        sim = self.sim
        policy = self.dfs_retry_policy
        attempt = 0
        try:
            while True:
                flow = self.cluster.send_flow(
                    src, dst, nbytes, extra_latency, rate_cap, waiter_sid=waiter_sid
                )
                try:
                    yield flow.done
                    return
                except FlowFailed:
                    attempt += 1
                    if attempt > policy.retries:
                        raise
                    tr = sim.obs.tracer
                    sid = tr.begin(
                        "hadoop.shuffle.backoff",
                        f"{label}-retry n{src}->n{dst}",
                        attempt=attempt,
                    )
                    yield sim.timeout(policy.delay(attempt, rng))
                    tr.end(sid)
        except Interrupt:
            return  # our node crashed; the task-level recovery owns cleanup

    # -- FaultHost hooks ---------------------------------------------------------
    def crash_node(self, node_id: int, now: float) -> None:
        """A node dies: every process it hosts is interrupted.  Detection
        is *not* instantaneous — the JobTracker learns via heartbeat
        expiry, exactly like the real one."""
        if node_id == 0:
            # The JobTracker/NameNode is a single point of failure in
            # Hadoop 0.20.2: losing the master kills the job outright.
            self.jobtracker.fail_job(
                "master node 0 lost (JobTracker is a SPOF)", node=0, at=now
            )
            return
        if node_id in self.dead_nodes:
            return
        self.dead_nodes.add(node_id)
        self._epoch[node_id] = self._epoch.get(node_id, 0) + 1
        for proc in self._node_procs.pop(node_id, []):
            if proc.is_alive:
                proc.interrupt(f"node {node_id} crashed")

    def restart_node(self, node_id: int, now: float) -> None:
        """The node rejoins with empty local state: a fresh TaskTracker
        registers with the JobTracker (which unwinds anything it still
        attributes to the previous incarnation)."""
        self.dead_nodes.discard(node_id)
        jt = self.jobtracker
        if self.storage is not None and node_id != 0:
            self.storage.datanode_rejoined(node_id, now)
        if node_id == 0 or jt.job_done or jt.job_failed:
            return
        tracker = TaskTracker(self, self.node_worker_index(node_id))
        proc = self.spawn_on_node(
            node_id,
            tracker.run(),
            name=f"tracker{node_id}.{self.node_epoch(node_id)}",
        )
        self._tracker_procs.append(proc)
        self._wake_topology()

    def _wake_topology(self) -> None:
        ev = self._topology_event
        if ev is not None and not ev.triggered:
            self._topology_event = None
            ev.succeed(None)

    def _expiry_loop(self):
        """DES process: the JobTracker's lost-tracker sweep."""
        sim = self.sim
        jt = self.jobtracker
        interval = self.config.tasktracker_expiry_interval
        try:
            while not (jt.job_done or jt.job_failed):
                # Pooled tick: the sweep timer recycles through the
                # kernel arena instead of allocating a Timeout per lap.
                yield sim.tick(interval / 3.0)
                for node in jt.find_expired(sim.now, interval):
                    jt.lost_tasktracker(node, sim.now)
                    if self.storage is not None:
                        # The DataNode stopped heartbeating with the
                        # TaskTracker: its replicas go stale and the
                        # NameNode starts re-replicating them.
                        self.storage.datanode_lost(node, sim.now)
        except Interrupt:
            return

    # -- driver ----------------------------------------------------------------------
    def start(self) -> Process:
        """Spawn the job's driver process on the (possibly shared) kernel.

        Standalone callers use :meth:`run`; the multi-tenant engine calls
        ``start()`` at dispatch time and :meth:`complete` once the
        returned process has finished.
        """
        sim = self.sim
        jt = self.jobtracker
        self.job_sid = sim.obs.tracer.begin(
            "hadoop.job",
            self.spec.name,
            track="hadoop:job",
            input_bytes=self.spec.input_bytes,
            maps=jt.total_maps,
            reduces=jt.num_reduces,
        )

        def job(sim_):
            submit_t = sim.now
            expiry_proc = None
            if self.injector is not None:
                self.injector.start()
                if self.storage is not None:
                    self.storage.start_repair()
            if self.fault_aware:
                expiry_proc = sim.process(self._expiry_loop(), name="expiry-sweep")
            yield sim.timeout(self.config.job_setup_time)
            self.metrics.submitted_at = submit_t
            trackers = [TaskTracker(self, w) for w in range(self.num_workers)]
            self._tracker_procs = [
                self.spawn_on_node(t.node_id, t.run(), name=f"tracker{t.node_id}")
                for t in trackers
                if not self.fault_aware or t.node_id not in self.dead_nodes
            ]
            if not self.fault_aware:
                yield sim.all_of(self._tracker_procs)
                self.metrics.finished_at = sim.now
                return
            # Fault-aware wait: the set of live trackers changes as nodes
            # crash and restart, so re-evaluate it whenever the topology
            # event fires.  All trackers dead with none restarting within
            # an expiry interval means nobody will ever beat again.
            while not (jt.job_done or jt.job_failed):
                ev = self._topology_event = sim.event()
                live = [p for p in self._tracker_procs if p.is_alive]
                if live:
                    yield sim.any_of([sim.all_of(live), ev])
                else:
                    yield sim.any_of(
                        [ev, sim.timeout(self.config.tasktracker_expiry_interval)]
                    )
                    if not ev.triggered and not (jt.job_done or jt.job_failed):
                        jt.fail_job(
                            "all tasktrackers lost and none restarted", at=sim.now
                        )
            self.metrics.finished_at = sim.now
            if self.injector is not None:
                self.injector.stop()
            if self.storage is not None:
                self.storage.stop_repair()
            if expiry_proc is not None and expiry_proc.is_alive:
                expiry_proc.interrupt("job over")

        return sim.process(job(sim), name=f"job:{self.spec.name}")

    def complete(self) -> JobMetrics:
        """Finalize after the driver process ended; raises on failure."""
        sim = self.sim
        jt = self.jobtracker
        sim.obs.tracer.end(self.job_sid, done=jt.job_done, failed=jt.job_failed)
        self._finalize_metrics()
        if jt.job_failed:
            raise JobFailedError(jt.failure_reason or "unknown failure", self.metrics)
        if not jt.job_done:
            raise RuntimeError(
                f"job did not finish (simulated until {sim.now:.1f}s): "
                f"{jt.maps_completed}/{jt.total_maps} maps, "
                f"{jt.reduces_completed}/{jt.num_reduces} reduces"
            )
        return self.metrics

    def run(self, until: Optional[float] = None) -> JobMetrics:
        """Execute the job; returns the collected metrics.

        Raises :class:`JobFailedError` when fault injection killed the
        job (the exception carries the partial metrics)."""
        if self.shared:
            raise RuntimeError(
                "shared-cluster jobs are driven by the engine; use start()"
            )
        self.start()
        self.sim.run(until=until)
        return self.complete()

    def _finalize_metrics(self) -> None:
        jt = self.jobtracker
        m = self.metrics
        m.map_tasks = [t.metrics for t in jt.maps if t.metrics is not None]
        m.reduce_tasks = [t.metrics for t in jt.reduces if t.metrics is not None]
        m.speculative_attempts = jt.speculative_attempts
        m.speculative_wins = jt.speculative_wins
        m.speculative_reduce_attempts = jt.speculative_reduce_attempts
        m.speculative_reduce_wins = jt.speculative_reduce_wins
        m.maps_preempted = jt.maps_preempted
        m.reduces_preempted = jt.reduces_preempted
        m.lost_trackers = jt.lost_trackers
        m.failed_map_attempts = jt.failed_map_attempts
        m.failed_reduce_attempts = jt.failed_reduce_attempts
        m.maps_reexecuted = jt.maps_reexecuted
        m.fetch_failures = jt.fetch_failures
        m.fetch_retries = jt.fetch_retries
        m.maps_reexecuted_for_fetch = jt.maps_reexecuted_for_fetch
        m.wasted_task_seconds = jt.wasted_task_seconds
        m.job_failed = jt.job_failed
        m.failure_reason = jt.failure_reason
        m.failure_node = jt.failure_node
        m.failure_task = jt.failure_task
        m.failure_time = jt.failure_time
        m.replication_clamped = self.hdfs.clamped_placements
        if self.storage is not None:
            m.disk_failures = self.storage.disk_failures
            m.blocks_repaired = self.storage.blocks_repaired
            m.repair_bytes = self.storage.repair_bytes
            m.blocks_lost = self.storage.blocks_lost
            m.read_failovers = self.storage.read_failovers
            m.corrupt_replicas_dropped = self.storage.corrupt_replicas_dropped


def run_hadoop_job(
    spec: JobSpec,
    config: Optional[HadoopConfig] = None,
    cluster_spec: Optional[ClusterSpec] = None,
    seed: int = 2011,
    disk_slowdown: Optional[dict[int, float]] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> JobMetrics:
    """Convenience: build the default (paper) cluster and run one job."""
    sim = HadoopSimulation(
        spec=spec,
        config=config or HadoopConfig(),
        cluster_spec=cluster_spec or ClusterSpec(),
        seed=seed,
        disk_slowdown=disk_slowdown,
        fault_plan=fault_plan,
    )
    return sim.run()
