"""Cluster-level slot scheduler: tenant queues, fair share, capacity.

One :class:`ClusterScheduler` arbitrates the task slots of a shared
simnet cluster between many concurrent jobs.  Each job sees the cluster
through a :class:`JobSlots` facade.  Its JobTracker asks the facade for
a grant (``map_budget`` / ``reduce_budget``) on a heartbeat that has a
task of that kind to place, and its TaskTrackers report usage to it
(``task_started`` / ``task_finished``).  The scheduler itself runs no
processes — it is pure bookkeeping driven by the engine's kernel events,
so a run stays deterministic.

Three policies, per Hadoop's contrib schedulers circa 0.20:

* ``fair`` — every queue gets slots in proportion to its weight, split
  evenly among its running jobs (the Fair Scheduler's "equal share
  within a pool").
* ``capacity`` — every queue owns a guaranteed fraction of the slots;
  spare capacity of idle queues is redistributed to busy ones up to each
  queue's ``max_capacity`` ceiling (the Capacity Scheduler's elasticity).
* ``fifo`` — no per-job cap at all: first job to ask gets the slots
  (0.20's default JobQueueTaskScheduler; measures head-of-line blocking).

Entitlements are fractional; grants round *up* (``ceil``) so any job
with a positive entitlement can always run at least one task — that, plus
slots only ever being waited on via the heartbeat poll (never a blocking
acquire), is why overload cannot deadlock: a job with a task to place
asks again on every beat, so every queued task eventually sees a slot,
and admission control (per-queue ``max_queued``) bounds the backlog
itself.

MPI-D gangs reserve all their slots atomically (:meth:`try_reserve`):
a gang either gets every rank's slot or nothing, because a partially
scheduled MPICH2 job would just block in ``MPI_Init``.  Hadoop jobs
elastically fill whatever is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class QueueConfig:
    """One tenant queue's scheduling contract."""

    name: str
    #: Fair-share weight (``fair``) and spare-redistribution weight
    #: (``capacity``).
    weight: float = 1.0
    #: Guaranteed slot fraction under the ``capacity`` policy.  Queues'
    #: capacities should sum to <= 1; the remainder is spare.
    capacity: float = 0.0
    #: Elasticity ceiling under ``capacity``: the queue may borrow spare
    #: slots up to this fraction of the cluster.
    max_capacity: float = 1.0
    #: Admission control: jobs arriving while this many are already
    #: waiting are shed (rejected immediately, deterministically).
    max_queued: int = 64
    #: Dispatch cap: at most this many of the queue's jobs run
    #: concurrently (bounds per-job JobTracker overhead under overload).
    max_running: int = 8

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"queue weight must be positive: {self.weight}")
        if not 0.0 <= self.capacity <= 1.0:
            raise ValueError(f"capacity must be in [0, 1]: {self.capacity}")
        if not self.capacity <= self.max_capacity <= 1.0:
            raise ValueError(
                f"need capacity <= max_capacity <= 1, got "
                f"{self.capacity}/{self.max_capacity}"
            )
        if self.max_queued < 0 or self.max_running < 1:
            raise ValueError(
                f"need max_queued >= 0 and max_running >= 1, got "
                f"{self.max_queued}/{self.max_running}"
            )


@dataclass(frozen=True)
class SchedulerConfig:
    """Cluster-wide scheduling policy knobs."""

    policy: str = "fair"  # fair | capacity | fifo
    #: Kill over-entitlement attempts to give starved jobs their share.
    #: Preempted work requeues without burning a retry (the Fair
    #: Scheduler's kill-and-requeue, not Hadoop 2's checkpointing).
    preemption: bool = True
    #: Seconds between preemption sweeps (the engine's rebalance tick).
    preemption_interval: float = 30.0
    #: A job may exceed its entitlement by this many slots before the
    #: sweep kills anything (hysteresis against thrashing).
    preemption_grace_slots: int = 1

    def __post_init__(self) -> None:
        if self.policy not in ("fair", "capacity", "fifo"):
            raise ValueError(f"unknown policy: {self.policy!r}")
        if self.preemption_interval <= 0:
            raise ValueError("preemption_interval must be positive")
        if self.preemption_grace_slots < 0:
            raise ValueError("preemption_grace_slots may not be negative")


_KINDS = ("map", "reduce")


@dataclass
class _JobEntry:
    """Scheduler-side state for one registered job."""

    job_id: int
    queue: str
    #: Cluster-wide running tasks, by kind.
    usage: dict[str, int] = field(default_factory=lambda: {k: 0 for k in _KINDS})
    #: Per-node running tasks, by kind (so a dead job's residue can be
    #: swept off the node ledgers exactly).
    node_usage: dict[tuple[int, str], int] = field(default_factory=dict)
    #: Gang reservation held (MPI-D), as ``{node: slots}`` or None.
    gang: Optional[dict[int, int]] = None


class JobSlots:
    """One job's view of the cluster scheduler.

    The JobTracker calls :meth:`map_budget`/:meth:`reduce_budget` while
    answering a heartbeat, only for a kind it has a task to place;
    TaskTrackers call :meth:`task_started`/:meth:`task_finished` as
    attempts come and go.  The facade pins the job identity so the
    job-side code never handles scheduler ids.
    """

    def __init__(self, scheduler: "ClusterScheduler", job_id: int):
        self._sched = scheduler
        self.job_id = job_id

    def map_budget(self, node_id: int, free: int) -> int:
        return self._sched.budget(self.job_id, node_id, "map", free)

    def reduce_budget(self, node_id: int, free: int) -> int:
        return self._sched.budget(self.job_id, node_id, "reduce", free)

    def task_started(self, node_id: int, kind: str) -> None:
        self._sched.task_started(self.job_id, node_id, kind)

    def task_finished(self, node_id: int, kind: str) -> None:
        self._sched.task_finished(self.job_id, node_id, kind)


class ClusterScheduler:
    """Slot arbitration across every job on one shared cluster."""

    def __init__(
        self,
        config: SchedulerConfig,
        queues: list[QueueConfig],
        worker_nodes: list[int],
        map_slots_per_node: int,
        reduce_slots_per_node: int,
        clock: Callable[[], float] = lambda: 0.0,
    ):
        if not queues:
            raise ValueError("need at least one queue")
        names = [q.name for q in queues]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate queue names: {names}")
        self.config = config
        self.queues = {q.name: q for q in queues}
        self.worker_nodes = list(worker_nodes)
        self.slots_per_node = {"map": map_slots_per_node, "reduce": reduce_slots_per_node}
        self.totals = {
            k: v * len(self.worker_nodes) for k, v in self.slots_per_node.items()
        }
        self.clock = clock
        self._jobs: dict[int, _JobEntry] = {}
        #: ``(queue, kind) -> entitlement`` memo; it depends only on the
        #: config and each queue's job count, so registration changes
        #: are the only invalidations.
        self._entitlements: dict[tuple[str, str], float] = {}
        #: Cross-job per-node ledger: ``(node, kind) -> running tasks``.
        self._node_used: dict[tuple[int, str], int] = {}
        # -- per-queue accounting ------------------------------------------
        self._queue_usage: dict[str, dict[str, int]] = {
            q: {k: 0 for k in _KINDS} for q in self.queues
        }
        #: Slot-seconds consumed per queue (time-weighted usage integral).
        self.slot_seconds: dict[str, float] = {q: 0.0 for q in self.queues}
        self._last_tick: dict[str, float] = {q: 0.0 for q in self.queues}
        self.preemptions = {k: 0 for k in _KINDS}

    # -- registration ---------------------------------------------------------
    def register_job(self, job_id: int, queue: str) -> JobSlots:
        if queue not in self.queues:
            raise KeyError(f"unknown queue {queue!r}")
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already registered")
        self._jobs[job_id] = _JobEntry(job_id=job_id, queue=queue)
        self._entitlements.clear()
        return JobSlots(self, job_id)

    def job_finished(self, job_id: int) -> None:
        """Deregister and sweep any residue off the ledgers.

        Crashed nodes can orphan ``task_started`` entries (the tracker
        process died before reporting), so the sweep subtracts whatever
        the job still holds rather than trusting it reached zero.
        """
        entry = self._jobs.pop(job_id, None)
        if entry is None:
            return
        self._entitlements.clear()
        self._integrate(entry.queue)
        for (node, kind), n in entry.node_usage.items():
            if n:
                key = (node, kind)
                self._node_used[key] = max(0, self._node_used.get(key, 0) - n)
                self._queue_usage[entry.queue][kind] = max(
                    0, self._queue_usage[entry.queue][kind] - n
                )
        if entry.gang:
            entry.gang = None  # already swept via node_usage above

    # -- entitlements ---------------------------------------------------------
    def _active_queues(self) -> list[QueueConfig]:
        """Queues that currently have jobs, in declaration order — float
        sums over them must not follow a set's hash order."""
        active = {e.queue for e in self._jobs.values()}
        return [q for name, q in self.queues.items() if name in active]

    def _queue_jobs(self, queue: str) -> int:
        return sum(1 for e in self._jobs.values() if e.queue == queue)

    def entitlement(self, job_id: int, kind: str) -> float:
        """This job's fair number of ``kind`` slots (fractional)."""
        key = (self._jobs[job_id].queue, kind)
        value = self._entitlements.get(key)
        if value is None:
            value = self._entitlements[key] = self._entitlement(*key)
        return value

    def _entitlement(self, queue: str, kind: str) -> float:
        total = self.totals[kind]
        policy = self.config.policy
        if policy == "fifo":
            return float(total)
        q = self.queues[queue]
        active = self._active_queues()
        njobs = self._queue_jobs(queue)
        if policy == "fair":
            share = q.weight / sum(a.weight for a in active)
            return total * share / njobs
        # capacity: guaranteed fraction plus a weighted cut of the spare
        # left by queues that are idle or under their guarantee.
        guaranteed = sum(a.capacity for a in active)
        spare = max(0.0, 1.0 - guaranteed)
        wsum = sum(a.weight for a in active)
        bonus = spare * (q.weight / wsum) if wsum else 0.0
        frac = min(q.capacity + bonus, q.max_capacity)
        return total * frac / njobs

    # -- the heartbeat-path query --------------------------------------------
    def budget(self, job_id: int, node_id: int, kind: str, free: int) -> int:
        """How many ``kind`` tasks this job may start on ``node_id`` now.

        The grant is the tightest of (a) the tracker's own free slots,
        (b) the node's physical slots net of *other* jobs' usage, and
        (c) the job's cluster-wide entitlement net of what it already
        runs.  ``ceil`` on (c) guarantees progress: entitlement > 0
        always grants at least one slot once usage drains below it.
        """
        if free <= 0:
            return 0
        entry = self._jobs.get(job_id)
        if entry is None:
            return 0
        node_free = self.slots_per_node[kind] - self._node_used.get(
            (node_id, kind), 0
        )
        grant = min(free, node_free)
        if self.config.policy != "fifo":
            fair = math.ceil(self.entitlement(job_id, kind))
            grant = min(grant, fair - entry.usage[kind])
        return max(0, grant)

    # -- usage reporting -------------------------------------------------------
    def _integrate(self, queue: str) -> None:
        now = self.clock()
        used = sum(self._queue_usage[queue].values())
        self.slot_seconds[queue] += used * (now - self._last_tick[queue])
        self._last_tick[queue] = now

    def task_started(self, job_id: int, node_id: int, kind: str) -> None:
        entry = self._jobs[job_id]
        self._integrate(entry.queue)
        entry.usage[kind] += 1
        key = (node_id, kind)
        entry.node_usage[key] = entry.node_usage.get(key, 0) + 1
        self._node_used[key] = self._node_used.get(key, 0) + 1
        self._queue_usage[entry.queue][kind] += 1

    def task_finished(self, job_id: int, node_id: int, kind: str) -> None:
        entry = self._jobs.get(job_id)
        if entry is None:
            return  # job already finalized; residue was swept
        self._integrate(entry.queue)
        key = (node_id, kind)
        if entry.node_usage.get(key, 0) > 0:
            entry.node_usage[key] -= 1
            entry.usage[kind] -= 1
            self._node_used[key] = max(0, self._node_used.get(key, 0) - 1)
            self._queue_usage[entry.queue][kind] = max(
                0, self._queue_usage[entry.queue][kind] - 1
            )

    # -- MPI-D gang reservation -----------------------------------------------
    def gang_feasible(self, needs: dict[int, int]) -> bool:
        """Could ``needs`` ever fit an *empty* cluster?  Gangs that could
        not are shed at dispatch instead of blocking their queue forever."""
        cap = self.slots_per_node["map"]
        return all(n <= cap for n in needs.values()) and all(
            node in self.worker_nodes for node in needs
        )

    def gang_shortfall(self, needs: dict[int, int]) -> dict[int, int]:
        """Per-node slots missing for this reservation right now."""
        short: dict[int, int] = {}
        cap = self.slots_per_node["map"]
        for node, n in sorted(needs.items()):
            free = cap - self._node_used.get((node, "map"), 0)
            if free < n:
                short[node] = n - free
        return short

    def try_reserve(self, job_id: int, needs: dict[int, int]) -> bool:
        """All-or-nothing: book every rank's slot (as map slots) or none.

        MPI ranks occupy their slots for the job's whole life — the gang
        releases via :meth:`job_finished`'s residue sweep.
        """
        entry = self._jobs[job_id]
        if entry.gang is not None:
            raise ValueError(f"job {job_id} already holds a gang reservation")
        if self.gang_shortfall(needs):
            return False
        self._integrate(entry.queue)
        for node, n in sorted(needs.items()):
            key = (node, "map")
            self._node_used[key] = self._node_used.get(key, 0) + n
            entry.node_usage[key] = entry.node_usage.get(key, 0) + n
        entry.usage["map"] += sum(needs.values())
        self._queue_usage[entry.queue]["map"] += sum(needs.values())
        entry.gang = dict(needs)
        return True

    # -- preemption -----------------------------------------------------------
    def overages(
        self, kind: str, demands: dict[int, int]
    ) -> list[tuple[int, int]]:
        """Which jobs should lose how many ``kind`` slots right now.

        ``demands`` maps job_id -> tasks the job could start immediately
        if granted slots.  Preemption only fires when some job is both
        under its entitlement and actually starved (demand > 0) — then
        over-entitlement jobs give up their excess (beyond the grace),
        youngest-registered first, capped by the total deficit.  Gangs
        are never preempted: killing one rank kills the whole MPI job.
        """
        if self.config.policy == "fifo" or not self._jobs:
            return []
        deficit = 0
        for job_id, entry in self._jobs.items():
            want = demands.get(job_id, 0)
            if want <= 0:
                continue
            fair = math.floor(self.entitlement(job_id, kind))
            deficit += max(0, min(fair, entry.usage[kind] + want) - entry.usage[kind])
        if deficit <= 0:
            return []
        grace = self.config.preemption_grace_slots
        victims: list[tuple[int, int]] = []
        # Youngest-registered jobs first: least sunk work to destroy.
        for job_id in sorted(self._jobs, reverse=True):
            if deficit <= 0:
                break
            entry = self._jobs[job_id]
            if entry.gang is not None:
                continue
            over = entry.usage[kind] - math.ceil(self.entitlement(job_id, kind))
            take = min(max(0, over - grace), deficit)
            if take > 0:
                victims.append((job_id, take))
                deficit -= take
        return victims

    def note_preempted(self, kind: str, n: int) -> None:
        self.preemptions[kind] += n

    # -- reporting -------------------------------------------------------------
    def utilization(self, queue: str, makespan: float) -> float:
        """Queue's share of total slot-seconds over ``makespan``."""
        cap = sum(self.totals.values()) * makespan
        return self.slot_seconds[queue] / cap if cap > 0 else 0.0

    def finalize(self) -> None:
        """Close the usage integrals at the current clock."""
        for q in self.queues:
            self._integrate(q)
