"""JobTracker state: task bookkeeping and the heartbeat assignment policy.

The JobTracker here is a passive state machine — TaskTracker processes
drive it by calling :meth:`JobTracker.heartbeat` every interval, exactly
like Hadoop 0.20.2's ``heartbeat()`` RPC: the tracker reports completed
tasks and receives new assignments (at most ``maps_per_heartbeat`` map
tasks, node-local preferred, plus reduce tasks once slowstart is met).
On a shared cluster the JobTracker also asks the cluster scheduler's
slot facade for a grant, but only for a kind it has a task to place.

Map completions become *visible* to reducers only when reported on a
heartbeat — the announcement delay that real reducers experience between
a map finishing and its output being fetchable knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hadoop.config import HadoopConfig
from repro.hadoop.hdfs import Block, HdfsFile
from repro.hadoop.job import JobSpec
from repro.hadoop.metrics import MapTaskMetrics, ReduceTaskMetrics

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"


# eq=False on the task records: task_ids are unique, so identity comparison
# is equivalent to field equality here, and list.remove() on the pending/
# running queues must not pay a full dataclass field compare per element
# (it shows up as ~10% of wall time on the 100 GB Figure-6 run).
@dataclass(eq=False)
class MapTaskInfo:
    task_id: int
    block: Block
    state: str = _PENDING
    node: Optional[int] = None  # winning attempt's node once DONE
    output_bytes: float = 0.0
    completed_at: Optional[float] = None
    announced: bool = False
    metrics: Optional[MapTaskMetrics] = None  # winning attempt's metrics
    attempts: int = 0
    first_started: Optional[float] = None
    failed_attempts: int = 0
    #: Winning attempt's tracer span id (0 = untraced); lets reducers
    #: record shuffle happens-before edges back to the map that produced
    #: each fetched output.
    span_sid: int = 0

    @property
    def preferred_nodes(self) -> tuple[int, ...]:
        return self.block.replicas


@dataclass(eq=False)
class MapAttempt:
    """One execution attempt of a map task (original or speculative)."""

    task: MapTaskInfo
    node: int
    metrics: MapTaskMetrics
    speculative: bool = False

    # Convenience pass-throughs so schedulers/tests read attempts like tasks.
    @property
    def task_id(self) -> int:
        return self.task.task_id


@dataclass(eq=False)
class ReduceTaskInfo:
    task_id: int
    partition: int
    state: str = _PENDING
    node: Optional[int] = None  # winning attempt's node once DONE
    metrics: Optional[ReduceTaskMetrics] = None  # winning attempt's metrics
    attempts: int = 0
    failed_attempts: int = 0
    first_started: Optional[float] = None


@dataclass(eq=False)
class ReduceAttempt:
    """One execution attempt of a reduce task (original or speculative)."""

    task: ReduceTaskInfo
    node: int
    metrics: ReduceTaskMetrics
    speculative: bool = False

    @property
    def task_id(self) -> int:
        return self.task.task_id

    @property
    def partition(self) -> int:
        return self.task.partition


@dataclass
class MapOutputRef:
    """What a reducer needs to fetch one map's partition slice."""

    map_id: int
    node: int
    partition_bytes: float
    span_sid: int = 0  # producing map attempt's span (0 = untraced)


class JobTracker:
    """Task state + assignment policy for one job."""

    def __init__(
        self,
        spec: JobSpec,
        config: HadoopConfig,
        hdfs_file: HdfsFile,
        num_workers: int,
        sched: Optional[object] = None,
    ):
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        self.spec = spec
        self.config = config
        self.num_workers = num_workers
        #: Cluster-scheduler slot facade (a ``JobSlots``) on a shared
        #: cluster, None on a standalone run.
        self.sched = sched
        self.maps = [
            MapTaskInfo(task_id=i, block=b) for i, b in enumerate(hdfs_file.blocks)
        ]
        if not self.maps:
            raise ValueError("job input has no blocks")
        self.num_reduces = spec.reduce_tasks(config.block_size)
        self.reduces = [
            ReduceTaskInfo(task_id=i, partition=i) for i in range(self.num_reduces)
        ]
        #: Output fraction per reduce partition (key-skew model).
        self.partition_weights = spec.normalized_weights(self.num_reduces)
        self._pending_maps: list[MapTaskInfo] = list(self.maps)
        # node -> pending local maps, for O(1) locality-aware pops.
        self._local_index: dict[int, list[MapTaskInfo]] = {}
        for task in self.maps:
            for node in task.preferred_nodes:
                self._local_index.setdefault(node, []).append(task)
        self._next_reduce = 0
        self.maps_completed = 0
        self.maps_announced = 0
        self.reduces_completed = 0
        self.speculative_attempts = 0
        self.speculative_wins = 0
        self.speculative_reduce_attempts = 0
        self.speculative_reduce_wins = 0
        self._completed_durations: list[float] = []
        self._completed_reduce_durations: list[float] = []
        #: Announcement log, append-only; reducers poll with a cursor so a
        #: poll costs O(new events), like TaskCompletionEvents paging.  A
        #: re-executed map is appended *again* on its second completion;
        #: reducers dedupe by map id.
        self._announced_order: list[MapTaskInfo] = []
        # -- fault-tolerance state -------------------------------------------
        self.last_heartbeat: dict[int, float] = {}
        self.blacklisted: set[int] = set()
        self.job_failed = False
        self.failure_reason: Optional[str] = None
        self._requeued_reduces: list[ReduceTaskInfo] = []
        # node -> attempts/reduces currently executing there, so a lost
        # tracker can be unwound attempt-by-attempt.
        self._running_attempts: dict[int, list[MapAttempt]] = {}
        self._running_reduce_map: dict[int, list[ReduceAttempt]] = {}
        self.lost_trackers = 0
        self.failed_map_attempts = 0
        self.failed_reduce_attempts = 0
        self.maps_reexecuted = 0
        self.fetch_failures = 0
        self.wasted_task_seconds = 0.0
        # -- scheduler-preemption state (multi-tenant clusters) ----------------
        #: Attempts killed by the cluster scheduler to reclaim slots for
        #: another tenant; the work requeues without burning a retry.
        self.maps_preempted = 0
        self.reduces_preempted = 0
        # -- shuffle-robustness state (lossy networks) ------------------------
        #: Retry attempts reducers performed after transient fetch failures.
        self.fetch_retries = 0
        #: Maps re-executed because reducers hit the fetch-failure threshold
        #: (distinct from maps_reexecuted via dead nodes, which it feeds).
        self.maps_reexecuted_for_fetch = 0
        #: map id -> transient fetch-failure strikes (0.20's three-strikes).
        self._fetch_fail_counts: dict[int, int] = {}
        # Structured failure record (who/when/what), for post-mortems.
        self.failure_node: Optional[int] = None
        self.failure_time: Optional[float] = None
        self.failure_task: Optional[int] = None

    # -- queries --------------------------------------------------------------
    @property
    def total_maps(self) -> int:
        return len(self.maps)

    @property
    def job_done(self) -> bool:
        return self.reduces_completed == self.num_reduces

    @property
    def map_phase_done(self) -> bool:
        return self.maps_completed == self.total_maps

    def reduces_may_start(self) -> bool:
        """Hadoop's slowstart rule, on *announced* completions."""
        if self.config.reduce_slowstart == 0.0:
            return True
        threshold = self.config.reduce_slowstart * self.total_maps
        return self.maps_announced > 0 and self.maps_announced >= threshold

    def visible_map_outputs(self, partition: int) -> list[MapOutputRef]:
        """All completed-and-announced map outputs, as a reducer's event
        poll sees them."""
        refs, _ = self.poll_map_outputs(0, partition)
        return refs

    def poll_map_outputs(
        self, cursor: int, partition: int = 0
    ) -> tuple[list[MapOutputRef], int]:
        """TaskCompletionEvents paging: announcements after ``cursor``.

        Returns the new output references (sized by ``partition``'s
        output share) and the advanced cursor, so one poll costs O(new
        completions) rather than O(total maps).
        """
        weight = self.partition_weights[partition]
        log = self._announced_order
        # An invalidated map (its node died with the output) leaves its
        # stale log entry behind with ``node`` reset to None; skip those —
        # the re-execution appends a fresh entry on re-completion.
        refs = [
            MapOutputRef(
                map_id=task.task_id,
                node=task.node,
                partition_bytes=task.output_bytes * weight,
                span_sid=task.span_sid,
            )
            for task in log[cursor:]
            if task.node is not None
        ]
        return refs, len(log)

    # -- the heartbeat protocol ---------------------------------------------------
    def heartbeat(
        self,
        node: int,
        free_map_slots: int,
        free_reduce_slots: int,
        completed_map_ids: list[int],
        now: float,
    ) -> tuple[list[MapAttempt], list[ReduceAttempt]]:
        """One tracker's heartbeat: report completions, receive work.

        ``free_*_slots`` are the tracker's physical free slots.  On a
        shared cluster the scheduler facade may grant fewer; it is asked
        only after this beat's completions are announced (they can cross
        slowstart) and only for a kind with a task to place, which is
        what keeps an idle beat cheap.
        """
        if node in self.blacklisted:
            return [], []
        self.last_heartbeat[node] = now
        for mid in completed_map_ids:
            task = self.maps[mid]
            if not task.announced:
                task.announced = True
                self.maps_announced += 1
                self._announced_order.append(task)
        speculative = self.config.speculative_execution
        sched = self.sched

        assigned_maps: list[MapAttempt] = []
        # Every PENDING map is in _pending_maps: when it is empty only a
        # speculative attempt could be placed.
        budget = 0
        if self._pending_maps or speculative:
            budget = min(self.config.maps_per_heartbeat, max(0, free_map_slots))
            if sched is not None and budget > 0:
                budget = min(budget, sched.map_budget(node, free_map_slots))
        while budget > 0:
            task = self._pop_map_for(node)
            if task is None:
                break
            task.state = _RUNNING
            task.node = node
            task.attempts += 1
            task.first_started = now
            metrics = MapTaskMetrics(task_id=task.task_id, node=node, scheduled_at=now)
            metrics.data_local = node in task.preferred_nodes
            task.metrics = metrics
            attempt = MapAttempt(task=task, node=node, metrics=metrics)
            self._running_attempts.setdefault(node, []).append(attempt)
            assigned_maps.append(attempt)
            budget -= 1

        if speculative and budget > 0 and not self._pending_maps:
            attempt = self._speculate(node, now)
            if attempt is not None:
                self._running_attempts.setdefault(node, []).append(attempt)
                assigned_maps.append(attempt)

        assigned_reduces: list[ReduceAttempt] = []
        if self.reduces_may_start() and (
            self._requeued_reduces
            or self._next_reduce < self.num_reduces
            or speculative
        ):
            budget = min(
                self.config.reduces_per_heartbeat, max(0, free_reduce_slots)
            )
            if sched is not None and budget > 0:
                budget = min(budget, sched.reduce_budget(node, free_reduce_slots))
            while budget > 0:
                if self._requeued_reduces:
                    task = self._requeued_reduces.pop(0)
                elif self._next_reduce < self.num_reduces:
                    task = self.reduces[self._next_reduce]
                    self._next_reduce += 1
                else:
                    break
                task.state = _RUNNING
                task.node = node
                task.attempts += 1
                task.first_started = now
                metrics = ReduceTaskMetrics(
                    task_id=task.task_id, node=node, scheduled_at=now
                )
                task.metrics = metrics
                attempt = ReduceAttempt(task=task, node=node, metrics=metrics)
                self._running_reduce_map.setdefault(node, []).append(attempt)
                assigned_reduces.append(attempt)
                budget -= 1

            if (
                speculative
                and budget > 0
                and not self._requeued_reduces
                and self._next_reduce >= self.num_reduces
            ):
                attempt = self._speculate_reduce(node, now)
                if attempt is not None:
                    self._running_reduce_map.setdefault(node, []).append(attempt)
                    assigned_reduces.append(attempt)

        return assigned_maps, assigned_reduces

    def _pop_map_for(self, node: int) -> Optional[MapTaskInfo]:
        """Node-local map first (HDFS locality), else head of line."""
        local = self._local_index.get(node)
        while local:
            task = local.pop()
            if task.state == _PENDING:
                self._pending_maps.remove(task)
                return task
        while self._pending_maps:
            task = self._pending_maps.pop(0)
            if task.state == _PENDING:
                return task
        return None

    def _speculate(self, node: int, now: float) -> Optional[MapAttempt]:
        """Pick the worst straggler for a duplicate attempt on ``node``."""
        if not self._completed_durations:
            return None
        avg = sum(self._completed_durations) / len(self._completed_durations)
        threshold = self.config.speculative_slowness * avg
        best: Optional[MapTaskInfo] = None
        best_elapsed = threshold
        for task in self.maps:
            if (
                task.state == _RUNNING
                and task.attempts < 2
                and task.node != node
                and task.first_started is not None
            ):
                elapsed = now - task.first_started
                if elapsed > best_elapsed:
                    best = task
                    best_elapsed = elapsed
        if best is None:
            return None
        best.attempts += 1
        self.speculative_attempts += 1
        metrics = MapTaskMetrics(task_id=best.task_id, node=node, scheduled_at=now)
        metrics.data_local = node in best.preferred_nodes
        return MapAttempt(task=best, node=node, metrics=metrics, speculative=True)

    def _speculate_reduce(self, node: int, now: float) -> Optional[ReduceAttempt]:
        """Same slowness heuristic as :meth:`_speculate`, for reduces."""
        if not self._completed_reduce_durations:
            return None
        avg = sum(self._completed_reduce_durations) / len(
            self._completed_reduce_durations
        )
        threshold = self.config.speculative_slowness * avg
        best: Optional[ReduceTaskInfo] = None
        best_elapsed = threshold
        for task in self.reduces:
            if (
                task.state == _RUNNING
                and task.attempts < 2
                and task.node != node
                and task.first_started is not None
            ):
                elapsed = now - task.first_started
                if elapsed > best_elapsed:
                    best = task
                    best_elapsed = elapsed
        if best is None:
            return None
        best.attempts += 1
        self.speculative_reduce_attempts += 1
        metrics = ReduceTaskMetrics(task_id=best.task_id, node=node, scheduled_at=now)
        return ReduceAttempt(task=best, node=node, metrics=metrics, speculative=True)

    # -- completion callbacks (from task processes) ----------------------------------
    def map_finished(
        self, attempt: MapAttempt, output_bytes: float, now: float
    ) -> bool:
        """Record one attempt's completion; returns True if it won.

        With speculative execution two attempts can race; the first to
        finish defines the task's node, output and metrics, the loser is
        ignored (real Hadoop kills it; we let it drain — same schedule,
        slightly pessimistic slot usage).
        """
        task = attempt.task
        self._drop_running_attempt(attempt)
        if task.state == _DONE:
            return False
        if task.state != _RUNNING:
            raise RuntimeError(f"map {task.task_id} finished in state {task.state}")
        task.state = _DONE
        task.node = attempt.node
        task.output_bytes = output_bytes
        task.completed_at = now
        task.metrics = attempt.metrics
        self.maps_completed += 1
        self._completed_durations.append(attempt.metrics.duration)
        if attempt.speculative:
            self.speculative_wins += 1
        return True

    def reduce_finished(self, attempt: ReduceAttempt) -> bool:
        """Record one reduce attempt's completion; returns True if it won.

        Same first-wins rule as :meth:`map_finished`: with speculative
        execution two attempts can race and the loser is ignored.
        """
        task = attempt.task
        self._drop_running_reduce(attempt)
        if task.state == _DONE:
            return False
        if task.state != _RUNNING:
            raise RuntimeError(
                f"reduce {task.task_id} finished in state {task.state}"
            )
        task.state = _DONE
        task.node = attempt.node
        task.metrics = attempt.metrics
        self.reduces_completed += 1
        self._completed_reduce_durations.append(attempt.metrics.duration)
        if attempt.speculative:
            self.speculative_reduce_wins += 1
        return True

    # -- failure handling & recovery ------------------------------------------
    def fail_job(
        self,
        reason: str,
        *,
        node: Optional[int] = None,
        task_id: Optional[int] = None,
        at: Optional[float] = None,
    ) -> None:
        """Mark the whole job failed; trackers drain at their next beat.

        The keyword fields pin *why*: the node involved, the task whose
        attempts ran out, and the failure time — only the first failure
        is recorded (later ones are consequences).
        """
        if not self.job_failed:
            self.job_failed = True
            self.failure_reason = reason
            self.failure_node = node
            self.failure_task = task_id
            self.failure_time = at

    def tracker_registered(self, node: int, now: float) -> None:
        """A TaskTracker (re)connected — the start of its heartbeat stream.

        A tracker that re-registers while the JobTracker still holds
        state for its previous incarnation (crash + restart inside the
        expiry window) is handled like Hadoop's re-initialized tracker:
        the old incarnation's running attempts and map outputs are gone,
        so they are unwound first, then the node is taken off the
        blacklist and may receive work again.
        """
        if node in self.blacklisted:
            self.blacklisted.discard(node)
        elif self._tracker_holds_state(node):
            self.lost_tasktracker(node, now)
            self.blacklisted.discard(node)
        self.last_heartbeat[node] = now

    def _tracker_holds_state(self, node: int) -> bool:
        return bool(
            self._running_attempts.get(node)
            or self._running_reduce_map.get(node)
            or any(t.state == _DONE and t.node == node for t in self.maps)
        )

    def find_expired(self, now: float, interval: float) -> list[int]:
        """Nodes whose last heartbeat is older than ``interval``."""
        return [
            node
            for node, beat in sorted(self.last_heartbeat.items())
            if now - beat > interval and node not in self.blacklisted
        ]

    def lost_tasktracker(self, node: int, now: float) -> None:
        """Heartbeat expiry: unwind everything the dead tracker held.

        Mirrors ``JobTracker.lostTaskTracker``: running attempts on the
        node fail (and reschedule unless a twin attempt survives
        elsewhere), *completed* map outputs stored there are lost and the
        maps re-execute (their output lived in mapred.local.dir, not
        HDFS), and the node is blacklisted until it re-registers.
        """
        if node in self.blacklisted:
            return
        self.blacklisted.add(node)
        self.lost_trackers += 1
        self.last_heartbeat.pop(node, None)
        for attempt in self._running_attempts.pop(node, []):
            self._map_attempt_lost(attempt, now)
        if not self.job_done:
            for task in self.maps:
                if task.state == _DONE and task.node == node:
                    self._invalidate_map_output(task, now)
        for rattempt in self._running_reduce_map.pop(node, []):
            self._reduce_attempt_lost(rattempt, now)

    def map_attempt_failed(self, attempt: MapAttempt, now: float) -> None:
        """One attempt died on a live node (e.g. its input became
        unreadable); the tracker reports it instead of a completion."""
        self._drop_running_attempt(attempt)
        self._map_attempt_lost(attempt, now)

    def fetch_failed(
        self, map_ids: list[int], src_node: int, now: float, definite: bool = True
    ) -> None:
        """A reducer could not pull map output from ``src_node``.

        ``definite=True`` is the node-is-gone report (the source died
        mid-fetch): the output is certainly lost, so the map re-executes
        immediately, as before.  ``definite=False`` is the lossy-network
        report — the host may merely be unreachable right now — so the
        JobTracker counts strikes per map and re-executes only once
        ``fetch_failure_threshold`` reducers have complained (Hadoop
        0.20's three-strikes rule).
        """
        for mid in map_ids:
            self.fetch_failures += 1
            task = self.maps[mid]
            if task.state != _DONE or task.node != src_node or self.job_done:
                continue
            if definite:
                self._invalidate_map_output(task, now)
                continue
            strikes = self._fetch_fail_counts.get(mid, 0) + 1
            self._fetch_fail_counts[mid] = strikes
            if strikes >= self.config.fetch_failure_threshold:
                self.maps_reexecuted_for_fetch += 1
                self._invalidate_map_output(task, now)

    def reduce_attempt_failed(self, attempt: ReduceAttempt, now: float) -> None:
        """One reduce attempt gave up on a live node (e.g. its output
        replication could not get through the network faults); the
        attempt is unwound and the reduce requeued like any lost one."""
        self._drop_running_reduce(attempt)
        self._reduce_attempt_lost(attempt, now)

    # -- scheduler preemption -------------------------------------------------
    def map_attempt_preempted(self, attempt: MapAttempt, now: float) -> None:
        """The cluster scheduler killed this attempt to reclaim its slot.

        Unlike a failure, preemption does not burn a retry: the task goes
        straight back on the pending queue (unless a twin attempt is
        still running elsewhere) and can never fail the job.
        """
        self._drop_running_attempt(attempt)
        self.maps_preempted += 1
        task = attempt.task
        self.wasted_task_seconds += max(0.0, now - attempt.metrics.scheduled_at)
        if task.state != _RUNNING:
            return
        if any(
            a.task is task
            for atts in self._running_attempts.values()
            for a in atts
        ):
            return
        task.state = _PENDING
        task.node = None
        self._requeue_map(task)

    def reduce_attempt_preempted(self, attempt: ReduceAttempt, now: float) -> None:
        """Scheduler preemption of a reduce attempt; requeues retry-free."""
        self._drop_running_reduce(attempt)
        self.reduces_preempted += 1
        task = attempt.task
        self.wasted_task_seconds += max(0.0, now - attempt.metrics.scheduled_at)
        if task.state != _RUNNING:
            return
        if any(
            a.task is task
            for atts in self._running_reduce_map.values()
            for a in atts
        ):
            return
        task.state = _PENDING
        task.node = None
        self._requeued_reduces.append(task)

    # -- recovery internals ---------------------------------------------------
    def _drop_running_attempt(self, attempt: MapAttempt) -> None:
        running = self._running_attempts.get(attempt.node)
        if running and attempt in running:
            running.remove(attempt)

    def _drop_running_reduce(self, attempt: ReduceAttempt) -> None:
        running = self._running_reduce_map.get(attempt.node)
        if running and attempt in running:
            running.remove(attempt)

    def _map_attempt_lost(self, attempt: MapAttempt, now: float) -> None:
        task = attempt.task
        self.failed_map_attempts += 1
        task.failed_attempts += 1
        self.wasted_task_seconds += max(0.0, now - attempt.metrics.scheduled_at)
        if task.state != _RUNNING:
            return  # already completed elsewhere, or already requeued
        if any(
            a.task is task
            for atts in self._running_attempts.values()
            for a in atts
        ):
            return  # a twin (speculative) attempt is still alive
        if task.failed_attempts >= self.config.max_attempts:
            self.fail_job(
                f"map {task.task_id} failed {task.failed_attempts} attempts",
                node=attempt.node,
                task_id=task.task_id,
                at=now,
            )
            return
        task.state = _PENDING
        task.node = None
        self._requeue_map(task)

    def _reduce_attempt_lost(self, attempt: ReduceAttempt, now: float) -> None:
        task = attempt.task
        self.failed_reduce_attempts += 1
        task.failed_attempts += 1
        self.wasted_task_seconds += max(0.0, now - attempt.metrics.scheduled_at)
        if task.state != _RUNNING:
            return  # already completed elsewhere, or already requeued
        if any(
            a.task is task
            for atts in self._running_reduce_map.values()
            for a in atts
        ):
            return  # a twin (speculative) attempt is still alive
        if task.failed_attempts >= self.config.max_attempts:
            self.fail_job(
                f"reduce {task.task_id} failed {task.failed_attempts} attempts",
                node=attempt.node,
                task_id=task.task_id,
                at=now,
            )
            return
        task.state = _PENDING
        task.node = None
        self._requeued_reduces.append(task)

    def _invalidate_map_output(self, task: MapTaskInfo, now: float) -> None:
        """A completed map's output died with its node: run it again."""
        self._fetch_fail_counts.pop(task.task_id, None)
        task.state = _PENDING
        task.node = None
        task.span_sid = 0  # the output (and its producing span) is gone
        task.output_bytes = 0.0
        task.completed_at = None
        self.maps_completed -= 1
        if task.announced:
            task.announced = False
            self.maps_announced -= 1
        self.maps_reexecuted += 1
        if task.metrics is not None:
            self.wasted_task_seconds += task.metrics.duration
        self._requeue_map(task)

    def _requeue_map(self, task: MapTaskInfo) -> None:
        self._pending_maps.append(task)
        for node in task.preferred_nodes:
            self._local_index.setdefault(node, []).append(task)
