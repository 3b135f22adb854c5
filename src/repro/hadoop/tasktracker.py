"""TaskTracker: the per-node heartbeat loop and slot accounting.

Each worker node runs one TaskTracker process: every
``heartbeat_interval`` seconds it pays the Hadoop-RPC cost of a status
call to the JobTracker (on the master node), reports task completions
and its free slots, and receives assignments — at most one map and one
reduce per beat, the 0.20.2 behaviour whose slot-fill ramp is visibly
part of Hadoop's overhead at small input sizes.  On a shared cluster the
JobTracker, not the tracker, asks the cluster scheduler for a grant, and
only when it has a task of that kind to place; the tracker reports its
slot usage to the scheduler as attempts start and end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hadoop.jobtracker import JobTracker, MapAttempt, ReduceAttempt
from repro.simnet.kernel import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.simulation import HadoopSimulation


class TaskTracker:
    """One worker node's tracker state + heartbeat process."""

    def __init__(self, env: "HadoopSimulation", worker_index: int):
        self.env = env
        self.worker_index = worker_index
        self.node_id = env.worker_node_id(worker_index)
        self.config = env.config
        self.running_maps = 0
        self.running_reduces = 0
        self._completed_unreported: list[int] = []
        self.heartbeats_sent = 0

    # -- callbacks from task processes ----------------------------------------
    def map_completed(self, attempt: MapAttempt) -> None:
        self.running_maps -= 1
        self._slot_freed("map")
        self._completed_unreported.append(attempt.task_id)

    def map_failed(self, attempt: MapAttempt) -> None:
        """An attempt died on this (live) node; the slot frees, nothing
        is reported — the JobTracker was told directly."""
        self.running_maps -= 1
        self._slot_freed("map")

    def reduce_completed(self, attempt: ReduceAttempt) -> None:
        self.running_reduces -= 1
        self._slot_freed("reduce")

    def reduce_failed(self, attempt: ReduceAttempt) -> None:
        """A reduce attempt gave up on this (live) node; the slot frees —
        the JobTracker was told directly (``reduce_attempt_failed``)."""
        self.running_reduces -= 1
        self._slot_freed("reduce")

    def _slot_freed(self, kind: str) -> None:
        sched = self.env.sched
        if sched is not None:
            sched.task_finished(self.node_id, kind)

    # -- the heartbeat loop -------------------------------------------------------
    def run(self):
        """DES process: beat until the job is done (or this node dies)."""
        env = self.env
        sim = env.sim
        jt: JobTracker = env.jobtracker
        jt.tracker_registered(self.node_id, sim.now)
        # Stagger first beats so 7 trackers don't align artificially.
        stagger = (self.worker_index / max(1, env.num_workers)) * (
            self.config.heartbeat_interval
        )
        try:
            # Heartbeat sleeps come from the kernel's pooled tick arena.
            yield sim.tick(stagger)
            while not (jt.job_done or jt.job_failed):
                # The status RPC: request to the master and response back.
                yield sim.tick(env.status_rpc_latency)
                completions = self._completed_unreported
                self._completed_unreported = []
                maps, reduces = jt.heartbeat(
                    node=self.node_id,
                    free_map_slots=self.config.map_slots - self.running_maps,
                    free_reduce_slots=self.config.reduce_slots - self.running_reduces,
                    completed_map_ids=completions,
                    now=sim.now,
                )
                yield sim.tick(env.status_rpc_latency)
                for attempt in maps:
                    self.running_maps += 1
                    proc = env.spawn_on_node(
                        self.node_id,
                        env.run_map_task(attempt, self),
                        name=f"map{attempt.task_id}",
                    )
                    env.note_attempt("map", attempt, proc, self)
                for rattempt in reduces:
                    self.running_reduces += 1
                    proc = env.spawn_on_node(
                        self.node_id,
                        env.run_reduce_task(rattempt, self),
                        name=f"red{rattempt.task_id}",
                    )
                    env.note_attempt("reduce", rattempt, proc, self)
                self.heartbeats_sent += 1
                obs = sim.obs
                if obs.enabled:
                    obs.metrics.counter("transport.rpc.heartbeats").add()
                    obs.metrics.counter("transport.rpc.bytes").add(
                        2 * self.config.rpc_status_bytes
                    )
                    if maps or reduces:
                        obs.tracer.instant(
                            "transport.rpc",
                            f"assign n{self.node_id}",
                            track=f"rpc:n{self.node_id}",
                            maps=len(maps),
                            reduces=len(reduces),
                        )
                yield sim.tick(self.config.heartbeat_interval)
        except Interrupt:
            return  # node crashed; the JobTracker learns via heartbeat expiry
