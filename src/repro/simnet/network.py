"""Flow-level network model with max-min fair bandwidth sharing.

The paper's testbed is 8 nodes on one Gigabit Ethernet switch.  We model
it at *flow* granularity (the standard flow-level abstraction used by
SimGrid-style simulators): a :class:`Flow` is a transfer of N bytes from
one node to another, its path is the sender's uplink plus the receiver's
downlink, and whenever the set of active flows changes the
:class:`Network` recomputes a **max-min fair** allocation by progressive
filling over all links.  This captures exactly the contention pattern
that makes Hadoop's copy stage slow in Figure 1: many reducers pulling
from many mappers saturate node downlinks.

Latency is charged once per flow (propagation + protocol setup, supplied
by the caller) before the bytes begin to flow.

Every solve re-rates every active flow in one progressive-filling
loop that also freezes rate-capped flows, one per rescan.  It is the
from-scratch reference pass with cheaper bookkeeping (links sorted once
per solve, unfrozen counts maintained, a cursor over the sorted caps,
no residual updates in the final round), so it reproduces that pass
**bit-for-bit**.  The pass is kept as a test oracle (``reference_rates``
in ``tests/simnet/oracle.py``) and pinned by the differential tests in
``tests/simnet/test_maxmin_differential.py`` and the golden-export
tests in ``tests/experiments/``.

Between solves the flow population advances by *horizon batching*:
remaining bytes and rates live in dense per-network slot lists, one
pass advances every flow to the next rate-change epoch, one scan finds
that epoch and the flows it finishes, and completion timers come from
the kernel's pooled tick arena.  Same-instant joins and leaves defer
the solve to one 0-delay tick per instant.  Per-link byte/busy
accounting is settled lazily (piecewise-constant rate sums), which is
float-equivalent but not bit-identical — link utilization is
reporting, not part of the simulated timeline.  A scalar per-flow
engine is kept as a test oracle (``tests/simnet/oracle.py``); rates,
completion instants and delivered bytes match it bit-for-bit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional

from repro.simnet.kernel import Event, Simulator

# Sort keys for the solver, hoisted: attrgetter beats a lambda in the
# per-solve sorts and matches the reference's ordering exactly (links
# by name; flows by (rate_cap, seq)).
_LINK_NAME = attrgetter("name")
_CAP_SEQ = attrgetter("rate_cap", "seq")

class FlowFailed(RuntimeError):
    """Raised in processes waiting on a flow that was killed in flight.

    Carries the :class:`Flow` and a short reason string (``"loss:..."``,
    ``"link-down:..."``, ``"partitioned"``, ``"fetch-timeout"`` ...) so
    retry layers can distinguish loss from cancellation they requested.
    """

    def __init__(self, flow: "Flow", reason: str):
        super().__init__(f"flow #{flow.seq} failed: {reason}")
        self.flow = flow
        self.reason = reason


class Link:
    """A unidirectional link with a fixed capacity in bytes/second."""

    __slots__ = (
        "name",
        "capacity",
        "_flows",
        "bytes_carried",
        "busy_time",
        "up",
        "_rate_sum",
        "_last_t",
    )

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        self._flows: set["Flow"] = set()
        self.bytes_carried = 0.0
        self.busy_time = 0.0
        self.up = True
        # Lazy accounting: the instant the byte/busy counters were last
        # settled to.  Flow rates are piecewise
        # constant between solves, so the counters only need touching
        # right before a membership or rate change — at which point the
        # aggregate rate is summed on demand from the (still-old) flow
        # rates.
        self._last_t = 0.0

    def _settle(self, now: float) -> None:
        """Bring byte/busy counters up to ``now``.

        Must run *before* any of this link's flows change rate or leave:
        the elapsed interval is integrated under the rates still in
        force.
        """
        dt = now - self._last_t
        self._last_t = now
        if dt > 0.0 and self._flows:
            self.busy_time += dt
            self.bytes_carried += sum(f.rate for f in self._flows) * dt

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def utilization(self, elapsed: float) -> float:
        """Carried bytes over what the link could have carried in ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.bytes_carried / (self.capacity * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.capacity:.3g} B/s, {len(self._flows)} flows>"


class Flow:
    """One transfer in flight: remaining bytes, current fair rate, done event."""

    __slots__ = (
        "network",
        "path",
        "remaining",
        "rate",
        "rate_cap",
        "done",
        "nbytes",
        "started_at",
        "seq",
        "sid",
        "waiter_sid",
        "_local_timer",
        "slot",
    )

    def __init__(
        self,
        network: "Network",
        path: tuple[Link, ...],
        nbytes: float,
        rate_cap: float = float("inf"),
        waiter_sid: int = 0,
    ):
        self.network = network
        self.path = path
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.rate_cap = float(rate_cap)
        self.done: Event = network.sim.event()
        self.started_at = network.sim.now
        self.seq = network._next_seq()
        self.sid = 0  # tracer span id once the flow starts (0 = untraced)
        #: Span that waits on this flow (0 = unknown); when both sids are
        #: live the tracer records a happens-before edge flow -> waiter.
        self.waiter_sid = waiter_sid
        self._local_timer: Optional[Event] = None  # node-local drain timer
        self.slot = -1  # dense slot index while active, -1 otherwise


class Network:
    """The set of links plus the active-flow bookkeeping.

    ``transfer(path, nbytes, latency)`` returns an event that fires when
    the last byte arrives.  Rates are recomputed on every flow arrival and
    departure with the progressive-filling algorithm:

    1. all flows unfrozen, all link capacities residual;
    2. the link with the smallest ``residual / unfrozen_flow_count`` is the
       bottleneck — freeze its flows at that share, unless the tightest
       unfrozen ``rate_cap`` is lower: then freeze that one flow at its cap;
    3. subtract, repeat until every flow is frozen.
    """

    _EPS = 1e-9

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._links: dict[str, Link] = {}
        self._flows: set[Flow] = set()
        self._last_t = 0.0
        self._timer_token = 0
        self._flow_seq = 0
        self.bytes_delivered = 0.0
        #: Partition map: link -> group id.  Links in different groups
        #: cannot appear on the same path; empty dict = no partition.
        self._link_group: dict[Link, int] = {}
        self.flows_failed = 0
        self.flows_cancelled = 0
        self.first_flow_failure_at: Optional[float] = None
        #: The currently pending completion timer; superseded timers are
        #: tombstoned so the kernel skips their dispatch entirely.
        self._pending_timer: Optional[Event] = None
        # -- solver effort counters (plain ints: free when obs is off) ----------
        self.rate_recomputes = 0  #: solver invocations
        self.rate_recompute_flows = 0  #: flows whose rate was re-derived
        self.rate_skips = 0  #: solves skipped (none: every solve re-rates)
        # -- horizon-batching state --------------------------------------------
        # Active flows live in dense slots 0..n-1 of the remaining/rate
        # lists; a departing flow is swap-removed (the last slot moves
        # into the hole and its flow's ``slot`` is patched).  The slots
        # are private to this Network — a fresh Network never inherits
        # another's, so arena reuse cannot leak across runs.
        self._slot_rem: list[float] = []
        self._slot_rate: list[float] = []
        self._slot_flows: list[Flow] = []
        # Solve flush: reallocations are deferred to one pooled tick per
        # *instant*, so a burst of same-time joins/leaves (the lockstep-
        # mapper spill storm) costs a single solve.  The intermediate
        # allocations a per-change solve would compute are never
        # observable — no simulated time passes between the changes —
        # and superseded completion timers are tombstoned eagerly by the
        # token bump.
        self._flush_tick: Optional[Event] = None
        self._flush_when = -1.0

    def _next_seq(self) -> int:
        self._flow_seq += 1
        return self._flow_seq

    # -- topology -------------------------------------------------------------
    def add_link(self, name: str, capacity: float) -> Link:
        if name in self._links:
            raise ValueError(f"duplicate link name {name!r}")
        link = Link(name, capacity)
        self._links[name] = link
        return link

    def link(self, name: str) -> Link:
        return self._links[name]

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Change one link's capacity mid-simulation (fault injection).

        In-flight flows keep the bytes they have already moved; the
        max-min allocation is recomputed at the new capacity and stale
        completion timers are superseded by the token bump.
        """
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self._advance()
        link.capacity = float(capacity)
        self._reallocate()

    # -- transfers --------------------------------------------------------------
    def transfer(
        self,
        path: Iterable[Link],
        nbytes: float,
        latency: float = 0.0,
        rate_cap: float = float("inf"),
        waiter_sid: int = 0,
    ) -> Event:
        """Move ``nbytes`` along ``path`` after ``latency``; returns the done event.

        A zero-byte transfer still pays the latency (a ping is not free).
        An empty path models a node-local transfer: only latency is
        charged.  ``rate_cap`` bounds this flow below link speed — the
        knob protocol-bound transports (Hadoop RPC) use.  ``waiter_sid``
        names the span that will wait on this transfer; the tracer then
        records a flow -> waiter happens-before edge for the DAG builder.
        """
        return self.transfer_flow(
            path, nbytes, latency=latency, rate_cap=rate_cap, waiter_sid=waiter_sid
        ).done

    def transfer_flow(
        self,
        path: Iterable[Link],
        nbytes: float,
        latency: float = 0.0,
        rate_cap: float = float("inf"),
        waiter_sid: int = 0,
    ) -> Flow:
        """Like :meth:`transfer` but returns the :class:`Flow` itself.

        Callers that need the handle — to :meth:`cancel_flow` on a fetch
        timeout, or to be a fault injector's victim — use this; everyone
        else keeps the event-only :meth:`transfer`.
        """
        path_t = tuple(path)
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if rate_cap <= 0:
            raise ValueError(f"rate cap must be positive: {rate_cap}")
        flow = Flow(self, path_t, nbytes, rate_cap=rate_cap, waiter_sid=waiter_sid)
        if latency > 0:
            self.sim.tick(latency, lambda ev: self._start_flow(flow))
        else:
            self._start_flow(flow)
        return flow

    # -- failing flows -----------------------------------------------------------
    def fail_flow(self, flow: Flow, reason: str = "lost") -> bool:
        """Kill an in-flight flow: waiters get :class:`FlowFailed`.

        The flow leaves every link it occupied and the max-min shares
        recompute immediately.  Returns False (no-op) when the flow had
        already finished — fault injection racing a completion is not an
        error.  The failure is pre-defused: a killed flow nobody waits on
        must not crash ``run()``, the *waiters* are who must cope.
        """
        return self._kill_flow(flow, reason, cancelled=False)

    def cancel_flow(self, flow: Flow, reason: str = "cancelled") -> bool:
        """Same mechanics as :meth:`fail_flow` but requested by the caller
        (fetch timeout, task abort) rather than inflicted by a fault —
        kept out of the loss counters."""
        return self._kill_flow(flow, reason, cancelled=True)

    def _kill_flow(self, flow: Flow, reason: str, cancelled: bool) -> bool:
        if flow.done.triggered:
            return False
        started = flow in self._flows
        if started:
            self._advance()
            self._flows.discard(flow)
            self._leave_links(flow)
        if flow._local_timer is not None:
            # A node-local drain killed mid-flight: tombstone its timer so
            # it can neither re-trigger the settled done event nor cost a
            # dispatch when its expiry is reached.
            flow._local_timer.cancel()
            flow._local_timer = None
        if cancelled:
            self.flows_cancelled += 1
        else:
            self.flows_failed += 1
            if self.first_flow_failure_at is None:
                self.first_flow_failure_at = self.sim.now
        if flow.sid:
            obs = self.sim.obs
            obs.tracer.abort(flow.sid, outcome=f"failed:{reason}")
            obs.metrics.counter(
                "net.flows_cancelled" if cancelled else "net.flows_failed"
            ).add()
            for link in flow.path:
                obs.metrics.histogram(f"net.link.{link.name}.flows").add(-1)
            flow.sid = 0
        flow.done.fail(FlowFailed(flow, reason))
        flow.done.defuse()
        if started:
            self._reallocate()
        return True

    # -- link state / partitions ---------------------------------------------------
    def set_link_down(self, link: Link) -> None:
        """Take a link down: every flow crossing it dies (FlowFailed) and
        new flows over it fail at start until :meth:`set_link_up`."""
        if not link.up:
            return
        link.up = False
        for flow in sorted(link._flows, key=lambda f: f.seq):
            self._kill_flow(flow, f"link-down:{link.name}", cancelled=False)

    def set_link_up(self, link: Link) -> None:
        link.up = True

    def set_partition(self, groups: dict[Link, int]) -> None:
        """Install a network partition described as a link -> group map.

        Flows whose path spans two groups die immediately; new cross-group
        flows fail at start.  A later call replaces the whole map (the
        model supports one partition at a time); :meth:`clear_partition`
        heals it.
        """
        self._link_group = dict(groups)
        for flow in sorted(self._flows, key=lambda f: f.seq):
            if self._spans_partition(flow.path):
                self._kill_flow(flow, "partitioned", cancelled=False)

    def clear_partition(self) -> None:
        self._link_group = {}

    def flows_on(self, link: Link) -> list[Flow]:
        """Active flows crossing ``link`` in deterministic (start) order."""
        return sorted(link._flows, key=lambda f: f.seq)

    def _spans_partition(self, path: tuple[Link, ...]) -> bool:
        if not self._link_group:
            return False
        seen: set[int] = set()
        for link in path:
            group = self._link_group.get(link)
            if group is not None:
                seen.add(group)
        return len(seen) > 1

    def _blocked(self, path: tuple[Link, ...]) -> Optional[str]:
        for link in path:
            if not link.up:
                return f"link-down:{link.name}"
        if self._spans_partition(path):
            return "partitioned"
        return None

    # -- internals ----------------------------------------------------------------
    def _start_flow(self, flow: Flow) -> None:
        if flow.done.triggered:
            # Killed while paying latency (link flap, cancel): nothing to start.
            return
        if flow.path:
            reason = self._blocked(flow.path)
            if reason is not None:
                self._kill_flow(flow, reason, cancelled=False)
                return
        if flow.remaining <= self._EPS:
            self.bytes_delivered += flow.nbytes
            flow.done.succeed(flow.nbytes)
            return
        if not flow.path:
            # Node-local: no shared links, but a finite protocol cap
            # still takes time.
            if flow.rate_cap == float("inf"):
                self.bytes_delivered += flow.nbytes
                flow.done.succeed(flow.nbytes)
            else:

                def finish_local(ev, flow=flow):
                    if flow.done.triggered:
                        return  # killed mid-drain; the kill settled the event
                    flow._local_timer = None
                    self.bytes_delivered += flow.nbytes
                    flow.done.succeed(flow.nbytes)

                delay = flow.remaining / flow.rate_cap
                flow._local_timer = self.sim.tick(delay, finish_local)
            return
        self._advance()
        self._flows.add(flow)
        self._join(flow)
        obs = self.sim.obs
        if obs.enabled:
            route = "->".join(link.name for link in flow.path)
            flow.sid = obs.tracer.begin(
                "net", f"xfer {route}", nbytes=flow.nbytes
            )
            obs.tracer.edge(flow.sid, flow.waiter_sid, "flow")
            for link in flow.path:
                obs.metrics.histogram(f"net.link.{link.name}.flows").add(1)
        self._reallocate()

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0:
            return
        # Horizon batching: every active flow advances in one pass.  Link
        # byte accounting settles lazily at the next rate change.
        rem = self._slot_rem
        rate = self._slot_rate
        for i in range(len(rem)):
            rem[i] -= rate[i] * dt

    # -- slot bookkeeping ----------------------------------------------------------
    def _join(self, flow: Flow) -> None:
        """Attach a starting flow to a fresh slot and to its links.

        Each link's lazy byte/busy counters settle before the membership
        change (the mirror of :meth:`_leave_links`).
        """
        flow.slot = len(self._slot_flows)
        self._slot_rem.append(flow.remaining)
        self._slot_rate.append(0.0)
        self._slot_flows.append(flow)
        now = self.sim.now
        for link in flow.path:
            if link._last_t != now:
                link._settle(now)
            link._flows.add(flow)

    def _free_slot(self, flow: Flow) -> None:
        """Swap-remove ``flow`` from the dense slots, syncing its scalar
        ``remaining`` (observable through the flow handle) on the way out."""
        slot = flow.slot
        rem = self._slot_rem
        rate = self._slot_rate
        flows = self._slot_flows
        last = len(flows) - 1
        flow.remaining = rem[slot]
        if slot != last:
            moved = flows[last]
            rem[slot] = rem[last]
            rate[slot] = rate[last]
            flows[slot] = moved
            moved.slot = slot
        rem.pop()
        rate.pop()
        flows.pop()
        flow.slot = -1

    def _leave_links(self, flow: Flow) -> None:
        """Detach a departing flow from its slot and its links.

        Each link's lazy byte/busy counters settle before the membership
        change (the departing flow's rate must still be in the sum for
        the interval it was flowing).
        """
        self._free_slot(flow)
        now = self.sim.now
        for link in flow.path:
            if link._last_t != now:
                link._settle(now)
            link._flows.discard(flow)

    def _finish(self, flow: Flow) -> None:
        self._flows.discard(flow)
        self._leave_links(flow)
        self.bytes_delivered += flow.nbytes
        if flow.sid:
            obs = self.sim.obs
            obs.tracer.end(flow.sid)
            obs.metrics.counter("net.bytes_delivered").add(flow.nbytes)
            for link in flow.path:
                obs.metrics.histogram(f"net.link.{link.name}.flows").add(-1)
                obs.metrics.counter(f"net.link.{link.name}.bytes").add(flow.nbytes)
        flow.done.succeed(flow.nbytes)

    def _reallocate(self) -> None:
        """Queue the re-solve for this instant (one solve per instant)."""
        self._timer_token += 1
        if self._pending_timer is not None:
            # The pending completion timer is superseded by whatever change
            # brought us here; tombstone it (the token check still guards
            # correctness, the cancel merely spares the kernel a dispatch).
            self._pending_timer.cancel()
            self._pending_timer = None
        now = self.sim.now
        ft = self._flush_tick
        if ft is not None and self._flush_when == now and ft.callbacks is not None:
            return  # a flush is already queued for this instant
        self._flush_when = now
        self._flush_tick = self.sim.tick(0.0, self._flush)

    def _flush(self, ev: Event) -> None:
        self._flush_tick = None
        self._reallocate_now()

    def _settle_pending(self) -> None:
        """Run a queued same-instant solve-flush immediately (test hook).

        The max-min solve is deferred to a 0-delay tick so same-instant
        membership churn costs one solve.  Differential tests that
        inspect rates *synchronously* after each op call this first: it
        cancels the pending flush and solves now — the same solve the
        tick would have run later this instant, so timelines are
        unaffected.  No-op when nothing is queued.
        """
        ft = self._flush_tick
        if ft is None or ft.callbacks is None:
            return
        ft.cancel()
        # Clear the handle *before* solving so a follow-up `_reallocate`
        # never dedups against the cancelled tick.
        self._flush_tick = None
        self._reallocate_now()

    def _reallocate_now(self) -> None:
        """The queued solve: finish drained flows, re-solve the rates and
        arm the timer for the next completion horizon.

        Simultaneous finishes complete in start (seq) order.  The timer
        pins every flow within a relative 1e-9 of the horizon: float
        rounding can leave a residual below the clock's resolution, which
        would otherwise respawn zero-length timers forever.
        """
        token = self._timer_token
        rem = self._slot_rem
        eps = self._EPS
        finished = [self._slot_flows[i] for i in range(len(rem)) if rem[i] <= eps]
        if finished:
            if len(finished) > 1:
                finished.sort(key=lambda f: f.seq)
            for flow in finished:
                self._finish(flow)
        if not self._flows:
            return

        self._maxmin_rates()

        rate = self._slot_rate  # rebound by _sync_rates
        n = len(rem)
        inf = float("inf")
        next_done = inf
        for i in range(n):
            r = rate[i]
            if r > 0.0:
                t = rem[i] / r
                if t < next_done:
                    next_done = t
        if next_done == inf:
            # No flow can make progress: every active flow crosses a link
            # with zero residual capacity, which progressive filling cannot
            # produce with positive link capacities.  Guard anyway.
            raise RuntimeError("network allocation produced starved flows")
        limit = next_done * (1 + 1e-9)
        target_slots = [
            i for i in range(n) if rate[i] > 0.0 and rem[i] / rate[i] <= limit
        ]
        self._pending_timer = self.sim.tick(
            next_done, lambda ev: self._on_timer(token, target_slots)
        )

    def _on_timer(self, token: int, target_slots: list[int]) -> None:
        if token != self._timer_token:
            return
        self._pending_timer = None
        self._advance()
        # The token match proves no reallocation ran since this timer was
        # scheduled, so the captured slot indices are still the same flows.
        rem = self._slot_rem
        for i in target_slots:
            rem[i] = 0.0
        self._reallocate()

    def _sync_rates(self) -> None:
        """Mirror solver-assigned rates into the slot list in one batch
        write from the authoritative ``flow.rate`` attributes."""
        self._slot_rate = [f.rate for f in self._slot_flows]

    def _settle_component(self, flows: Iterable[Flow]) -> None:
        """Settle every link the solver is about to re-rate.  Must run
        before the solver zeroes any flow's rate — the byte integral
        needs the rates still in force."""
        now = self.sim.now
        for f in flows:
            for link in f.path:
                if link._last_t != now:
                    link._settle(now)

    def settle_accounting(self) -> None:
        """Bring every link's lazy byte/busy counters up to ``sim.now``.

        Call before reading :attr:`Link.bytes_carried` /
        :attr:`Link.busy_time` or :meth:`Link.utilization` mid-run.
        """
        now = self.sim.now
        for link in self._links.values():
            if link._last_t != now:
                link._settle(now)

    def _maxmin_rates(self) -> None:
        """Re-solve the max-min share of every active flow.

        Every path here first changes a flow set or a link capacity, so
        no solve is skippable, and ``rate_skips`` stays 0.  A solve of
        only the flows reachable from a change is not kept either: on
        every measured run that reached every active flow (docs/PERF.md).
        """
        flows = self._flows
        self.rate_recomputes += 1
        self.rate_recompute_flows += len(flows)
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.counter("net.rate_recomputes").add()
            obs.metrics.counter("net.rate_recompute_flows").add(len(flows))
        self._settle_component(flows)
        self._solve_component(flows)
        self._sync_rates()

    def _solve_component(self, flows: set[Flow]) -> None:
        """Progressive filling over ``flows``, with per-flow rate caps.

        Bit-for-bit equal to the from-scratch reference pass on the same
        flows: identical divisions, subtraction order, epsilon-tie
        resolution and one capped freeze per rescan.  Only the
        bookkeeping is cheaper: links are sorted once per solve instead
        of once per round, per-link unfrozen counts are maintained
        instead of recounted, a cursor over the caps sorted by
        (cap, seq) replaces the reference's ``min`` over the unfrozen
        flows, and the round that freezes every remaining flow skips the
        residual updates nobody reads.  The residual clamp uses a
        conditional instead of ``max(0.0, r)`` — identical for every
        float including ``-0.0`` (``max`` returns its first argument on
        ties), but without a builtin call in the innermost loop.
        """
        eps = self._EPS
        inf = float("inf")
        residual: dict[Link, float] = {}
        capped_flows: list[Flow] = []
        for flow in flows:
            flow.rate = 0.0
            if flow.rate_cap != inf:
                capped_flows.append(flow)
            for link in flow.path:
                if link not in residual:
                    residual[link] = link.capacity
        link_order = sorted(residual, key=_LINK_NAME)
        # Every flow of every link is in ``flows`` (the active set), so
        # unfrozen counts start at len(link._flows).
        counts = {link: len(link._flows) for link in link_order}
        # Only capped flows can win the reference's min-cap scan; once the
        # cursor exhausts them the remaining caps are all infinite.
        cap_order = sorted(capped_flows, key=_CAP_SEQ)
        cap_i = 0
        n_caps = len(cap_order)
        unfrozen = set(flows)
        while unfrozen:
            best_link: Optional[Link] = None
            best_share = inf
            for link in link_order:
                n = counts[link]
                if n:
                    share = residual[link] / n
                    if share < best_share - eps:
                        best_share = share
                        best_link = link
            while cap_i < n_caps and cap_order[cap_i] not in unfrozen:
                cap_i += 1
            if cap_i < n_caps and cap_order[cap_i].rate_cap < best_share:
                # The tightest cap binds before any link: freeze that one
                # flow and rescan, exactly as the reference does.
                capped = cap_order[cap_i]
                cap_i += 1
                rate = capped.rate_cap
                capped.rate = rate
                unfrozen.discard(capped)
                for link in capped.path:
                    r = residual[link] - rate
                    residual[link] = r if r > 0.0 else 0.0
                    counts[link] -= 1
                continue
            if best_link is None:
                # Remaining flows traverse no constrained link (shouldn't
                # happen for non-empty paths); cap-bound or effectively
                # infinite.  Mirrors the reference fallback.
                for flow in unfrozen:
                    flow.rate = min(flow.rate_cap, 1e18)
                return
            if counts[best_link] == len(unfrozen):
                # Final round: every remaining flow is on the bottleneck,
                # so all freeze at this share and the residual/count
                # updates would never be read again.
                for flow in unfrozen:
                    flow.rate = best_share
                return
            # Direct iteration over the same set object the reference
            # builds its ``froze`` list from: same element order, and
            # discarding a flow never changes another's membership test.
            for flow in best_link._flows:
                if flow in unfrozen:
                    flow.rate = best_share
                    unfrozen.discard(flow)
                    for link in flow.path:
                        r = residual[link] - best_share
                        residual[link] = r if r > 0.0 else 0.0
                        counts[link] -= 1
