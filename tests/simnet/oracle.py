"""Test oracles for :mod:`repro.simnet`: the scalar flow engine and the
from-scratch max-min solver.

:class:`ScalarNetwork` advances flows one attribute at a time, charges
link counters eagerly and re-solves max-min synchronously on every
membership change; :class:`ScalarRateDevice` recomputes its shares
synchronously too.  The production engine (dense slots, one solve per
instant, lazy link accounting) must match both bit-for-bit on every
rate, completion instant and delivered byte.  :func:`use_scalar_oracle`
swaps both into every cluster built afterwards.

:func:`reference_rates` is the full progressive-filling pass over every
active flow, recounting and re-sorting everything each round; the
production solver (the same loop with cheaper bookkeeping) must
reproduce its shares bit-for-bit.  :class:`ReferenceSolverNetwork`
solves with it on every reallocation and :func:`use_reference_solver`
swaps it into every cluster built afterwards.

:class:`CheckedNetwork` is the production network with the flow
invariants checked while it runs; :func:`use_checked_network` swaps it
into every cluster built afterwards.  :class:`CheckedSlotPool` does the
same for slot occupancy, and :func:`use_checked_slot_pools` swaps it in
wherever clusters and reduce tasks build their pools.
"""

from __future__ import annotations

from typing import Optional

from repro.hadoop import reducetask as reducetask_mod
from repro.simnet import cluster as cluster_mod
from repro.simnet.network import Flow, Link, Network
from repro.simnet.resources import RateDevice, SlotPool


class ScalarNetwork(Network):
    """:class:`Network` with the scalar per-flow engine."""

    def _join(self, flow: Flow) -> None:
        for link in flow.path:
            link._flows.add(flow)

    def _leave_links(self, flow: Flow) -> None:
        for link in flow.path:
            link._flows.discard(flow)

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0:
            return
        busy: set[Link] = set()
        for flow in self._flows:
            moved = flow.rate * dt
            flow.remaining -= moved
            for link in flow.path:
                link.bytes_carried += moved
                busy.add(link)
        for link in busy:
            link.busy_time += dt

    def _reallocate(self) -> None:
        self._timer_token += 1
        token = self._timer_token
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        # Simultaneous finishes complete in start order.
        finished = sorted(
            (f for f in self._flows if f.remaining <= self._EPS),
            key=lambda f: f.seq,
        )
        for flow in finished:
            self._finish(flow)
        if not self._flows:
            return

        self._maxmin_rates()

        next_done = float("inf")
        for f in self._flows:
            if f.rate > 0:
                t = f.remaining / f.rate
                if t < next_done:
                    next_done = t
        if next_done == float("inf"):
            raise RuntimeError("network allocation produced starved flows")
        limit = next_done * (1 + 1e-9)
        targets = [
            f for f in self._flows if f.rate > 0 and f.remaining / f.rate <= limit
        ]
        timer = self.sim.timeout(next_done)
        timer.callbacks.append(lambda ev: self._complete(token, targets))
        self._pending_timer = timer

    def _complete(self, token: int, targets: list[Flow]) -> None:
        if token != self._timer_token:
            return
        self._pending_timer = None
        self._advance()
        for flow in targets:
            flow.remaining = 0.0
        self._reallocate()

    def _no_op(self, *args) -> None:
        """Eager accounting, synchronous solves: nothing to settle or mirror."""

    _settle_component = _sync_rates = _settle_pending = settle_accounting = _no_op


class ScalarRateDevice(RateDevice):
    """:class:`RateDevice` without the same-instant flush."""

    def _reschedule(self) -> None:
        self._timer_token += 1
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._reschedule_now()


def use_scalar_oracle(monkeypatch) -> None:
    """Build every later :class:`~repro.simnet.cluster.Cluster` on the
    oracles (undone by ``monkeypatch`` at test teardown)."""
    monkeypatch.setattr(cluster_mod, "Network", ScalarNetwork)
    monkeypatch.setattr(cluster_mod, "RateDevice", ScalarRateDevice)


def reference_rates(net: Network) -> None:
    """Progressive filling over all links touched by active flows.

    Per-flow rate caps participate as virtual bottlenecks: whenever
    the smallest unfrozen cap is tighter than the tightest link
    share, that flow freezes at its cap (releasing link capacity to
    the others) — the standard capped max-min extension.

    This is the slow reference the production solver is pinned
    against; it recomputes every flow from scratch on every call.
    """
    unfrozen: set[Flow] = set(net._flows)
    residual: dict[Link, float] = {}
    for flow in net._flows:
        flow.rate = 0.0
        for link in flow.path:
            residual.setdefault(link, link.capacity)

    while unfrozen:
        # Bottleneck link: smallest per-flow fair share among links that
        # still carry unfrozen flows.
        best_link: Optional[Link] = None
        best_share = float("inf")
        # Sort by name so epsilon-ties resolve the same way every run.
        for link in sorted(residual, key=lambda l: l.name):
            n = sum(1 for f in link._flows if f in unfrozen)
            if n == 0:
                continue
            share = residual[link] / n
            if share < best_share - net._EPS:
                best_share = share
                best_link = link
        # Tightest protocol cap among unfrozen flows.
        capped = min(unfrozen, key=lambda f: (f.rate_cap, f.seq))
        if capped.rate_cap < best_share:
            rate = capped.rate_cap
            capped.rate = rate
            unfrozen.discard(capped)
            for link in capped.path:
                residual[link] = max(0.0, residual[link] - rate)
            continue
        if best_link is None:
            # Remaining flows traverse no constrained link (shouldn't
            # happen for non-empty paths); cap-bound or effectively
            # infinite.
            for flow in unfrozen:
                flow.rate = min(flow.rate_cap, 1e18)
            break
        froze = [f for f in best_link._flows if f in unfrozen]
        for flow in froze:
            flow.rate = best_share
            unfrozen.discard(flow)
            for link in flow.path:
                residual[link] = max(0.0, residual[link] - best_share)


class ReferenceSolverNetwork(Network):
    """:class:`Network` that re-solves every flow with :func:`reference_rates`."""

    def _maxmin_rates(self) -> None:
        self.rate_recomputes += 1
        self.rate_recompute_flows += len(self._flows)
        self._settle_component(self._flows)
        reference_rates(self)
        self._sync_rates()


def use_reference_solver(monkeypatch) -> None:
    """Build every later :class:`~repro.simnet.cluster.Cluster` on the
    reference solver (undone by ``monkeypatch`` at test teardown)."""
    monkeypatch.setattr(cluster_mod, "Network", ReferenceSolverNetwork)


class CheckedNetwork(Network):
    """:class:`Network` that checks the flow invariants during a run.

    * After every solve: each active flow has ``0 < rate <= rate_cap``
      and no link carries more than its capacity times ``1 + 1e-9``.
    * After every advance: no flow's remaining bytes are below
      ``-1e-9`` times its size.
    * :meth:`check_drained`, at the end of a run: no flow is still
      active, and the bytes of every flow ever requested equal the bytes
      delivered plus the bytes of killed flows, to 1e-12 relative (the
      two sides add in different orders).

    A violation is recorded, not raised, so a model that catches
    exceptions cannot hide it and the run's timeline is the unchecked
    one; :meth:`check_drained` fails on the first recorded violation.
    """

    def __init__(self, sim):
        super().__init__(sim)
        self.bytes_requested = 0.0
        self.bytes_killed = 0.0
        self.violations: list[str] = []

    def transfer_flow(self, path, nbytes, *args, **kwargs) -> Flow:
        flow = super().transfer_flow(path, nbytes, *args, **kwargs)
        self.bytes_requested += flow.nbytes
        return flow

    def _kill_flow(self, flow: Flow, reason: str, cancelled: bool) -> bool:
        killed = super()._kill_flow(flow, reason, cancelled)
        if killed:
            self.bytes_killed += flow.nbytes
        return killed

    def _maxmin_rates(self) -> None:
        super()._maxmin_rates()
        load: dict[Link, float] = {}
        for flow in self._flows:
            if not 0.0 < flow.rate <= flow.rate_cap:
                self.violations.append(
                    f"t={self.sim.now}: flow #{flow.seq} rate {flow.rate} "
                    f"outside (0, {flow.rate_cap}]"
                )
            for link in flow.path:
                load[link] = load.get(link, 0.0) + flow.rate
        for link, total in load.items():
            if total > link.capacity * (1 + 1e-9):
                self.violations.append(
                    f"t={self.sim.now}: link {link.name} carries {total} "
                    f"> capacity {link.capacity}"
                )

    def _advance(self) -> None:
        super()._advance()
        for rem, flow in zip(self._slot_rem, self._slot_flows):
            if rem < -1e-9 * flow.nbytes:
                self.violations.append(
                    f"t={self.sim.now}: flow #{flow.seq} has {rem} bytes "
                    f"left of {flow.nbytes}"
                )

    def check_drained(self) -> None:
        """Fail on any recorded violation, an active flow or lost bytes."""
        assert not self.violations, (
            f"{len(self.violations)} violations, first: {self.violations[0]}"
        )
        assert not self._flows, f"{len(self._flows)} flows still active"
        accounted = self.bytes_delivered + self.bytes_killed
        assert abs(self.bytes_requested - accounted) <= (
            1e-12 * self.bytes_requested
        ), (
            f"requested {self.bytes_requested} bytes, delivered "
            f"{self.bytes_delivered} + killed {self.bytes_killed}"
        )


def use_checked_network(monkeypatch) -> list[CheckedNetwork]:
    """Build every later :class:`~repro.simnet.cluster.Cluster` on a
    :class:`CheckedNetwork` (undone by ``monkeypatch`` at test teardown).

    Returns the list each checked network joins as it is built, for the
    test to call :meth:`CheckedNetwork.check_drained` on.
    """
    built: list[CheckedNetwork] = []

    def network(sim) -> CheckedNetwork:
        net = CheckedNetwork(sim)
        built.append(net)
        return net

    monkeypatch.setattr(cluster_mod, "Network", network)
    return built


class CheckedSlotPool(SlotPool):
    """:class:`SlotPool` that checks its occupancy during a run.

    * After every ``acquire``, ``release`` and ``cancel``: ``0 <= in_use
      <= capacity``, and no request waits while a slot is free.
    * :meth:`check_idle`, at the end of a run: no slot is held and no
      request waits.

    ``queued`` counts the requests that had to wait, so a test can tell
    a pool that was never contended from one that was.  Violations are
    recorded, not raised, as in :class:`CheckedNetwork`.
    """

    def __init__(self, sim, capacity: int, name: str = "slots"):
        super().__init__(sim, capacity, name)
        self.queued = 0
        self.violations: list[str] = []

    def acquire(self):
        waiting = len(self._waiters)
        request = super().acquire()
        self.queued += len(self._waiters) - waiting
        self._check("acquire")
        return request

    def release(self) -> None:
        super().release()
        self._check("release")

    def cancel(self, request) -> None:
        super().cancel(request)
        self._check("cancel")

    def _check(self, op: str) -> None:
        if not 0 <= self._in_use <= self.capacity:
            self.violations.append(
                f"t={self.sim.now}: {op} left {self.name} at "
                f"{self._in_use}/{self.capacity} slots in use"
            )
        elif self._waiters and self._in_use < self.capacity:
            self.violations.append(
                f"t={self.sim.now}: {op} left {len(self._waiters)} requests "
                f"waiting on {self.name} with {self._in_use}/{self.capacity} "
                f"slots in use"
            )

    def check_idle(self) -> None:
        """Fail on any recorded violation, a held slot or a waiter."""
        assert not self.violations, (
            f"{len(self.violations)} violations, first: {self.violations[0]}"
        )
        assert self._in_use == 0, f"{self.name}: {self._in_use} slots held"
        assert not self._waiters, (
            f"{self.name}: {len(self._waiters)} requests waiting"
        )


def use_checked_slot_pools(monkeypatch) -> list[CheckedSlotPool]:
    """Build every later node CPU pool and reduce-task copier pool as a
    :class:`CheckedSlotPool` (undone by ``monkeypatch`` at test teardown).

    Returns the list each checked pool joins as it is built, for the
    test to call :meth:`CheckedSlotPool.check_idle` on.
    """
    built: list[CheckedSlotPool] = []

    def slot_pool(sim, capacity: int, name: str = "slots") -> CheckedSlotPool:
        pool = CheckedSlotPool(sim, capacity, name)
        built.append(pool)
        return pool

    monkeypatch.setattr(cluster_mod, "SlotPool", slot_pool)
    monkeypatch.setattr(reducetask_mod, "SlotPool", slot_pool)
    return built
