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
active flow; the production solver (incremental, per dirty component)
must reproduce its shares bit-for-bit.  :class:`ReferenceSolverNetwork`
solves with it on every reallocation and :func:`use_reference_solver`
swaps it into every cluster built afterwards.
"""

from __future__ import annotations

from typing import Optional

from repro.simnet import cluster as cluster_mod
from repro.simnet.network import Flow, Link, Network
from repro.simnet.resources import RateDevice


class ScalarNetwork(Network):
    """:class:`Network` with the scalar per-flow engine."""

    def _join(self, flow: Flow) -> None:
        for link in flow.path:
            link._flows.add(flow)
            self._dirty.add(link)

    def _leave_links(self, flow: Flow) -> None:
        for link in flow.path:
            link._flows.discard(flow)
            self._dirty.add(link)

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
            self._dirty.clear()
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
        self._dirty.clear()
        self.rate_recomputes += 1
        self.rate_recompute_flows += len(self._flows)
        self._settle_component(self._flows)
        reference_rates(self)
        self._sync_rates()


def use_reference_solver(monkeypatch) -> None:
    """Build every later :class:`~repro.simnet.cluster.Cluster` on the
    reference solver (undone by ``monkeypatch`` at test teardown)."""
    monkeypatch.setattr(cluster_mod, "Network", ReferenceSolverNetwork)
