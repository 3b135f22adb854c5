"""The scalar flow engine, kept as a test oracle for :mod:`repro.simnet`.

:class:`ScalarNetwork` advances flows one attribute at a time, charges
link counters eagerly and re-solves max-min synchronously on every
membership change; :class:`ScalarRateDevice` recomputes its shares
synchronously too.  The production engine (dense slots, one solve per
instant, lazy link accounting) must match both bit-for-bit on every
rate, completion instant and delivered byte.  :func:`use_scalar_oracle`
swaps both into every cluster built afterwards.
"""

from __future__ import annotations

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
