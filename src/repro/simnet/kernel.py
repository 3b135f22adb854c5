"""A from-scratch generator-based discrete-event simulation kernel.

The design follows the classic process-interaction style (as in SimPy,
reimplemented here because the environment is offline): a *process* is a
Python generator that ``yield``\\ s :class:`Event` objects; the kernel
suspends the process until the event fires and resumes it with the
event's value (or throws the event's exception into it).

Invariants the kernel maintains (property-tested in
``tests/simnet/test_kernel.py``):

* simulated time never decreases;
* events scheduled at equal times fire in FIFO scheduling order;
* an event fires at most once; triggering a fired event raises;
* a failed event that is never yielded-on raises at ``run()`` end
  (no silently swallowed simulation errors).

Every scheduled event lives in one binary heap keyed by ``(time, seq)``.
Two fast paths keep the hot loop cheap at scale (pinned by
``tests/simnet/test_kernel_fastpath.py``):

* **lazy cancellation** — :meth:`Event.cancel` tombstones a scheduled
  event instead of rebuilding the heap; the popped tombstone still
  advances the clock (so drain semantics are unchanged) but dispatches
  nothing.  The network's superseded completion timers and the shuffle's
  resolved fetch-deadline timers use this.
* **pooled ticks** — :meth:`Simulator.tick` hands out recycled
  :class:`Tick` timers (see :class:`Tick`).  ``tick(d)`` fires at the
  instant ``timeout(d)`` would, and ``tick_at(t)`` at exactly the float
  ``t``, which lets the fused MPI-D mapper chain land on the instant
  its stepped timeouts would reach.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.observer import NULL_OBS


class SimError(RuntimeError):
    """Base class for kernel errors (double trigger, deadlock, etc.)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event is *pending* until :meth:`succeed` or :meth:`fail` is called,
    after which it is *triggered* and its callbacks run at the current
    simulation time.  Processes wait on events by yielding them.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_defused",
        "_cancelled",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._defused = False
        self._cancelled = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError("event has not been triggered yet")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on the event.
        If nothing ever waits, :meth:`Simulator.run` raises it at the end —
        failures never disappear.
        """
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._triggered:
            raise SimError("event already triggered")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._schedule(self)
        self.sim._failed_events.append(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so ``run()`` won't re-raise it."""
        self._defused = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Tombstone a scheduled event: its callbacks will never run.

        Lazy cancellation — the heap entry stays where it is and still
        advances the clock when popped, but nothing is dispatched, so
        cancelling is O(1) instead of a heap rebuild.  Only the event's
        *exclusive owner* may cancel: a process yielding on a cancelled
        event is a programming error (the kernel raises).  Cancelling an
        event that already ran is a harmless no-op.
        """
        if self.callbacks is None:
            return  # already dispatched (or already cancelled)
        self._cancelled = True
        self.callbacks = None
        self.sim.events_cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self._triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = float(delay)
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule(self, delay=self.delay)


class Tick(Event):
    """A pooled internal timer event (the kernel's event arena).

    Ticks are pre-triggered like :class:`Timeout` but come from a
    per-simulator free list and return to it when their heap entry pops
    — the allocation cost of the network/device completion timers and
    the periodic heartbeat timers is paid once, not per event.

    Discipline (enforced by convention, not the kernel): a tick may only
    be scheduled through :meth:`Simulator.tick` / :meth:`Simulator.tick_at`,
    must not be stored past its expiry and must not be passed to
    ``all_of``/``any_of``.
    """

    __slots__ = ()


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on several events at once."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._n_done = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimError("cannot mix events from different simulators")
            if ev._cancelled:
                raise SimError("cannot wait on a cancelled event")
            if ev.callbacks is None:  # already processed
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, ev: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> list[Any]:
        return [ev._value for ev in self.events if ev._triggered and ev._ok]


class AllOf(_Condition):
    """Fires when every child event has fired; value is the list of values.

    A child that fails *after* the condition resolved (a second lost
    flow, a timeout loser) is absorbed: the condition already delivered
    its outcome, so the late failure is defused rather than left to
    raise at ``run()`` end with nobody waiting on it.
    """

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if not ev._ok:
            ev.defuse()
            if not self._triggered:
                self.fail(ev._value)
            return
        if self._triggered:
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first child event fires; value is that event's value.

    Losers that fail after the race resolved are defused (see
    :class:`AllOf`) — racing a transfer against a timeout must not turn
    the abandoned transfer's failure into a simulation error.
    """

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if not ev._ok:
            ev.defuse()
            if not self._triggered:
                self.fail(ev._value)
            return
        if self._triggered:
            return
        self.succeed(ev._value)


ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process-as-event pattern: a Process *is* an event that fires when
    the generator returns (value = return value) or raises (failure), so
    processes can wait on each other by yielding a Process.
    """

    __slots__ = ("gen", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process needs a generator (did you forget to call the "
                f"function?): got {type(gen).__name__}"
            )
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume once at the current time.
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the event it was waiting on (the
        event may still fire later — the process simply no longer cares).
        """
        if self._triggered:
            raise SimError(f"cannot interrupt finished process {self.name!r}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        kick = Event(self.sim)
        kick.callbacks.append(lambda ev: self._step(throw=Interrupt(cause)))
        kick.succeed()

    # -- internal -----------------------------------------------------------
    def _resume(self, ev: Event) -> None:
        self._waiting_on = None
        if ev._ok:
            self._step(send=ev._value)
        else:
            ev.defuse()
            self._step(throw=ev._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._triggered:
            return
        try:
            if throw is not None:
                target = self.gen.throw(throw)
            else:
                target = self.gen.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimError(
                f"process {self.name!r} yielded {target!r}; processes may "
                f"only yield Event instances"
            )
            try:
                self.gen.throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as err:
                self.fail(err)
            return
        if target.sim is not self.sim:
            self.fail(SimError("yielded an event from a different simulator"))
            return
        if target._cancelled:
            self.fail(
                SimError(
                    f"process {self.name!r} yielded a cancelled event; only "
                    f"an event's exclusive owner may cancel it"
                )
            )
            return
        self._waiting_on = target
        if target.callbacks is None:
            # Already processed: resume immediately (at the current time).
            kick = Event(self.sim)
            kick.callbacks.append(lambda ev: self._resume(target))
            kick.succeed()
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop: a time-ordered heap of triggered events.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._failed_events: list[Event] = []
        #: Dispatch volume counters (plain ints — free when obs is off);
        #: the end-to-end benchmark's ledger reports them.
        self.events_dispatched = 0
        self.events_cancelled = 0
        # -- tick arena ------------------------------------------------------
        #: Free list of recycled :class:`Tick` objects; ticks return here
        #: when their heap entry pops (dispatched or tombstoned).
        self._tick_pool: list[Tick] = []
        #: Observability hook; :meth:`repro.obs.Observer.attach` replaces
        #: the null default.  Models read ``sim.obs`` — never store it.
        self.obs = NULL_OBS

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def tick(
        self, delay: float, cb: Optional[Callable[[Event], None]] = None
    ) -> Tick:
        """A pooled timer firing ``delay`` seconds from now (see :class:`Tick`).

        Fires at exactly the instant ``timeout(delay)`` would — the
        expiry is computed as ``now + delay``, the same float expression.
        """
        if delay < 0:
            raise ValueError(f"negative tick delay: {delay}")
        return self.tick_at(self._now + delay, cb)

    def tick_at(
        self, when: float, cb: Optional[Callable[[Event], None]] = None
    ) -> Tick:
        """A pooled timer firing at the *absolute* instant ``when``.

        Unlike ``timeout(when - now)`` this schedules the given float
        directly, so a caller accumulating a chain of delays
        ``((t + d1) + d2)`` reproduces the kernel clock's association
        bit-for-bit.
        """
        if when < self._now:
            raise ValueError(f"tick in the past: {when} < {self._now}")
        pool = self._tick_pool
        if pool:
            ev = pool.pop()
            ev._value = None
            ev._cancelled = False
            ev._defused = False
            ev.callbacks = [] if cb is None else [cb]
        else:
            ev = Tick(self)
            if cb is not None:
                ev.callbacks.append(cb)
        ev._triggered = True
        ev._ok = True
        heapq.heappush(self._heap, (when, self._seq, ev))
        self._seq += 1
        return ev

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        proc = Process(self, gen, name=name)
        obs = self.obs
        if obs.enabled:
            # One kernel-category span per process lifetime.  The extra
            # completion callback appends after any existing ones, so it
            # never reorders simulation callbacks; with obs disabled this
            # branch is a single attribute test.
            sid = obs.tracer.begin("kernel", proc.name)
            proc.callbacks.append(lambda ev, s=sid, t=obs.tracer: t.end(s))
            obs.metrics.counter("kernel.processes").add()
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, ev: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self._now + delay, self._seq, ev))
        self._seq += 1

    def _pop(self) -> None:
        when, _seq, ev = heapq.heappop(self._heap)
        if when < self._now - 1e-15:
            raise SimError(f"time went backwards: {when} < {self._now}")
        self._now = when if when > self._now else self._now
        # A cancelled event is a tombstone: it advanced the clock exactly
        # as it would have, but dispatches nothing (callbacks is None).
        callbacks, ev.callbacks = ev.callbacks, None
        if callbacks:
            self.events_dispatched += 1
            for cb in callbacks:
                cb(ev)
        if type(ev) is Tick:
            self._tick_pool.append(ev)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event heap drains or ``until`` (exclusive of later events).

        Raises the exception of any failed event that no process handled,
        and :class:`ValueError` for an ``until`` before :attr:`now` (time
        never runs backwards).  Returns the final simulated time.
        """
        if until is not None and until < self._now:
            raise ValueError(f"run(until={until}) is before now={self._now}")
        # Hot loop: pop inlined.  ``heap`` stays a valid alias because
        # _schedule mutates the list in place.
        heap = self._heap
        heappop = heapq.heappop
        tick_pool = self._tick_pool
        while heap:
            if until is not None and heap[0][0] > until:
                self._now = until
                return self._finish_run()
            when, _seq, ev = heappop(heap)
            if when < self._now - 1e-15:
                raise SimError(f"time went backwards: {when} < {self._now}")
            if when > self._now:
                self._now = when
            callbacks, ev.callbacks = ev.callbacks, None
            if callbacks:
                self.events_dispatched += 1
                for cb in callbacks:
                    cb(ev)
            if type(ev) is Tick:
                tick_pool.append(ev)
        return self._finish_run()

    def _finish_run(self) -> float:
        for ev in self._failed_events:
            if not ev._defused:
                exc = ev._value
                raise exc
        return self._now

    def step(self) -> bool:
        """Process a single event; returns False when the heap is empty."""
        if not self._heap:
            return False
        self._pop()
        return True

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None when drained."""
        return self._heap[0][0] if self._heap else None
