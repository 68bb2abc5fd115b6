"""Discrete-event simulation kernel.

This module provides the virtual-clock substrate on which every timed
component of the reproduction runs: GPU streams, network links, MPI
progress engines, and the kernel-fusion scheduler.  It is a small,
dependency-free engine in the style of SimPy:

* :class:`Simulator` owns a binary-heap event calendar and the virtual
  clock (``now``, in **seconds**).
* :class:`Event` is a one-shot occurrence that callbacks can attach to.
* :class:`Process` wraps a Python generator; the generator *yields*
  events (or other processes) and is resumed when they fire, which gives
  ordinary sequential-looking code for concurrent behaviour.  A process
  nobody joins leaves no termination on the calendar, and one given a
  ``start`` event takes its first step when that event fires instead
  of on a bootstrap.
* :class:`AllOf` / :class:`AnyOf` compose events.
* :class:`CompletionWatch` counts down a fixed set of events for
  polling progress loops (``waitall`` and friends), and lets an idle
  poller skip the poll ticks that would do nothing.

Determinism
-----------
Events scheduled for the same timestamp fire in FIFO order of their
scheduling (a monotonically increasing sequence number breaks ties), so
a simulation is fully deterministic given deterministic process code.
This property is relied on by the regression tests and by the benchmark
harness, whose figures repeat byte for byte.

Hot path
--------
The per-event cost of this kernel *is* the wall-clock cost of every
sweep (exactly the per-request overhead disease the paper diagnoses one
level down, in kernel launches), so the dominant patterns are kept
allocation-lean:

* every calendar object is ``__slots__``-only;
* callback storage is lazy — ``None`` until the first subscriber, a
  bare callable for the overwhelmingly common single-waiter case, and a
  list only beyond that (:meth:`Event.add_callback`);
* the ``yield sim.timeout(dt)`` resume path allocates one
  :class:`Timeout` and one heap entry, nothing else: the process's
  resume callback is a cached bound method, event names are built
  lazily by ``__repr__``, and :meth:`Simulator.run` drains the calendar
  with the step body inlined;
* no calendar entry is spent on bookkeeping no one observes
  (docs/performance.md, "Per-message continuations").

Clients run fault-free and faulty simulations through one code path
(e.g. the retry loop of :meth:`repro.net.link.Link.transmit`), and the
committed figure artifacts pin its virtual time.

Units
-----
The clock is a float in seconds.  Helpers :func:`us` and :func:`ns`
convert the microsecond/nanosecond constants used throughout the GPU
and network cost models.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

from ..obs.observer import NULL_OBSERVER

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "CompletionWatch",
    "SimulationError",
    "us",
    "ns",
    "ms",
]


def us(value: float) -> float:
    """Convert microseconds to simulator seconds."""
    return value * 1e-6


def ns(value: float) -> float:
    """Convert nanoseconds to simulator seconds."""
    return value * 1e-9


def ms(value: float) -> float:
    """Convert milliseconds to simulator seconds."""
    return value * 1e-3


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


#: sentinel distinguishing "no value yet" from a ``None`` value
_PENDING = object()

Callback = Callable[["Event"], None]
#: lazy callback storage: nothing / one subscriber / many subscribers
_Callbacks = Union[None, Callback, List[Callback]]


class Event:
    """A one-shot occurrence on the simulation calendar.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` schedules it to fire at the current simulation time;
    when it fires, all registered callbacks run with the event as the
    sole argument.  Processes yield events to suspend until they fire.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_triggered", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: _Callbacks = None
        self._value: Any = _PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- callback storage --------------------------------------------------
    def add_callback(self, callback: Callback) -> None:
        """Subscribe ``callback`` to run (with this event) when it fires.

        The storage is lazy: no container is allocated for the first
        subscriber.  This is the hot-path API; the :attr:`callbacks`
        list view exists for introspection and external composition.
        """
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self._callbacks = [cbs, callback]

    @property
    def callbacks(self) -> List[Callback]:
        """Mutable list of subscribed callbacks.

        Accessing it materializes the lazy storage into a real list
        that *is* the storage from then on, so ``ev.callbacks.append``
        keeps working exactly as before the lazy representation.
        """
        cbs = self._callbacks
        if type(cbs) is list:
            return cbs
        cbs = [] if cbs is None else [cbs]
        self._callbacks = cbs
        return cbs

    @callbacks.setter
    def callbacks(self, value: List[Callback]) -> None:
        self._callbacks = value

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False when the event was failed with an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the failure exception)."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Straight-line slot assignment: this is the single hottest
        # constructor in the system (one per `yield sim.timeout(dt)`),
        # so it bypasses Event.__init__ and builds no name string.
        self.sim = sim
        self.name = ""
        self._callbacks = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else "triggered"
        return f"<Timeout({self.delay:g}) {state}>"


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    A constituent event counts toward satisfaction once it has been
    *processed* (its callbacks ran), not merely scheduled — a freshly
    created ``Timeout(5)`` is already triggered but must not satisfy an
    ``AnyOf`` until the clock reaches it.
    """

    __slots__ = ("events", "_done_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: Tuple[Event, ...] = tuple(events)
        self._done_count = 0
        observe = self._observe
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot compose events of different simulators")
            if ev._processed:
                observe(ev)
            else:
                ev.add_callback(observe)
        # An empty condition resolves immediately.
        if not self._triggered and self._satisfied():
            self.succeed(self._collect())

    # subclass hooks -------------------------------------------------------
    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> Any:
        return {ev: ev.value for ev in self.events if ev._processed or ev is self}

    def _observe(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._done_count += 1
        if self._satisfied():
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when *all* constituent events have been processed.

    Its value is a dict mapping each event to its value.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done_count >= len(self.events)


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event is processed.

    Its value is a dict of the events processed by trigger time.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done_count >= 1 or not self.events


class _PollTimer(Event):
    """The timeout behind one :meth:`CompletionWatch.sleep`.

    Its own type so :meth:`Simulator._idle_bound` can recognise poll
    timers on the calendar and ask their watch whether firing them
    would do anything.
    """

    __slots__ = ("watch",)

    def __init__(self, watch: "CompletionWatch"):
        # Straight-line slot assignment, as in Timeout: one per poll.
        self.sim = watch.sim
        self.name = ""
        self._callbacks = watch._on_timer
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self.watch = watch


class CompletionWatch:
    """Countdown over a fixed set of events, with a re-armable poll wake.

    The primitive behind ``waitall``-style polling loops.  One callback
    per pending event is registered once; :attr:`remaining` counts
    down as they fire.  Each :meth:`sleep` arms a fresh wake plus one
    poll timer, and whichever of a watched event or *that* timer
    fires first succeeds the wake.  An event firing while no sleep is
    armed only counts down; a timer from an earlier sleep is ignored.
    Calendar order matches rebuilding an ``AnyOf`` over the pending
    events and a fresh timeout on every sleep (docs/performance.md,
    "Progress engine").  Watched events are expected to succeed.

    A sleep given an ``idle`` predicate may skip quiescent polls: when
    its timer fires while ``idle()`` holds, the wake stays armed and
    the timer re-arms at the first poll tick at or after the earliest
    calendar entry that is not itself an idle poll timer (never past a
    ``run(until=t)`` horizon).  Ticks are generated by the same
    repeated ``t += interval`` additions the unskipped chain
    performs, so every later event keeps its time and order
    (docs/performance.md, "Idle polls").  :attr:`skips` records each
    skipped span; :meth:`skipped_ticks` lists the polls it elided.
    """

    __slots__ = ("sim", "remaining", "skips", "_wake", "_timer", "_interval", "_idle")

    def __init__(self, sim: "Simulator", pending: Iterable[Event]):
        self.sim = sim
        self.remaining = 0
        #: ``(first, resume, interval)`` per skip: the polls at
        #: ``first, first + interval, ...`` before ``resume`` were elided
        self.skips: List[Tuple[float, float, float]] = []
        self._wake: Optional[Event] = None
        self._timer: Optional[_PollTimer] = None
        self._interval = 0.0
        self._idle: Optional[Callable[[], bool]] = None
        on_done = self._on_done
        for ev in pending:
            ev.add_callback(on_done)
            self.remaining += 1

    def _on_done(self, _ev: Event) -> None:
        self.remaining -= 1
        wake = self._wake
        if wake is not None and not wake._triggered:
            wake.succeed()

    def _on_timer(self, ev: Event) -> None:
        wake = self._wake
        if ev is not self._timer or wake is None or wake._triggered:
            return
        idle = self._idle
        if idle is not None and idle() and self._skip_ahead():
            return
        wake.succeed()

    def _skip_ahead(self) -> bool:
        """Re-arm the timer at the first tick at or after the idle bound
        or past the run horizon; False if that tick is now."""
        sim = self.sim
        now = sim._now
        bound = sim._idle_bound()
        horizon = sim._horizon
        if bound == inf and horizon == inf:
            return False  # nothing will ever end the idling: keep polling
        interval = self._interval
        tick = now
        while tick < bound and tick <= horizon:
            tick += interval
        if tick == now:
            return False
        self.skips.append((now, tick, interval))
        self._timer = timer = _PollTimer(self)
        sim._schedule_at(tick, timer)
        return True

    def _inert(self, timer: _PollTimer) -> bool:
        """Whether firing ``timer`` now would leave every state as is."""
        wake = self._wake
        if timer is not self._timer or wake is None or wake._triggered:
            return True
        idle = self._idle
        return idle is not None and idle()

    def sleep(
        self, interval: float, idle: Optional[Callable[[], bool]] = None
    ) -> Event:
        """Arm a wake for the next completion or one poll ``interval``.

        ``idle`` says whether a poll at the current instant would
        charge no simulated time and change no state; while it holds,
        timer ticks skip ahead instead of waking the sleeper.
        """
        self._interval = interval
        # a zero interval has no later tick to skip to
        self._idle = idle if interval > 0 else None
        self._timer = timer = _PollTimer(self)
        self.sim._schedule_at(self.sim._now + interval, timer)
        self._wake = wake = Event(self.sim)
        return wake

    def skipped_ticks(self) -> List[float]:
        """Times of every poll tick a skip elided, in order."""
        ticks: List[float] = []
        for first, resume, interval in self.skips:
            tick = first
            while tick < resume:
                ticks.append(tick)
                tick += interval
        return ticks


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A generator-driven concurrent activity.

    The wrapped generator yields :class:`Event` objects; the process
    sleeps until each fires and is resumed with the event's value (or
    has the failure exception thrown into it).  A process is itself an
    event that fires with the generator's return value, so processes can
    wait on each other.

    A process nobody has joined when its generator returns settles in
    place: it is processed and valued at once, with no termination on
    the calendar.  A joined or failing process schedules its
    termination as any event does.

    A process normally takes its first step on a zero-delay bootstrap.
    Given a ``start`` event that has not been triggered yet, it takes
    that step when ``start`` fires instead, and its generator must first
    yield ``start``; the bootstrap would have fired earlier, so the
    resume keeps its tie position.  A ``start`` already triggered falls
    back to the bootstrap.
    """

    __slots__ = ("generator", "_resume_cb")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: str = "",
        start: Optional[Event] = None,
    ):
        if not hasattr(generator, "send"):
            raise TypeError(
                "Process requires a generator; did you forget to call the "
                "generator function?"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: bound once — appending a method per yield would allocate
        self._resume_cb: Callback = self._resume
        if start is not None and not start._triggered:
            # Whenever ``start`` fires, it fires after the bootstrap
            # would have, so the first resume keeps its tie position.
            start.add_callback(self._kickoff)
        else:
            bootstrap = Event(sim)
            bootstrap._callbacks = self._resume_cb
            bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    # internal -------------------------------------------------------------
    def _kickoff(self, trigger: Event) -> None:
        """First step of a process started on ``trigger``: run up to
        its first yield, which must be ``trigger``, and resume on it."""
        try:
            first = next(self.generator)
        except StopIteration:
            first = None
        if first is not trigger:
            raise SimulationError(
                f"process {self.name!r} must first wait on its start event"
            )
        self._resume(trigger)

    def _resume(self, trigger: Event) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if trigger._ok:
                value = trigger._value
                target = self.generator.send(None if value is _PENDING else value)
            else:
                target = self.generator.throw(trigger._value)
        except StopIteration as stop:
            sim._active_process = None
            if self._callbacks is None:
                # Nobody joined: settle in place, with no termination
                # entry.  A later ``yield self`` resumes via a carrier.
                self._triggered = self._processed = True
                self._value = stop.value
            else:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        sim._active_process = None

        if target is self:
            raise SimulationError("a process cannot wait on itself")
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances"
            )
        if target._processed:
            # The event already fired; resume on a fresh zero-delay carrier
            # so resumption still goes through the calendar (keeps ordering
            # deterministic and stack depth bounded).
            carrier = Event(sim)
            carrier._callbacks = self._resume_cb
            if target._ok:
                carrier.succeed(target._value)
            else:
                carrier.fail(target._value)
        else:
            target.add_callback(self._resume_cb)


class Simulator:
    """Owner of the virtual clock and the event calendar."""

    def __init__(self):
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        #: latest time an idle-poll skip may re-arm up to; ``-inf``
        #: outside :meth:`run`, so :meth:`step` never skips
        self._horizon: float = -inf
        #: calendar events fired so far (the artifacts' ``work.events``
        #: count reads this)
        self.events_processed: int = 0
        #: optional seeded fault-injection plan consulted by links,
        #: protocols, and the fusion scheduler (see
        #: :mod:`repro.sim.faults`); None = a perfect fabric and GPU
        self.faults: Optional[Any] = None
        #: telemetry sink consulted by instrumented hot paths (see
        #: :mod:`repro.obs`); the default NullObserver makes every
        #: observation a constant-time no-op that never touches the
        #: event calendar, so disabled telemetry cannot perturb timing
        self.obs: Any = NULL_OBSERVER

    def __reduce__(self):
        # Live simulations hold generator-based processes, which cannot
        # cross a process boundary; without this guard pickle fails
        # deep inside the event heap with an opaque error.
        raise TypeError(
            "Simulator is not picklable: ship a picklable "
            "repro.bench.sweep.ExperimentSpec to the worker and rebuild "
            "the simulation there instead"
        )

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- factories ---------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: str = "", start: Optional[Event] = None
    ) -> Process:
        """Start a new :class:`Process` running ``generator``, on
        ``start`` when given (see :class:`Process`)."""
        return Process(self, generator, name=name, start=start)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` fire."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _enqueue(self, delay: float, event: Event) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self._now + delay, next(self._seq), event))

    def _schedule_at(self, when: float, event: Event) -> None:
        """Push ``event`` at the absolute time ``when`` (no ``now + delay``
        rounding: idle-poll skips place timers on exact tick times)."""
        if when < self._now:
            raise SimulationError(f"cannot schedule into the past (at {when} < {self._now})")
        heappush(self._heap, (when, next(self._seq), event))

    def _idle_bound(self) -> float:
        """Earliest calendar time holding an entry that is not an inert
        poll timer (:meth:`CompletionWatch._inert`), or ``inf``.

        Walks the heap from the root and stops descending at the first
        non-inert entry on each path or at any entry no earlier than
        the best bound found, so it visits only the inert timers ahead
        of the bound plus their immediate children.
        """
        heap = self._heap
        size = len(heap)
        best = inf
        stack = [0] if size else []
        while stack:
            index = stack.pop()
            when, _, event = heap[index]
            if when >= best:
                continue
            if type(event) is _PollTimer and event.watch._inert(event):
                child = 2 * index + 1
                if child < size:
                    stack.append(child)
                    if child + 1 < size:
                        stack.append(child + 1)
            else:
                best = when
        return best

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else inf

    def _fire(self, event: Event) -> None:
        """Run one popped event's callbacks (the shared step body)."""
        event._processed = True
        cbs = event._callbacks
        if cbs is not None:
            event._callbacks = None
            if type(cbs) is list:
                for callback in cbs:
                    callback(event)
            else:
                cbs(event)
        elif not event._ok:
            # A failed event (or crashed process) nobody was waiting on
            # would silently swallow the error — and often turn into a
            # livelock downstream; surface it instead.
            raise event._value

    def step(self) -> None:
        """Fire exactly one event (the earliest scheduled)."""
        if not self._heap:
            raise SimulationError("step() on an empty calendar")
        when, _, event = heappop(self._heap)
        self._now = when
        self.events_processed += 1
        self._fire(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to calendar exhaustion), a time
        (run until the clock reaches it), or an :class:`Event` (run until
        it fires, returning its value / raising its failure).

        The drain loops inline the :meth:`step` body — one Python-level
        call per event would be a measurable share of sweep wall time.
        """
        heap = self._heap
        fire = self._fire
        fired = 0
        if until is None:
            self._horizon = inf
            try:
                while heap:
                    when, _, event = heappop(heap)
                    self._now = when
                    fired += 1
                    fire(event)
            finally:
                self.events_processed += fired
                self._horizon = -inf
            return None
        if isinstance(until, Event):
            self._horizon = inf
            try:
                while not until._processed:
                    if not heap:
                        raise SimulationError(
                            f"simulation ran out of events before {until!r} fired "
                            "(deadlock?)"
                        )
                    when, _, event = heappop(heap)
                    self._now = when
                    fired += 1
                    fire(event)
            finally:
                self.events_processed += fired
                self._horizon = -inf
            if until._ok:
                return until._value
            raise until._value
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(f"cannot run until {horizon} < now ({self._now})")
        self._horizon = horizon
        try:
            while heap and heap[0][0] <= horizon:
                when, _, event = heappop(heap)
                self._now = when
                fired += 1
                fire(event)
        finally:
            self.events_processed += fired
            self._horizon = -inf
        self._now = horizon
        return None
