"""Idle-poll skipping in :class:`~repro.sim.engine.CompletionWatch`.

A poller that hands ``sleep`` an idle predicate must produce the same
calendar as the same program without one, minus the polls it skipped:
every other event fires at the same time, in the same order, resuming
the same process.  Each case runs a small program twice (predicate off,
then on) on a simulator that logs every fired event, and compares the
logs with the poll timers and the skipped polls' wakes left out.
"""

import pytest

from repro.sim import CompletionWatch, Process, Resource, Simulator

POLL = 1e-6


class _Recording(Simulator):
    """Logs ``(time, event type, event name, resumed processes)`` per fire."""

    def __init__(self):
        super().__init__()
        self.fired = []

    def _fire(self, event):
        cbs = event._callbacks
        cbs = cbs if type(cbs) is list else [] if cbs is None else [cbs]
        resumed = tuple(
            cb.__self__.name for cb in cbs
            if getattr(cb, "__func__", None) is Process._resume
        )
        self.fired.append((self._now, type(event).__name__, event.name, resumed))
        super()._fire(event)


class _Poller:
    """The ``Rank.waitall`` progress loop in miniature: take the CPU, do any
    queued work, return once the watched event fired, else sleep."""

    def __init__(self, sim, name, done_at, start=0.0):
        self.sim = sim
        self.name = name
        self.cpu = Resource(sim)
        self.work = []
        self.polls = []
        self.watch = None
        self.done_at = done_at
        self.start = start

    def idle(self):
        return self.cpu.idle and not self.work

    def run(self, use_idle):
        sim = self.sim
        if self.start:
            yield sim.timeout(self.start)
        self.watch = watch = CompletionWatch(sim, [sim.timeout(self.done_at - sim.now)])
        while True:
            yield self.cpu.request()
            try:
                self.polls.append(sim.now)
                while self.work:
                    yield sim.timeout(self.work.pop(0))
            finally:
                self.cpu.release()
            if not watch.remaining:
                return
            yield watch.sleep(POLL, self.idle if use_idle else None)

    def spawn(self, use_idle):
        return self.sim.process(self.run(use_idle), name=self.name)


def _hog(sim, poller, at, hold):
    """Hold ``poller``'s CPU for ``hold`` from ``at`` (absolute)."""
    yield sim.timeout(at - sim.now)
    yield poller.cpu.request()
    yield sim.timeout(hold)
    poller.cpu.release()


def _late_hog(sim, poller, at, hold):
    """:func:`_hog`, but scheduled after any poll timer already due at
    ``at`` (half a poll before it, when that timer is on the calendar):
    it lands on the same instant with a later sequence number."""
    yield sim.timeout(at - 0.5 * POLL - sim.now)
    yield sim.timeout(at - sim.now)  # exact: Sterbenz
    assert sim.now == at
    yield poller.cpu.request()
    yield sim.timeout(hold)
    poller.cpu.release()


def _feed(sim, poller, at, cost):
    """Queue ``cost`` of work for ``poller``'s next poll at ``at``."""
    yield sim.timeout(at - sim.now)
    poller.work.append(cost)


def _tick(n, start=0.0):
    """The ``n``-th poll tick after ``start``, added up as the chain does."""
    t = start
    for _ in range(n):
        t += POLL
    return t


def _observable(sim, pollers, skipped):
    """The fired log minus poll timers and the skipped polls' wakes."""
    names = {p.name for p in pollers}

    def elided(when, kind, _name, resumed):
        if kind == "_PollTimer":
            return True
        return len(resumed) == 1 and resumed[0] in names and (resumed[0], when) in skipped

    return [entry for entry in sim.fired if not elided(*entry)]


def _compare(program, drive=lambda sim, pollers: sim.run()):
    """Run ``program`` without and with idle predicates and check that
    their calendars agree."""
    runs = []
    for use_idle in (False, True):
        sim = _Recording()
        pollers = program(sim)
        for poller in pollers:
            poller.spawn(use_idle)
        drive(sim, pollers)
        runs.append((sim, pollers))
    (plain, plain_pollers), (skipping, skip_pollers) = runs
    skipped = {
        (p.name, t) for p in skip_pollers for t in p.watch.skipped_ticks()
    }
    assert skipped, "the program never idled: nothing was tested"
    for quiet, busy in zip(skip_pollers, plain_pollers):
        ticks = quiet.watch.skipped_ticks()
        assert sorted(quiet.polls + ticks) == busy.polls
    assert _observable(skipping, skip_pollers, skipped) == _observable(
        plain, plain_pollers, skipped
    )
    assert skipping.events_processed < plain.events_processed
    assert skipping.now == plain.now


def _two_pollers(start1):
    def program(sim):
        p0 = _Poller(sim, "p0", done_at=40.5e-6)
        p1 = _Poller(sim, "p1", done_at=61.25e-6, start=start1)
        sim.process(_hog(sim, p0, 12.5e-6, 2.25e-6), name="hog")
        sim.process(_feed(sim, p1, 25.0e-6, 0.75e-6), name="feed1")
        sim.process(_feed(sim, p0, 30.1e-6, 0.4e-6), name="feed0")
        return [p0, p1]

    return program


def test_two_idle_pollers_on_equal_grids():
    _compare(_two_pollers(0.0))


def test_two_idle_pollers_on_offset_grids():
    _compare(_two_pollers(0.37e-6))


@pytest.mark.parametrize("kind", ["hog", "late-hog", "feed", "bystander", "completion"])
def test_non_idle_event_exactly_on_a_grid_tick(kind):
    """``p0`` idles from 0 on its 1 µs grid until an entry lands on its
    17th tick; ``p1`` idles on an offset grid throughout."""
    at = _tick(17)

    def program(sim):
        p0 = _Poller(sim, "p0", done_at=at if kind == "completion" else 40.0e-6)
        p1 = _Poller(sim, "p1", done_at=33.3e-6, start=0.37e-6)
        if kind == "hog":
            sim.process(_hog(sim, p0, at, 1.5e-6), name=kind)
        elif kind == "late-hog":
            sim.process(_late_hog(sim, p0, at, 1.5e-6), name=kind)
        elif kind == "feed":
            sim.process(_feed(sim, p0, at, 0.5e-6), name=kind)
        elif kind == "bystander":
            # an entry that changes nothing still bounds the skip
            sim.process(_feed(sim, _Poller(sim, "x", 0.0), at, 0.0), name=kind)
        return [p0, p1]

    _compare(program)


def test_run_until_slices_with_events_injected_between():
    def drive(sim, pollers):
        p0, p1 = pollers
        horizon = 0.0
        for k in range(12):
            horizon += 7.3e-6
            sim.run(until=horizon)
            # Between slices the outside world reaches in: the next
            # slice must see these exactly as the unskipped chain does.
            if k % 3 == 0:
                sim.process(_feed(sim, p0, sim.now + 0.2e-6, 0.3e-6), name=f"feed{k}")
            elif k % 3 == 1:
                sim.process(_hog(sim, p1, sim.now + 0.6e-6, 1.1e-6), name=f"hog{k}")
        sim.run()

    def program(sim):
        return [
            _Poller(sim, "p0", done_at=70.05e-6),
            _Poller(sim, "p1", done_at=80.0e-6, start=0.37e-6),
        ]

    _compare(program, drive)


def test_step_never_skips():
    def drive(sim):
        while sim.peek() != float("inf"):
            sim.step()

    sim = _Recording()
    pollers = _two_pollers(0.37e-6)(sim)
    for poller in pollers:
        poller.spawn(True)
    drive(sim)
    assert all(not p.watch.skips for p in pollers)
    plain = _Recording()
    for poller in _two_pollers(0.37e-6)(plain):
        poller.spawn(False)
    plain.run()
    assert sim.fired == plain.fired


def test_skip_never_crosses_a_run_until_horizon():
    sim = Simulator()
    poller = _Poller(sim, "p", done_at=1.0)
    poller.spawn(True)
    sim.run(until=10.5e-6)
    # The one pending poll timer is the first tick past the horizon.
    (first, resume, _), = poller.watch.skips
    assert first == _tick(1)
    assert resume == _tick(11)
    assert [when for when, _, _ in sim._heap if when < 1.0] == [_tick(11)]
