"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
    ms,
    ns,
    us,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_unit_helpers():
    assert us(1) == pytest.approx(1e-6)
    assert ns(1) == pytest.approx(1e-9)
    assert ms(1) == pytest.approx(1e-3)


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(2.5)
    sim.run(t)
    assert sim.now == pytest.approx(2.5)


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("payload", delay=1.0)
    assert sim.run(ev) == "payload"
    assert ev.processed and ev.ok


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_unavailable_before_trigger():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_fail_raises_in_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))

    def proc():
        yield ev

    p = sim.process(proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run(p)


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_process_sequences_timeouts():
    sim = Simulator()
    marks = []

    def proc():
        yield sim.timeout(1.0)
        marks.append(sim.now)
        yield sim.timeout(2.0)
        marks.append(sim.now)
        return "done"

    p = sim.process(proc())
    assert sim.run(p) == "done"
    assert marks == [pytest.approx(1.0), pytest.approx(3.0)]


def test_process_receives_event_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(41, delay=1.0)
    got = []

    def proc():
        value = yield ev
        got.append(value)

    sim.run(sim.process(proc()))
    assert got == [41]


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return result

    assert sim.run(sim.process(parent())) == "child-result"
    assert sim.now == pytest.approx(5.0)


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def proc():
        yield 42  # type: ignore[misc]

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="may.*only yield"):
        sim.run(p)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_waiting_on_processed_event_resumes():
    """A process yielding an already-processed event continues promptly."""
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event
    assert ev.processed

    def proc():
        value = yield ev
        assert value == "early"
        return sim.now

    assert sim.run(sim.process(proc())) == pytest.approx(sim.now)


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        t = sim.timeout(1.0)
        t.callbacks.append(lambda _ev, i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_all_of_waits_for_all():
    sim = Simulator()
    t1, t2 = sim.timeout(1.0, "a"), sim.timeout(3.0, "b")
    cond = AllOf(sim, [t1, t2])
    value = sim.run(cond)
    assert sim.now == pytest.approx(3.0)
    assert value == {t1: "a", t2: "b"}


def test_any_of_fires_on_first():
    sim = Simulator()
    t1, t2 = sim.timeout(1.0, "fast"), sim.timeout(3.0, "slow")
    cond = AnyOf(sim, [t1, t2])
    value = sim.run(cond)
    assert sim.now == pytest.approx(1.0)
    assert value == {t1: "fast"}


def test_any_of_not_satisfied_by_merely_scheduled_timeout():
    """The regression that once live-locked waitall: a freshly created
    Timeout is triggered (scheduled) but must not satisfy AnyOf."""
    sim = Simulator()
    t = sim.timeout(5.0)
    cond = AnyOf(sim, [t])
    assert not cond.triggered
    sim.run(cond)
    assert sim.now == pytest.approx(5.0)


def test_empty_all_of_fires_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    sim.run(cond)
    assert cond.processed and sim.now == 0.0


def test_empty_any_of_fires_immediately():
    sim = Simulator()
    cond = AnyOf(sim, [])
    sim.run(cond)
    assert cond.processed


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        AllOf(sim1, [sim2.timeout(1.0)])


def test_condition_propagates_failure():
    sim = Simulator()
    good = sim.timeout(5.0)
    bad = sim.event()
    bad.fail(RuntimeError("inner"), delay=1.0)
    cond = AllOf(sim, [good, bad])
    with pytest.raises(RuntimeError, match="inner"):
        sim.run(cond)


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).callbacks.append(lambda _: fired.append(1))
    sim.timeout(10.0).callbacks.append(lambda _: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == pytest.approx(5.0)


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_detects_deadlock():
    sim = Simulator()
    never = sim.event()

    def proc():
        yield never

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(p)


def test_peek_and_step():
    sim = Simulator()
    sim.timeout(2.0)
    assert sim.peek() == pytest.approx(2.0)
    sim.step()
    assert sim.now == pytest.approx(2.0)
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_schedule_into_past_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        ev.succeed(delay=-0.5)


def test_process_exception_propagates():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise KeyError("inside")

    p = sim.process(proc())
    with pytest.raises(KeyError):
        sim.run(p)


def test_determinism_two_identical_runs():
    def world(sim, log):
        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((name, round(sim.now, 9)))

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 0.5))
        sim.run()

    log1, log2 = [], []
    world(Simulator(), log1)
    world(Simulator(), log2)
    assert log1 == log2


# -- unjoined termination -------------------------------------------------------


def test_unjoined_success_leaves_no_termination_entry():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "v"

    p = sim.process(proc())
    assert p.is_alive and not p.processed
    sim.run()
    # bootstrap + timeout: the return settles in place
    assert sim.events_processed == 2
    assert p.processed and p.triggered and p.ok
    assert p.value == "v"
    assert not p.is_alive


def test_later_join_of_settled_process_resumes_through_carrier():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "child"

    c = sim.process(child())
    got = []

    def late():
        yield sim.timeout(2.0)
        got.append((yield c))
        got.append(sim.now)

    sim.process(late())
    sim.run()
    assert got == ["child", 2.0]
    # two bootstraps + two timeouts + the carrier resuming `late`
    assert sim.events_processed == 5


def test_joined_termination_keeps_its_tie_position():
    """A joined process still ends through the calendar: an event
    scheduled for the same instant before the end fires first."""
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(1.0)

    c = sim.process(child())

    def joiner():
        yield c
        log.append("joiner")

    def bystander():
        yield sim.timeout(1.0)
        log.append("bystander")

    sim.process(joiner())
    sim.process(bystander())
    sim.run()
    assert log == ["bystander", "joiner"]
    # three bootstraps + two timeouts + the child's termination
    assert sim.events_processed == 6


def test_unjoined_failure_still_raises_from_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise KeyError("unjoined")

    sim.process(proc())
    with pytest.raises(KeyError, match="unjoined"):
        sim.run()


# -- start events ----------------------------------------------------------------


def _start_world(use_start):
    """Two processes await one event; the first may start on it."""
    sim = Simulator()
    ev = sim.event()
    log = []

    def first():
        value = yield ev
        log.append(("first", sim.now, value))
        yield sim.timeout(1.0)
        log.append(("first", sim.now))

    def second():
        yield ev
        log.append(("second", sim.now))

    def trigger():
        yield sim.timeout(2.0)
        ev.succeed("go")

    sim.process(first(), start=ev if use_start else None)
    sim.process(second())
    sim.process(trigger())
    sim.run()
    return log, sim.events_processed


def test_start_event_process_resumes_at_the_events_tie_position():
    started, started_events = _start_world(use_start=True)
    booted, booted_events = _start_world(use_start=False)
    assert started == booted == [
        ("first", 2.0, "go"), ("second", 2.0), ("first", 3.0),
    ]
    assert started_events == booted_events - 1  # no bootstrap


def test_start_event_already_triggered_falls_back_to_bootstrap():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early", delay=1.0)
    log = []

    def proc():
        log.append((yield ev))

    sim.process(proc(), start=ev)
    sim.run()
    assert log == ["early"]
    # the bootstrap + the event
    assert sim.events_processed == 2

    sim.process(proc(), start=ev)
    sim.run()
    assert log == ["early", "early"]
    # + a bootstrap and the carrier for the processed event
    assert sim.events_processed == 4


def test_start_event_must_be_the_first_wait():
    sim = Simulator()
    ev = sim.event()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc(), start=ev)
    ev.succeed()
    with pytest.raises(SimulationError, match="start event"):
        sim.run()
