"""Unit tests for streams and the device engine."""

import pytest

from repro.gpu import ExecutionEngine, GPUDevice, Stream, TESLA_V100
from repro.sim import Simulator, us


def _noop_stream(sim):
    return Stream(sim, name="s")


def test_stream_serializes_ops():
    sim = Simulator()
    s = _noop_stream(sim)
    done1 = s.enqueue_callable(us(5))
    done2 = s.enqueue_callable(us(3))
    sim.run(done2)
    assert sim.now == pytest.approx(us(8))
    assert done1.processed


def test_stream_idle_gap_not_accumulated():
    sim = Simulator()
    s = _noop_stream(sim)
    sim.run(s.enqueue_callable(us(2)))
    sim.run(until=us(10))
    done = s.enqueue_callable(us(1))
    sim.run(done)
    assert sim.now == pytest.approx(us(11))


def test_stream_apply_runs_at_completion():
    sim = Simulator()
    s = _noop_stream(sim)
    log = []
    s.enqueue_callable(us(4), lambda: log.append(sim.now))
    assert log == []  # not yet
    sim.run()
    assert log == [pytest.approx(us(4))]


def test_stream_completion_timeline():
    """The completion timeout is the completion event: one calendar
    entry per op, carrying the op's value, at the stream tail."""
    sim = Simulator()
    device = GPUDevice(sim)
    completions = []

    def proc():
        for duration in (1e-5, 2e-5, 0.0):
            value = yield device.default_stream.enqueue_callable(
                duration, value=duration
            )
            completions.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert completions == [
        (1e-05, 1e-05),
        (3.0000000000000004e-05, 2e-05),
        (3.0000000000000004e-05, 0.0),
    ]
    assert device.default_stream.tail == 3.0000000000000004e-05
    # process start + three completion timeouts; the unjoined process
    # ends in place, with no termination on the calendar
    assert sim.events_processed == 4


def test_stream_busy_accounting():
    sim = Simulator()
    s = _noop_stream(sim)
    s.enqueue_callable(us(5))
    s.enqueue_callable(us(5))
    sim.run()
    assert s.tail == pytest.approx(us(10))
    assert sim.now == pytest.approx(us(10))


def test_stream_occupy_books_time_without_a_calendar_entry():
    sim = Simulator()
    s = _noop_stream(sim)
    assert s.occupy(us(5)) == us(5)
    assert sim.peek() == float("inf")  # nothing scheduled
    assert s.tail == us(5)
    done = s.enqueue_callable(us(2))
    sim.run(done)
    assert sim.now == pytest.approx(us(7))  # queued behind the occupancy
    with pytest.raises(ValueError):
        s.occupy(-1.0)


def test_stream_negative_duration_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        _noop_stream(sim).enqueue_callable(-1.0)


def test_barrier_waits_for_prior_work():
    sim = Simulator()
    s = _noop_stream(sim)
    s.enqueue_callable(us(7))
    sim.run(s.barrier())
    assert sim.now == pytest.approx(us(7))


def test_engine_serializes_across_streams():
    """Two streams on one device cannot run kernels concurrently."""
    sim = Simulator()
    engine = ExecutionEngine()
    s1 = Stream(sim, engine=engine)
    s2 = Stream(sim, engine=engine)
    s1.enqueue_callable(us(5))
    done = s2.enqueue_callable(us(5))
    sim.run(done)
    assert sim.now == pytest.approx(us(10))


def test_independent_engines_do_overlap():
    sim = Simulator()
    s1 = Stream(sim, engine=ExecutionEngine())
    s2 = Stream(sim, engine=ExecutionEngine())
    s1.enqueue_callable(us(5))
    done = s2.enqueue_callable(us(5))
    sim.run(done)
    assert sim.now == pytest.approx(us(5))


def test_device_streams_share_engine():
    sim = Simulator()
    dev = GPUDevice(sim, TESLA_V100)
    extra = dev.create_stream()
    dev.default_stream.enqueue_callable(us(4))
    done = extra.enqueue_callable(us(4))
    sim.run(done)
    assert sim.now == pytest.approx(us(8))
