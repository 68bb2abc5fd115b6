"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


# -- Resource -----------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2 = res.request(), res.request()
    sim.run()
    assert r1.processed and r2.processed
    assert res.in_use == 2


def test_resource_queues_beyond_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    sim.run()
    assert first.processed and not second.triggered
    assert res.queue_length == 1
    res.release()
    sim.run()
    assert second.processed


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(name, hold):
        yield res.request()
        order.append(("got", name, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(worker("a", 1.0))
    sim.process(worker("b", 1.0))
    sim.process(worker("c", 1.0))
    sim.run()
    assert [o[1] for o in order] == ["a", "b", "c"]
    assert [o[2] for o in order] == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]


def test_resource_release_idle_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)
