"""Engine and stream semantics on both timing paths of the simulator.

A :class:`Simulator` with no noise model takes the closed-form fast
paths (``Link.transmit`` in one timeout, stream completion as a single
calendar entry).  Attaching a noise model — here an inert one with
``cv=0``, whose factor is exactly 1.0 — routes the same calls through
the general branches.  Same-timestamp FIFO, Interrupt delivery,
AllOf/AnyOf and apply-at-completion must hold identically either way.
"""

import pytest

from repro.gpu.device import GPUDevice
from repro.sim import Interrupt, NoiseModel, Simulator


@pytest.fixture(params=[False, True], ids=["fast", "generic"])
def sim(request):
    """A simulator on the fast path, or on the general (noise) path."""
    simulator = Simulator()
    if request.param:
        simulator.noise = NoiseModel(seed=0, cv=0.0)
    return simulator


def test_same_timestamp_fifo_order(sim):
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(8):
        sim.process(proc(tag))
    sim.run()
    assert order == list(range(8))


def test_interrupt_delivery(sim):
    seen = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            seen.append((sim.now, exc.cause))

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt("wake")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert seen == [(2.0, "wake")]


def test_allof_anyof_composition(sim):
    results = {}

    def proc():
        t1, t2, t3 = sim.timeout(1.0, "a"), sim.timeout(2.0, "b"), sim.timeout(3.0, "c")
        first = yield sim.any_of([t1, t2, t3])
        results["any_at"] = sim.now
        results["any_values"] = sorted(first.values())
        rest = yield sim.all_of([t2, t3])
        results["all_at"] = sim.now
        results["all_values"] = sorted(rest.values())

    sim.process(proc())
    sim.run()
    assert results == {
        "any_at": 1.0,
        "any_values": ["a"],
        "all_at": 3.0,
        "all_values": ["b", "c"],
    }


def test_stream_apply_runs_at_completion(sim):
    device = GPUDevice(sim)
    applied = []

    def proc():
        done = device.default_stream.enqueue_callable(
            1e-5, apply=lambda: applied.append(sim.now), value="v"
        )
        value = yield done
        assert value == "v"

    sim.process(proc())
    sim.run()
    assert applied == [1e-5]
