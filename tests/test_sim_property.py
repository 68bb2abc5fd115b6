"""Property-based tests (hypothesis) for the simulation kernel.

DESIGN.md §6 invariants: events fire in non-decreasing time, FIFO for
ties, full determinism given identical process code, and resource
conservation under arbitrary interleavings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
def test_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.timeout(d).callbacks.append(lambda _ev, d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=20))
def test_same_time_fifo_by_creation_order(count_groups):
    sim = Simulator()
    order = []
    expected = []
    for group, n in enumerate(count_groups):
        for i in range(n):
            label = (group, i)
            expected.append(label)
            sim.timeout(1.0).callbacks.append(lambda _ev, lab=label: order.append(lab))
    sim.run()
    assert order == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.001, 5.0), st.integers(1, 5)),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 4),
)
def test_resource_conserves_capacity(jobs, capacity):
    """At no instant do more than `capacity` holders exist; every
    requester is eventually served; service order is FIFO."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    active = {"n": 0, "peak": 0}
    served = []

    def worker(wid, hold):
        yield res.request()
        active["n"] += 1
        active["peak"] = max(active["peak"], active["n"])
        served.append(wid)
        assert active["n"] <= capacity
        yield sim.timeout(hold)
        active["n"] -= 1
        res.release()

    for wid, (hold, _w) in enumerate(jobs):
        sim.process(worker(wid, hold))
    sim.run()
    assert sorted(served) == list(range(len(jobs)))
    assert active["n"] == 0
    assert active["peak"] <= capacity
    # Grants follow request order (single-process-per-request FIFO).
    assert served == sorted(served)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=10),
    st.integers(1, 3),
)
def test_full_determinism(delays, capacity):
    """Two runs of an arbitrary process soup produce identical logs."""

    def world():
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        log = []

        def worker(wid, delay):
            yield sim.timeout(delay)
            yield res.request()
            log.append((wid, round(sim.now, 12)))
            yield sim.timeout(delay / 2)
            res.release()

        for wid, d in enumerate(delays):
            sim.process(worker(wid, d))
        sim.run()
        return log

    assert world() == world()
