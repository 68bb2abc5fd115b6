"""Unit + property tests for the circular request list (§IV-A1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CircularRequestList, RequestStatus
from repro.gpu import GPUDevice, TESLA_V100
from repro.datatypes import DataLayout
from repro.sim import Simulator


def _op(dev, nbytes=1024):
    lay = DataLayout([0], [nbytes])
    return dev.pack_op(dev.alloc(nbytes), lay, dev.alloc(nbytes))


@pytest.fixture()
def env():
    sim = Simulator()
    return sim, GPUDevice(sim, TESLA_V100)


def test_enqueue_assigns_increasing_uids(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=8)
    uids = [rl.enqueue(_op(dev)).uid for _ in range(5)]
    assert uids == sorted(uids)
    assert len(set(uids)) == 5


def test_enqueue_full_returns_none(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=2)
    assert rl.enqueue(_op(dev)) is not None
    assert rl.enqueue(_op(dev)) is not None
    assert rl.occupancy == rl.capacity
    assert rl.enqueue(_op(dev)) is None
    assert rl.rejections == 1


def test_pending_fifo_order(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=8)
    reqs = [rl.enqueue(_op(dev)) for _ in range(4)]
    assert [r.uid for r in rl.pending()] == [r.uid for r in reqs]
    assert [r.op.nbytes for r in rl.pending()] == [r.op.nbytes for r in reqs]


def test_pending_list_is_maintained_across_partial_launches(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=8)
    a, b, c = (rl.enqueue(_op(dev, n)) for n in (100, 200, 300))
    rl.mark_busy([b])
    assert rl.pending() == [a, c]
    assert rl.pending_count == 2
    assert sum(r.op.nbytes for r in rl.pending()) == 400
    rl.pending().clear()  # a copy: the ring's own list is untouched
    d = rl.enqueue(_op(dev, 400))
    assert rl.pending() == [a, c, d]
    rl.mark_busy([a, c, d])
    assert rl.pending() == [] and rl.pending_count == 0


def test_status_lifecycle(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=4)
    req = rl.enqueue(_op(dev))
    assert req.request_status is RequestStatus.PENDING
    assert req.response_status is RequestStatus.IDLE
    rl.mark_busy([req])
    assert req.request_status is RequestStatus.BUSY
    assert not req.complete
    req.gpu_signal_complete()
    assert req.complete
    assert req.response_status is RequestStatus.COMPLETED


def test_mark_busy_rejects_non_pending(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=4)
    req = rl.enqueue(_op(dev))
    rl.mark_busy([req])
    with pytest.raises(ValueError):
        rl.mark_busy([req])


def test_gpu_signal_fires_done_event(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=4)
    req = rl.enqueue(_op(dev))
    req.gpu_signal_complete()
    sim.run()
    assert req.done_event.processed


def test_reap_recycles_head_entries(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=3)
    reqs = [rl.enqueue(_op(dev)) for _ in range(3)]
    assert rl.enqueue(_op(dev)) is None
    rl.mark_busy(reqs)
    reqs[0].gpu_signal_complete()
    assert rl.reap() == 1
    assert rl.occupancy == 2
    assert rl.enqueue(_op(dev)) is not None  # slot freed


def test_reap_stops_at_incomplete(env):
    """Ring discipline: a later completion cannot be reaped past an
    earlier incomplete entry."""
    sim, dev = env
    rl = CircularRequestList(sim, capacity=4)
    reqs = [rl.enqueue(_op(dev)) for _ in range(3)]
    rl.mark_busy(reqs)
    reqs[1].gpu_signal_complete()
    reqs[2].gpu_signal_complete()
    assert rl.reap() == 0
    reqs[0].gpu_signal_complete()
    assert rl.reap() == 3


def test_lookup_by_uid(env):
    sim, dev = env
    rl = CircularRequestList(sim, capacity=4)
    req = rl.enqueue(_op(dev))
    assert rl.lookup(req.uid) is req
    assert rl.lookup(9999) is None


def test_capacity_validation(env):
    sim, _dev = env
    with pytest.raises(ValueError):
        CircularRequestList(sim, capacity=0)


def test_wraparound_reuse(env):
    """Fill, drain, and refill across the wrap boundary."""
    sim, dev = env
    rl = CircularRequestList(sim, capacity=4)
    for _round in range(5):
        reqs = [rl.enqueue(_op(dev)) for _ in range(4)]
        assert all(r is not None for r in reqs)
        rl.mark_busy(reqs)
        for r in reqs:
            r.gpu_signal_complete()
        assert rl.reap() == 4
        assert rl.occupancy == 0
    assert rl.peak_occupancy == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["enq", "complete", "reap"]), max_size=60),
       st.integers(2, 8))
def test_ring_invariants_under_random_operations(script, capacity):
    """Property: UIDs unique, occupancy bounded, reaps only completed,
    no status regression, fallback exactly when full."""
    sim = Simulator()
    dev = GPUDevice(sim, TESLA_V100)
    rl = CircularRequestList(sim, capacity=capacity)
    live = []
    seen_uids = set()
    for action in script:
        if action == "enq":
            was_full = rl.occupancy == rl.capacity
            req = rl.enqueue(_op(dev))
            assert (req is None) == was_full
            if req is not None:
                assert req.uid not in seen_uids
                seen_uids.add(req.uid)
                live.append(req)
        elif action == "complete" and live:
            req = live.pop(0)
            if req.request_status is RequestStatus.PENDING:
                rl.mark_busy([req])
            req.gpu_signal_complete()
        elif action == "reap":
            rl.reap()
        assert 0 <= rl.occupancy <= capacity
        assert rl.peak_occupancy <= capacity
