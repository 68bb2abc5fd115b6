"""Unit tests for the time-breakdown trace."""

import pytest

from repro.obs import Observer, Recorder
from repro.sim import Category, Simulator, Trace


def _traced_sim() -> Simulator:
    sim = Simulator()
    sim.obs = Observer(recorder=Recorder())
    return sim


def test_span_duration_and_validation():
    sim = _traced_sim()
    t = Trace(sim)
    t.charge(Category.PACK, 1.0, 3.0)
    assert t.total(Category.PACK) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        t.charge(Category.PACK, 3.0, 1.0)
    # a rejected charge changes neither view
    assert t.total(Category.PACK) == pytest.approx(2.0)
    assert len(sim.obs.recorder) == 1


def test_charge_and_totals():
    sim = Simulator()  # untraced: the default NullObserver
    t = Trace(sim)
    t.charge(Category.PACK, 0.0, 1.0)
    t.charge(Category.COMM, 1.0, 4.0)
    t.charge(Category.PACK, 5.0, 6.0)
    assert t.total(Category.PACK) == pytest.approx(2.0)
    assert t.total(Category.COMM) == pytest.approx(3.0)
    assert t.total(Category.SYNC) == 0.0
    assert len(sim.obs.recorder) == 0


def test_breakdown_includes_all_categories():
    t = Trace(Simulator())
    t.charge(Category.SCHED, 0.0, 1.0)
    bd = t.breakdown()
    assert set(bd) == set(Category)
    assert bd[Category.SCHED] == pytest.approx(1.0)
    assert bd[Category.PACK] == 0.0


def test_count_and_iter():
    """Each charge is one span on the recorder, in charge order, on
    the trace's track and named by its label."""
    sim = _traced_sim()
    t = Trace(sim, "Proposed/rank0")
    t.charge(Category.SYNC, 0.0, 1.0, label="a")
    t.charge(Category.SYNC, 1.0, 2.0, label="b")
    t.charge(Category.PACK, 2.0, 3.0)
    events = sim.obs.recorder.events
    assert len(events) == 3
    assert [e.name for e in events if e.category == "sync"] == ["a", "b"]
    assert events[2].name == "pack"  # unlabelled: named by its bucket
    assert all(e.track == "Proposed/rank0" and not e.instant for e in events)
    assert [(e.ts, e.dur) for e in events] == [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]


def test_merge_and_clear():
    """Two ranks' traces merge on one stream; clearing resets the
    totals and leaves the stream alone."""
    sim = _traced_sim()
    a, b = Trace(sim, "r0"), Trace(sim, "r1")
    a.charge(Category.PACK, 0.0, 1.0)
    b.charge(Category.COMM, 0.0, 2.0)
    assert sim.obs.recorder.tracks() == ["r0", "r1"]
    a.clear()
    assert a.breakdown() == dict.fromkeys(Category, 0.0)
    assert b.total(Category.COMM) == pytest.approx(2.0)
    assert len(sim.obs.recorder) == 2
