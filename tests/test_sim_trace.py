"""Unit tests for the time-breakdown trace."""

import pytest

from repro.sim import Category, Span, Trace


def test_span_duration_and_validation():
    s = Span(Category.PACK, 1.0, 3.0)
    assert s.duration == pytest.approx(2.0)
    with pytest.raises(ValueError):
        Span(Category.PACK, 3.0, 1.0)


def test_charge_and_totals():
    t = Trace()
    t.charge(Category.PACK, 0.0, 1.0)
    t.charge(Category.COMM, 1.0, 4.0)
    t.charge(Category.PACK, 5.0, 6.0)
    assert t.total() == pytest.approx(5.0)
    assert t.total(Category.PACK) == pytest.approx(2.0)
    assert t.total(Category.COMM) == pytest.approx(3.0)
    assert t.total(Category.SYNC) == 0.0


def test_breakdown_includes_all_categories():
    t = Trace()
    t.charge(Category.SCHED, 0.0, 1.0)
    bd = t.breakdown()
    assert set(bd) == set(Category)
    assert bd[Category.SCHED] == pytest.approx(1.0)
    assert bd[Category.PACK] == 0.0


def test_count_and_iter():
    t = Trace()
    t.charge(Category.SYNC, 0.0, 1.0, label="a")
    t.charge(Category.SYNC, 1.0, 2.0, label="b")
    t.charge(Category.PACK, 2.0, 3.0)
    assert len(t.spans) == 3
    assert [s.label for s in t.iter_category(Category.SYNC)] == ["a", "b"]


def test_merge_and_clear():
    a, b = Trace(), Trace()
    a.charge(Category.PACK, 0.0, 1.0)
    b.charge(Category.COMM, 0.0, 2.0)
    a.spans.extend(b.spans)
    assert a.total() == pytest.approx(3.0)
    a.clear()
    assert a.spans == [] and a.total() == 0.0
