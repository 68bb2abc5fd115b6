"""Unit tests for the per-rank datatype layout store."""

import pytest

from repro.datatypes import DOUBLE, LayoutCache, Vector


def test_miss_then_hit():
    cache = LayoutCache()
    t = Vector(4, 2, 5, DOUBLE)
    lay = cache.layout(t)  # stored for free: counts no lookup
    assert cache.lookup((t, 1)) is None  # its flatten is not charged yet
    cache.insert((t, 1), lay)
    assert cache.lookup((Vector(4, 2, 5, DOUBLE), 1)) is lay  # structural twin
    assert cache.stats.misses == 1 and cache.stats.hits == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_different_types_different_entries():
    cache = LayoutCache()
    t = Vector(4, 2, 6, DOUBLE)
    cache.layout(Vector(4, 2, 5, DOUBLE))
    cache.layout(t)
    assert cache.layout(t, 2).size == 2 * t.size
    assert len(cache) == 3


def test_insert_refresh_existing():
    cache = LayoutCache()
    t = Vector(2, 1, 2, DOUBLE)
    first, second = t.flatten(), t.layout(2)
    cache.insert((t, 1), first)
    cache.insert((t, 1), second)
    assert len(cache) == 1
    assert cache.lookup((t, 1)) is second


def test_lookup_miss_returns_none():
    cache = LayoutCache()
    assert cache.lookup(("nope",)) is None
    assert cache.stats.misses == 1


def test_clear_keeps_stats():
    cache = LayoutCache()
    t = Vector(2, 1, 2, DOUBLE)
    cache.lookup((t, 1))
    cache.insert((t, 1), cache.layout(t))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.misses == 1


def test_unused_cache_hit_rate_zero():
    assert LayoutCache().stats.hit_rate == 0.0
