"""repro.obs.metrics — registry, labels, snapshots, Prometheus text."""

import json

import pytest

from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.obs.metrics import Counter, Gauge, Histogram


# -- primitives -------------------------------------------------------------


def test_counter_monotonic():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_peak():
    g = Gauge()
    g.set(3)
    g.set(5)
    g.set(1)
    assert g.value == 1
    assert g.peak == 5


def test_histogram_buckets_and_moments():
    h = Histogram((1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 100.0):
        h.observe(v)
    # per-bucket (non-cumulative): <=1, <=2, <=4, +Inf
    assert h.bucket_counts == [1, 1, 1, 1]
    assert h.count == 4
    assert h.sum == pytest.approx(105.0)
    assert h.mean == pytest.approx(105.0 / 4)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram((2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(())


# -- registry and labels ----------------------------------------------------


def test_registry_declare_or_fetch_and_kind_clash():
    reg = MetricsRegistry()
    fam = reg.counter("requests_total", "help text")
    assert reg.counter("requests_total") is fam
    with pytest.raises(ValueError):
        reg.gauge("requests_total")


def test_labeled_children_are_distinct_series():
    reg = MetricsRegistry()
    fam = reg.counter("transfers_total", labelnames=("link",))
    fam.labels(link="nvlink").inc(3)
    fam.labels(link="ib").inc(4)
    assert fam.labels(link="nvlink").value == 3
    assert fam.labels(link="ib").value == 4
    with pytest.raises(ValueError):
        fam.labels(wrong="x")


# -- snapshot / diff --------------------------------------------------------


def _populated():
    reg = MetricsRegistry()
    reg.counter("ops_total", labelnames=("kind",)).labels(kind="pack").inc(5)
    reg.counter("ops_total", labelnames=("kind",)).labels(kind="unpack").inc(2)
    reg.gauge("occupancy").labels().set(7)
    h = reg.histogram("latency_seconds", buckets=(1e-6, 1e-3))
    h.labels().observe(2e-6)
    h.labels().observe(0.5)
    return reg


def test_snapshot_value_and_total():
    snap = _populated().snapshot()
    assert snap.value("ops_total", kind="pack") == 5
    assert snap.total("ops_total") == 7
    assert snap.value("occupancy") == {"value": 7, "peak": 7}
    # histograms contribute their observation count to total()
    assert snap.total("latency_seconds") == 2
    assert snap.total("never_registered") == 0.0


def test_snapshot_round_trips_through_json():
    snap = _populated().snapshot()
    clone = MetricsSnapshot.from_dict(json.loads(json.dumps(snap.as_dict())))
    assert clone.value("ops_total", kind="pack") == 5
    assert clone.total("latency_seconds") == 2
    assert clone.to_prometheus_text() == snap.to_prometheus_text()


# -- Prometheus exposition --------------------------------------------------


def test_prometheus_text_families_and_series():
    text = _populated().snapshot().to_prometheus_text()
    assert "# TYPE ops_total counter" in text
    assert 'ops_total{kind="pack"} 5' in text
    assert "# TYPE occupancy gauge" in text
    assert "# TYPE latency_seconds histogram" in text
    # cumulative buckets end with the +Inf catch-all
    assert 'latency_seconds_bucket{le="+Inf"} 2' in text
    assert "latency_seconds_count 2" in text


def test_prometheus_label_value_escaping():
    reg = MetricsRegistry()
    fam = reg.counter("weird_total", labelnames=("path",))
    fam.labels(path='a\\b"c\nd').inc()
    text = reg.snapshot().to_prometheus_text()
    assert 'weird_total{path="a\\\\b\\"c\\nd"} 1' in text


def test_prometheus_implicit_inf_bucket():
    reg = MetricsRegistry()
    reg.histogram("h", buckets=(1.0, 2.0)).labels().observe(0.5)
    text = reg.snapshot().to_prometheus_text()
    # exactly one implicit +Inf catch-all per series, cumulative form
    assert text.count('le="+Inf"') == 1
    assert 'h_bucket{le="+Inf"} 1' in text
