"""repro.obs — unified telemetry, metrics, and perf-regression subsystem.

One observability layer for the whole reproduction:

* :mod:`repro.obs.metrics`  — counters / gauges / fixed-bucket
  histograms with labeled children, snapshots, Prometheus text;
* :mod:`repro.obs.recorder` — the one span/event stream (cost buckets,
  request lifecycles, RTS handshakes and retransmissions, link
  transfers) exportable as a Chrome ``trace.json``;
* :mod:`repro.obs.observer` — the ``sim.obs`` facade; a
  :class:`NullObserver` keeps disabled telemetry a strict no-op on the
  simulated timeline;
* :mod:`repro.obs.artifact` — the versioned ``BENCH_<experiment>.json``
  benchmark-artifact schema;
* :mod:`repro.obs.regress`  — the perf-regression gate behind
  ``python -m repro regress``.

``regress`` is loaded lazily (PEP 562): it imports the benchmark
runner, while everything else here must stay importable *before* the
simulator packages (``repro.sim.engine`` attaches the default
:data:`NULL_OBSERVER` at simulator construction).
"""

from .artifact import (
    SCHEMA,
    SCHEMA_VERSION,
    artifact_path,
    experiment_artifact,
    load_bench_artifact,
    write_bench_artifact,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    MetricsSnapshot,
)
from .observer import METRIC_CATALOG, NULL_OBSERVER, NullObserver, Observer
from .recorder import NullRecorder, ObsEvent, Recorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsEvent",
    "Recorder",
    "NullRecorder",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "METRIC_CATALOG",
    "SCHEMA",
    "SCHEMA_VERSION",
    "artifact_path",
    "experiment_artifact",
    "load_bench_artifact",
    "write_bench_artifact",
    "regress",
]


def __getattr__(name):
    if name == "regress":
        import importlib

        return importlib.import_module(".regress", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
