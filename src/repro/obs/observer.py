"""The telemetry facade.

Instrumented components (scheduler, request list, links, wire
protocols) record histograms, the ring gauge, spans and instants
through one object: ``sim.obs``.  By default that is
:data:`NULL_OBSERVER`, whose every method is a constant-time no-op —
disabled telemetry is a strict no-op on the simulated timeline
(DESIGN.md §6).  Attaching a real :class:`Observer`
(``run_bulk_exchange(..., obs=Observer())`` or the CLI ``--metrics`` /
``--trace-out`` flags) turns those call sites into live updates and
recorded events, still without consuming a single simulated
nanosecond: observation never touches the event calendar.

Counters are not updated live: each model counter is a plain field on
the object that owns it (a link, the runtime's control plane, a
scheduler, a scheme), and ``run_bulk_exchange`` publishes them into the
registry once, at the end of the run.

The metric catalog (names, kinds, help strings, buckets) is declared
here in :data:`METRIC_CATALOG` so that every Observer exposes the same
series and ``docs/observability.md`` has one authoritative source.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
)
from .recorder import NullRecorder, Recorder

__all__ = ["METRIC_CATALOG", "Observer", "NullObserver", "NULL_OBSERVER"]

#: name -> (kind, help, labelnames, buckets-or-None).  The single
#: authoritative list of every series the instrumentation emits.
METRIC_CATALOG: Dict[str, Tuple[str, str, Tuple[str, ...], Optional[Tuple[float, ...]]]] = {
    # -- fusion framework --------------------------------------------------
    "fusion_enqueued_total": (
        "counter", "Requests accepted into the circular request list", (), None),
    "fusion_launches_total": (
        "counter", "Fused kernel launches by trigger", ("reason",), None),
    "fusion_fused_requests_total": (
        "counter", "Requests carried by committed fused kernels", (), None),
    "fusion_batch_size": (
        "histogram", "Requests per committed fused kernel", (),
        DEFAULT_SIZE_BUCKETS),
    "fusion_queue_latency_seconds": (
        "histogram", "Enqueue-to-launch wait per fused request", (),
        DEFAULT_LATENCY_BUCKETS),
    "fusion_ring_occupancy": (
        "gauge", "Occupied circular-request-list slots", (), None),
    "fusion_ring_rejections_total": (
        "counter", "Enqueues rejected by a full request list", (), None),
    # -- scheduler recovery ladder (only nonzero under fault injection) ----
    "sched_launch_failures_total": (
        "counter", "Fused-kernel launches that failed at the driver", (), None),
    "sched_relaunches_total": (
        "counter", "Ladder rung 1: same-batch relaunches", (), None),
    "sched_batch_splits_total": (
        "counter", "Ladder rung 2: batch halvings", (), None),
    "sched_sync_fallbacks_total": (
        "counter", "Ladder rung 3: degraded launch-and-wait requests", (), None),
    "sched_deadline_hits_total": (
        "counter", "Requests caught incomplete past their deadline", (), None),
    "sched_deadline_relaunches_total": (
        "counter", "Solo relaunches issued by deadline watchdogs", (), None),
    "sched_ring_fallbacks_total": (
        "counter", "Enqueues pushed onto the negative-UID fallback path", (), None),
    # -- wire protocols ----------------------------------------------------
    "proto_rts_sent_total": (
        "counter", "RTS control packets sent (first transmissions)", (), None),
    "rts_retransmits_total": (
        "counter", "RTS packets re-sent by sender control watchdogs", (), None),
    "cts_resends_total": (
        "counter", "CTS offers repeated after a duplicate RTS", (), None),
    # -- links -------------------------------------------------------------
    "link_transfers_total": (
        "counter", "Completed payload transfers per link", ("link",), None),
    "link_bytes_total": (
        "counter", "Payload bytes carried per link", ("link",), None),
    "link_retransmits_total": (
        "counter", "Transfers retransmitted after injected failures", ("link",), None),
    "link_fault_delay_seconds_total": (
        "counter", "Simulated seconds lost to link faults", ("link",), None),
    # -- schemes -----------------------------------------------------------
    "kernel_launches_total": (
        "counter", "Per-operation kernel-launch driver calls", ("scheme",), None),
    "scheme_launch_retries_total": (
        "counter", "Per-operation launches retried after injected failures",
        ("scheme",), None),
}


class Observer:
    """Live telemetry: a metric registry plus an event recorder.

    ``const_labels`` are appended to every metric update — the CLI uses
    this to tag each scheme's run, which keeps merged Prometheus output
    from colliding.  A label a family already declares is not appended
    twice; the update's own value for it wins.
    """

    enabled = True

    def __init__(
        self,
        *,
        metrics: Optional[MetricsRegistry] = None,
        recorder: Optional[Recorder] = None,
        const_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder if recorder is not None else Recorder()
        self.const_labels = dict(const_labels or {})
        for name, (kind, help_, labelnames, buckets) in METRIC_CATALOG.items():
            names = tuple(labelnames) + tuple(
                k for k in self.const_labels if k not in labelnames
            )
            if kind == "counter":
                self.metrics.counter(name, help_, names)
            elif kind == "gauge":
                self.metrics.gauge(name, help_, names)
            else:
                self.metrics.histogram(name, help_, names, buckets)

    # -- metric updates ----------------------------------------------------
    def _series(self, name: str, labels: Mapping[str, object]):
        family = self.metrics.get(name)
        if family is None:
            raise KeyError(f"metric {name!r} is not in METRIC_CATALOG")
        return family.labels(**{**self.const_labels, **labels})

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment a counter series."""
        self._series(name, labels).inc(amount)

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series."""
        self._series(name, labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Observe a histogram sample."""
        self._series(name, labels).observe(value)

    # -- event recording ---------------------------------------------------
    def span(
        self, category: str, name: str, start: float, end: float,
        track: str = "", **args: object,
    ) -> None:
        """Record a completed interval on the event stream."""
        self.recorder.span(category, name, start, end, track=track, **args)

    def instant(
        self, category: str, name: str, ts: float, track: str = "", **args: object
    ) -> None:
        """Record a point event on the event stream."""
        self.recorder.instant(category, name, ts, track=track, **args)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry (shorthand for ``obs.metrics.snapshot()``)."""
        return self.metrics.snapshot()


class NullObserver(Observer):
    """Disabled observer: every call is a constant-time no-op.

    The default ``sim.obs`` on every simulator.  Its registry and
    recorder stay permanently empty, and none of the update methods
    allocate, so instrumented hot paths cost one attribute lookup and
    one no-op call when telemetry is off.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.recorder = NullRecorder()
        self.const_labels: Dict[str, str] = {}

    def count(self, name, amount=1.0, **labels) -> None:
        return None

    def gauge_set(self, name, value, **labels) -> None:
        return None

    def observe(self, name, value, **labels) -> None:
        return None

    def span(self, category, name, start, end, track="", **args) -> None:
        return None

    def instant(self, category, name, ts, track="", **args) -> None:
        return None


#: process-wide disabled observer shared by every simulator by default
NULL_OBSERVER = NullObserver()
