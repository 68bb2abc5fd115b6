"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

The registry half of :mod:`repro.obs` — a small, dependency-free metric
system in the spirit of the Prometheus client libraries:

* a :class:`MetricsRegistry` owns named *families*; each family has a
  kind (counter / gauge / histogram), a help string, and label names;
* ``family.labels(link="ib0")`` returns the labeled *child* instrument
  (created on first use), so hot paths update one dict entry per call;
* :meth:`MetricsRegistry.snapshot` freezes every series into a
  :class:`MetricsSnapshot`, which serializes to JSON
  (:meth:`~MetricsSnapshot.as_dict`) and renders the Prometheus text
  exposition format (:meth:`~MetricsSnapshot.to_prometheus_text`), the
  one writer of that format.

Everything here is plain arithmetic on host objects — no simulator
interaction whatsoever — which is what makes the observability layer
timing-neutral by construction (see DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: seconds-scale buckets suited to simulated kernel/queue latencies
#: (1 us .. 100 ms, roughly logarithmic)
DEFAULT_LATENCY_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 1e-2, 1e-1,
)
#: power-of-two buckets for batch sizes / counts
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labelnames: Sequence[str], labels: Mapping[str, object]) -> LabelsKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class Counter:
    """Monotonically increasing value (events, bytes, retries)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Instantaneous value that can go both ways (ring occupancy)."""

    __slots__ = ("value", "peak")
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0
        #: high-water mark since creation (not part of the Prometheus
        #: exposition; read through snapshots / artifacts)
        self.peak: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets, +Inf implicit)."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float]):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = ordered
        #: per-bucket (non-cumulative) counts; last entry is the +Inf bucket
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of observed values (0 when empty)."""
        return self.sum / self.count if self.count else 0.0


@dataclass
class MetricFamily:
    """One named metric with labeled children."""

    name: str
    kind: str
    help: str = ""
    labelnames: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None
    _children: Dict[LabelsKey, Any] = field(default_factory=dict)

    def labels(self, **labels: object):
        """The child instrument for one label combination."""
        key = _labels_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        if self.kind == "histogram":
            return Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS)
        raise ValueError(f"unknown metric kind {self.kind!r}")

    def series(self) -> Dict[LabelsKey, Any]:
        """All live children keyed by their label tuples."""
        return dict(self._children)


class MetricsRegistry:
    """Owner of every metric family of one observation scope."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- declaration -------------------------------------------------------
    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            return family
        family = MetricFamily(
            name=name,
            kind=kind,
            help=help,
            labelnames=tuple(labelnames),
            buckets=tuple(buckets) if buckets else None,
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._declare(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._declare(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        """Declare (or fetch) a fixed-bucket histogram family."""
        return self._declare(name, "histogram", help, labelnames, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        """Family by name, or ``None``."""
        return self._families.get(name)

    def families(self) -> Iterable[MetricFamily]:
        """All families in declaration order."""
        return self._families.values()

    # -- export ------------------------------------------------------------
    def snapshot(self) -> "MetricsSnapshot":
        """Freeze the current value of every series."""
        data: Dict[str, dict] = {}
        for family in self._families.values():
            series: Dict[LabelsKey, Any] = {}
            for key, child in family.series().items():
                if family.kind == "histogram":
                    series[key] = {
                        "bounds": list(child.bounds),
                        "buckets": list(child.bucket_counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                elif family.kind == "gauge":
                    series[key] = {"value": child.value, "peak": child.peak}
                else:
                    series[key] = child.value
            data[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": family.labelnames,
                "series": series,
            }
        return MetricsSnapshot(data)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: LabelsKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


class MetricsSnapshot:
    """Immutable point-in-time copy of a registry's series.

    The canonical machine-readable form: benchmark artifacts embed
    :meth:`as_dict`, and :meth:`to_prometheus_text` renders the scrape
    format.
    """

    def __init__(self, data: Dict[str, dict]):
        self._data = data

    # -- access ------------------------------------------------------------
    def names(self) -> List[str]:
        """Metric family names in declaration order."""
        return list(self._data)

    def family(self, name: str) -> Optional[dict]:
        """Raw family record (kind/help/labelnames/series) or ``None``."""
        return self._data.get(name)

    def value(self, name: str, **labels: object) -> Any:
        """One series' value (scalar, gauge dict, or histogram dict)."""
        family = self._data.get(name)
        if family is None:
            raise KeyError(name)
        key = _labels_key(family["labelnames"], labels)
        return family["series"][key]

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label sets.

        Missing families count as zero — recovery counters simply do
        not exist until the first recovery action, and histograms
        contribute their observation count.
        """
        family = self._data.get(name)
        if family is None:
            return 0.0
        total = 0.0
        for value in family["series"].values():
            if family["kind"] == "histogram":
                total += value["count"]
            elif family["kind"] == "gauge":
                total += value["value"]
            else:
                total += value
        return total

    # -- serialization -----------------------------------------------------
    def as_dict(self) -> Dict[str, dict]:
        """JSON-serializable form (labels become string dicts)."""
        out: Dict[str, dict] = {}
        for name, family in self._data.items():
            out[name] = {
                "kind": family["kind"],
                "help": family["help"],
                "series": [
                    {"labels": dict(key), "value": value}
                    for key, value in family["series"].items()
                ],
            }
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, dict]) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`as_dict` output."""
        rebuilt: Dict[str, dict] = {}
        for name, family in data.items():
            series: Dict[LabelsKey, Any] = {}
            labelnames: Tuple[str, ...] = ()
            for entry in family["series"]:
                labels = entry["labels"]
                labelnames = tuple(labels)
                series[tuple(labels.items())] = entry["value"]
            rebuilt[name] = {
                "kind": family["kind"],
                "help": family.get("help", ""),
                "labelnames": labelnames,
                "series": series,
            }
        return cls(rebuilt)

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (escaped, histogram-aware)."""
        lines: List[str] = []
        for name, family in self._data.items():
            if family["help"]:
                lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for key, value in family["series"].items():
                if family["kind"] == "histogram":
                    cumulative = 0
                    for bound, count in zip(
                        list(value["bounds"]) + [float("inf")], value["buckets"]
                    ):
                        cumulative += count
                        bucket_key = key + (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_key)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} {_format_value(value['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} {value['count']}"
                    )
                elif family["kind"] == "gauge":
                    lines.append(
                        f"{name}{_format_labels(key)} {_format_value(value['value'])}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(key)} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"
