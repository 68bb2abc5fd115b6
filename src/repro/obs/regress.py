"""Perf-regression gate: compare a run against a stored baseline.

``repro regress --baseline benchmarks/results/BENCH_fig08.json``
re-runs every entry of the baseline artifact (the simulator is
deterministic, so an unchanged tree reproduces the numbers exactly)
and fails — nonzero exit code — when any watched metric regresses past
its tolerance.  ``--candidate`` skips the re-run and compares two
artifact files instead, which is what CI does after the benchmark
suite has refreshed ``benchmarks/results/``.

A metric *regresses* when ``candidate > baseline × (1 + tolerance)``;
improvements are reported but never fail the gate.  The ``work.*``
counts (calendar events, kernel launches, link transfers and bytes)
are deterministic, so they are compared exactly, whatever the
tolerance: one extra event anywhere fails the gate.  A table-only
artifact (Fig. 1) has its ``data`` cells checked like latencies.

The gate fails closed: an entry, or a metric it holds in the
baseline, that is missing (or NaN) in the candidate fails it, and so
do a watched metric that no baseline entry holds and a comparison
that checks nothing — a silently dropped measurement is how perf
coverage rots.

This module imports the benchmark runner, so import it directly
(``from repro.obs import regress``) rather than from the package
root — ``repro.obs``'s core stays importable before the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .artifact import experiment_artifact, result_entry

__all__ = [
    "DEFAULT_TOLERANCE",
    "MetricCheck",
    "RegressionReport",
    "compare_artifacts",
    "rerun_entry",
    "rerun_artifact",
]

DEFAULT_TOLERANCE = 0.10
#: exact work counts of each exchange entry (the ``work`` block)
WORK_METRICS = (
    "work.events",
    "work.kernel_launches",
    "work.link_transfers",
    "work.link_bytes",
)
#: artifact metrics the gate watches by default (lower is better,
#: regression = candidate above baseline by > tolerance)
DEFAULT_METRICS = ("mean_latency",) + WORK_METRICS
#: per-metric tolerances that apply unless the caller overrides them
EXACT_TOLERANCES = {name: 0.0 for name in WORK_METRICS}


@dataclass(frozen=True)
class MetricCheck:
    """One (entry, metric) comparison."""

    key: str
    metric: str
    baseline: float
    candidate: float
    tolerance: float

    @property
    def ratio(self) -> float:
        """candidate / baseline (inf when the baseline is zero)."""
        if self.baseline == 0:
            return float("inf") if self.candidate > 0 else 1.0
        return self.candidate / self.baseline

    @property
    def regressed(self) -> bool:
        """True when the candidate is worse than tolerance allows."""
        return self.candidate > self.baseline * (1.0 + self.tolerance)

    @property
    def improved(self) -> bool:
        """True when the candidate beat the baseline by > tolerance."""
        return self.candidate < self.baseline * (1.0 - self.tolerance)


@dataclass
class RegressionReport:
    """Outcome of one baseline/candidate comparison."""

    experiment: str
    checks: List[MetricCheck] = field(default_factory=list)
    #: baseline keys absent from the candidate (each fails the gate)
    missing: List[str] = field(default_factory=list)
    #: ``(key, metric)`` held by the baseline entry but missing or NaN
    #: in the candidate's (each fails the gate)
    unreadable: List[Tuple[str, str]] = field(default_factory=list)
    #: watched metrics that no baseline entry holds (each fails the gate)
    unwatched: List[str] = field(default_factory=list)
    #: candidate keys absent from the baseline (informational)
    extra: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricCheck]:
        """Checks that exceeded their tolerance."""
        return [c for c in self.checks if c.regressed]

    @property
    def improvements(self) -> List[MetricCheck]:
        """Checks that beat the baseline by more than the tolerance."""
        return [c for c in self.checks if c.improved]

    @property
    def ok(self) -> bool:
        """Gate verdict: something was checked, and nothing regressed
        or went missing."""
        return bool(self.checks) and not (
            self.regressions or self.missing or self.unreadable or self.unwatched
        )

    def describe(self) -> str:
        """Multi-line report for the CLI / CI log."""
        lines = [
            f"regression gate — {self.experiment}: "
            f"{len(self.checks)} checks, {len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements, {len(self.missing)} missing"
        ]
        width = max([12] + [len(c.key) for c in self.checks]) + 2
        for check in self.checks:
            if check.regressed:
                status = "REGRESSED"
            elif check.improved:
                status = "improved"
            else:
                status = "ok"
            if check.metric.startswith("work."):
                values = f"{int(check.baseline):>12d} ->{int(check.candidate):>12d}"
            else:
                values = (
                    f"{check.baseline * 1e6:>10.2f}us ->"
                    f"{check.candidate * 1e6:>10.2f}us"
                )
            lines.append(
                f"  {check.key:<{width}}{check.metric:<22}{values}"
                f"  {check.ratio:>6.3f}x  (tol {check.tolerance:.0%})  {status}"
            )
        for key in self.missing:
            lines.append(f"  {key:<{width}}MISSING from candidate — gate fails")
        for key, metric in self.unreadable:
            lines.append(
                f"  {key:<{width}}{metric:<22}MISSING or NaN in candidate — gate fails"
            )
        for metric in self.unwatched:
            lines.append(f"  {metric} is in no baseline entry — gate fails")
        if not self.checks:
            lines.append("  nothing was checked — gate fails")
        for key in self.extra:
            lines.append(f"  {key:<{width}}new in candidate (not gated)")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def compare_artifacts(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    metrics: Sequence[str] = DEFAULT_METRICS,
    tolerances: Optional[Mapping[str, float]] = None,
) -> RegressionReport:
    """Check every baseline entry's metrics against the candidate.

    ``tolerances`` overrides the global ``tolerance`` per metric name
    (e.g. ``{"min_latency": 0.05}``), on top of
    :data:`EXACT_TOLERANCES`.  Every numeric cell of a ``data`` table
    is checked too, under the global ``tolerance``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    per_metric = {**EXACT_TOLERANCES, **(tolerances or {})}
    report = RegressionReport(experiment=str(baseline.get("experiment", "?")))

    def check(
        key: str, base: Mapping[str, Any], cand: Mapping[str, Any], names: Sequence[str]
    ) -> None:
        for metric in names:
            base_value = _metric_value(base, metric)
            if base_value is None:
                continue
            cand_value = _metric_value(cand, metric)
            if cand_value is None:
                report.unreadable.append((key, metric))
                continue
            report.checks.append(
                MetricCheck(
                    key=key,
                    metric=metric,
                    baseline=base_value,
                    candidate=cand_value,
                    tolerance=per_metric.get(metric, tolerance),
                )
            )

    base_entries = {e["key"]: e for e in baseline.get("entries", [])}
    cand_entries = {e["key"]: e for e in candidate.get("entries", [])}
    report.extra = sorted(set(cand_entries) - set(base_entries))
    for key, base in base_entries.items():
        cand = cand_entries.get(key)
        if cand is None:
            report.missing.append(key)
        else:
            check(key, base, cand, metrics)
    if base_entries:  # a table-only artifact has no entries to watch
        report.unwatched = [
            m for m in metrics
            if all(_metric_value(e, m) is None for e in base_entries.values())
        ]
    cand_rows = _table_rows(candidate)
    for key, row in _table_rows(baseline).items():
        check(key, row, cand_rows.get(key, {}), sorted(row))
    report.missing.sort()
    return report


def _metric_value(entry: Mapping[str, Any], metric: str) -> Optional[float]:
    """Resolve a watched metric inside an entry.

    Plain names read top-level scalars (``mean_latency``); a
    ``block.name`` path reads one field of a block
    (``breakdown.pack``, ``work.events``).
    """
    block, _, name = metric.rpartition(".")
    container = entry.get(block) if block else entry
    value = container.get(name) if isinstance(container, Mapping) else None
    if isinstance(value, (int, float)) and value == value:  # excludes NaN
        return float(value)
    return None


def _table_rows(artifact: Mapping[str, Any]) -> Dict[str, Mapping[str, Any]]:
    """The rows of an artifact's ``data`` table, keyed ``data/<row>``."""
    return {
        f"data/{row}": cells
        for row, cells in artifact.get("data", {}).items()
        if isinstance(cells, Mapping)
    }


# -- re-running baseline entries ------------------------------------------------


def rerun_entry(entry: Mapping[str, Any], obs=None):
    """Re-run one artifact entry; returns a fresh ``ExperimentResult``.

    Reconstructs the experiment through the sweep engine's picklable
    :class:`~repro.bench.sweep.ExperimentSpec` — registry schemes by
    name, fusion variants through ``config.threshold_bytes`` /
    ``config.capacity`` / ``config.name`` — so the gate and the
    parallel sweep plane rebuild measurements identically.
    """
    from ..bench.sweep import ExperimentSpec

    try:
        spec = ExperimentSpec.from_entry("rerun", entry)
        return spec.run_result(obs=obs)
    except KeyError as exc:
        raise KeyError(
            f"entry {entry.get('key')!r}: cannot re-run ({exc})"
        ) from exc


def rerun_artifact(
    baseline: Mapping[str, Any], *, meta: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Re-run every entry of ``baseline``; returns a candidate artifact."""
    entries = []
    for entry in baseline.get("entries", []):
        result = rerun_entry(entry)
        entries.append(
            result_entry(
                result,
                key=entry["key"],
                config=entry.get("config"),
                run=entry.get("run"),
            )
        )
    experiment = str(baseline.get("experiment", "?"))
    data = None
    if "data" in baseline:
        from ..bench.figures import TABLE_BUILDERS

        if experiment not in TABLE_BUILDERS:
            raise KeyError(f"{experiment!r}: no table builder re-runs its data")
        data = TABLE_BUILDERS[experiment]()
    return experiment_artifact(
        experiment,
        entries,
        data=data,
        meta=dict(meta or {"rerun_of": baseline.get("meta", {})}),
    )
