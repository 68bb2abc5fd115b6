"""Benchmark harness: experiment runner, sweep engine, report formatting."""

from .figures import FIGURES, FigurePlan, FigureRun, run_figure
from .report import (
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
    speedup_matrix,
)
from .runner import ExperimentResult, RecoveryReport, run_bulk_exchange
from .sweep import (
    ExperimentSpec,
    ResultCache,
    SweepError,
    SweepRun,
    SweepStats,
    code_salt,
    run_sweep,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "FIGURES",
    "FigurePlan",
    "FigureRun",
    "RecoveryReport",
    "ResultCache",
    "SweepError",
    "SweepRun",
    "SweepStats",
    "code_salt",
    "run_bulk_exchange",
    "run_figure",
    "run_sweep",
    "format_latency_table",
    "format_breakdown_table",
    "format_speedup_table",
    "speedup_matrix",
]
