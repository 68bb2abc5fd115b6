"""Shared helpers for the per-figure benchmark suite.

Every file in this directory regenerates one table or figure of the
paper's evaluation (Section V).  Conventions:

* The eight ``test_fig*`` drivers run their grids through the sharded
  sweep engine (:func:`repro.bench.run_figure`) via the ``sweep_run``
  fixture — the same plane ``repro sweep --figure`` executes — so a
  driver, the CLI, and CI always measure identical shards.  The
  ``--sweep-jobs`` / ``--sweep-cache`` options (env:
  ``REPRO_SWEEP_JOBS`` / ``REPRO_SWEEP_CACHE``) fan shards across a
  worker pool and reuse the content-addressed result cache.
* Simulated latencies come from :func:`repro.bench.run_bulk_exchange`
  on configs derived from :data:`repro.bench.figures.FIG_BASE` — two
  iterations past one warm-up, data plane disabled (byte-exactness is
  covered by ``tests/``; benchmarks only need the clock).
* Each benchmark prints its paper-style table through the capture-
  disabled console *and* writes it to ``<results-dir>/<name>.txt``
  so EXPERIMENTS.md can reference stable artifacts.
* ``benchmark.pedantic`` wraps one representative configuration so
  pytest-benchmark records harness wall time; the *scientific* numbers
  are the simulated microseconds inside the tables.
* Shape assertions (who wins, where crossovers fall) make each figure a
  regression test of the reproduction, not just a printout.
* The ``artifact`` fixture writes a machine-readable
  ``BENCH_<name>.json`` (schema :data:`repro.obs.SCHEMA`) next to the
  ``.txt`` table — the perf trajectory the ``repro regress`` gate and
  CI diff across commits.  ``--bench-out`` (env: ``REPRO_BENCH_OUT``)
  redirects both away from the committed ``benchmarks/results/`` so CI
  can compare a fresh run against the committed baseline without
  stashing files.
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable, Dict

import pytest

from repro.bench import FigureRun

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    group = parser.getgroup("repro sweep")
    group.addoption(
        "--sweep-jobs",
        default=os.environ.get("REPRO_SWEEP_JOBS", "1"),
        help="worker processes for the figure sweeps (env: REPRO_SWEEP_JOBS)",
    )
    group.addoption(
        "--sweep-cache",
        default=os.environ.get("REPRO_SWEEP_CACHE", ""),
        help=(
            "content-addressed shard cache directory; empty disables "
            "caching (env: REPRO_SWEEP_CACHE)"
        ),
    )
    group.addoption(
        "--bench-out",
        default=os.environ.get("REPRO_BENCH_OUT", ""),
        help=(
            "directory for BENCH_*.json / *.txt outputs; defaults to the "
            "committed benchmarks/results/ (env: REPRO_BENCH_OUT)"
        ),
    )


@pytest.fixture(scope="session")
def results_dir(request) -> pathlib.Path:
    """Output directory for artifacts and report tables."""
    out = request.config.getoption("--bench-out")
    path = pathlib.Path(out) if out else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def sweep_run(request) -> Callable[[str], FigureRun]:
    """``sweep_run("fig09")`` → executed :class:`FigureRun` (memoized).

    Honors ``--sweep-jobs`` / ``--sweep-cache`` so CI can fan the
    figure grids across workers and reuse shard results between the
    perf gate and the benchmark suite.
    """
    from repro.bench import ResultCache, run_figure

    jobs = int(request.config.getoption("--sweep-jobs"))
    cache_dir = request.config.getoption("--sweep-cache")
    cache = ResultCache(cache_dir) if cache_dir else None
    runs: Dict[str, FigureRun] = {}

    def get(figure: str) -> FigureRun:
        if figure not in runs:
            runs[figure] = run_figure(figure, jobs=jobs, cache=cache)
        return runs[figure]

    return get


def best_speedup(results, scheme: str, over: str) -> float:
    """Max speedup of ``scheme`` over ``over`` across the sweep."""
    return max(
        results[over][d].mean_latency / results[scheme][d].mean_latency
        for d in results[scheme]
    )


@pytest.fixture()
def artifact(results_dir):
    """Write a versioned ``BENCH_<name>.json`` under the results dir.

    Accepts either an executed :class:`FigureRun` (the figure drivers)
    or the legacy ``(name, entries)`` / ``(name, data=...)`` form used
    by the non-figure benchmarks.
    """
    from repro.obs import artifact_path, experiment_artifact, write_bench_artifact

    def emit(run_or_name, entries=(), *, data=None, meta=None) -> str:
        if isinstance(run_or_name, FigureRun):
            name = run_or_name.experiment
            doc = run_or_name.artifact_doc()
        else:
            name = run_or_name
            doc = experiment_artifact(name, entries, data=data, meta=meta)
        return write_bench_artifact(artifact_path(str(results_dir), name), doc)

    return emit


@pytest.fixture()
def report(capsys, results_dir):
    """Print a report through capture and persist it under the results dir."""

    def emit(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return emit
