"""Wall-clock microbenchmarks of the simulation engine.

Every other benchmark in this repo measures *virtual* time; this module
measures the host — how fast the DES kernel drains its calendar, what a
full figure sweep costs in real seconds, and how many bytes the hot
path allocates.  The numbers feed the committed
``BENCH_wallclock.json`` artifact that the CI wall-clock smoke job
gates on (generous tolerance: runners are noisy, engines regressing 2x
are not).

Suite layout (the ``data`` section of the artifact):

* ``engine`` — pure-kernel microbenchmarks (events/sec): a
  ``yield sim.timeout(dt)`` chain (the dominant pattern of every
  simulated transfer), a two-process :class:`~repro.sim.resources.Store`
  ping-pong (the message-queue pattern), and an ``AllOf`` fan-in (the
  ``waitall`` pattern).
* ``figures`` — end-to-end wall seconds for selected figure sweeps run
  serially and uncached through :func:`repro.bench.figures.run_figure`.
* ``allocations`` — ``tracemalloc``-measured bytes allocated per event
  on the timeout-chain hot path.

Use ``repro wallclock`` to (re)generate the artifact and
``repro wallclock --check`` to gate against a committed baseline;
``repro profile`` wraps ``cProfile`` around the same workloads.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Dict, List, Optional, Sequence

from ..obs.artifact import experiment_artifact
from ..sim.engine import Simulator
from ..sim.resources import Store

__all__ = [
    "EXPERIMENT",
    "DEFAULT_FIGURES",
    "bench_timeout_chain",
    "bench_store_pingpong",
    "bench_allof_fanin",
    "bench_engine",
    "bench_figures",
    "bench_allocations",
    "wallclock_artifact",
    "compare_wallclock",
]

#: artifact experiment name -> ``BENCH_wallclock.json``
EXPERIMENT = "wallclock"

#: figures timed by default: one cheap smoke figure plus the two
#: large-grid sweeps the tentpole targeted
DEFAULT_FIGURES: Sequence[str] = ("fig09", "fig12", "fig13")


def _timed(events: int, wall: float) -> Dict[str, float]:
    return {
        "events": float(events),
        "wall_seconds": wall,
        "events_per_second": events / wall if wall > 0 else 0.0,
    }


def bench_timeout_chain(n: int = 200_000) -> Dict[str, float]:
    """The dominant pattern: one process yielding ``n`` timeouts."""
    sim = Simulator()

    def proc():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1e-6)

    sim.process(proc())
    start = time.perf_counter()
    sim.run()
    return _timed(sim.events_processed, time.perf_counter() - start)


def bench_store_pingpong(n: int = 100_000) -> Dict[str, float]:
    """Two processes exchanging ``n`` messages through two stores."""
    sim = Simulator()
    a, b = Store(sim), Store(sim)

    def ping():
        for _ in range(n):
            a.put(1)
            yield b.get()

    def pong():
        for _ in range(n):
            yield a.get()
            b.put(1)

    sim.process(ping())
    sim.process(pong())
    start = time.perf_counter()
    sim.run()
    return _timed(sim.events_processed, time.perf_counter() - start)


def bench_allof_fanin(rounds: int = 2_000, width: int = 50) -> Dict[str, float]:
    """``waitall`` pattern: AllOf over ``width`` timeouts, ``rounds`` times."""
    sim = Simulator()

    def proc():
        for _ in range(rounds):
            yield sim.all_of([sim.timeout(1e-6) for _ in range(width)])

    sim.process(proc())
    start = time.perf_counter()
    sim.run()
    return _timed(sim.events_processed, time.perf_counter() - start)


def bench_engine(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    """Run the engine microbenchmark suite (``scale`` shrinks CI runs)."""
    return {
        "timeout_chain": bench_timeout_chain(max(1_000, int(200_000 * scale))),
        "store_pingpong": bench_store_pingpong(max(1_000, int(100_000 * scale))),
        "allof_fanin": bench_allof_fanin(max(100, int(2_000 * scale))),
    }


def bench_figures(figures: Sequence[str] = DEFAULT_FIGURES) -> Dict[str, Dict[str, float]]:
    """Serial, uncached wall time of each figure's full sweep."""
    from .figures import run_figure  # deferred: imports the whole model stack

    out: Dict[str, Dict[str, float]] = {}
    for figure in figures:
        start = time.perf_counter()
        run = run_figure(figure, jobs=1, cache=None)
        wall = time.perf_counter() - start
        out[figure] = {
            "wall_seconds": wall,
            "shards": float(run.stats.shards),
        }
    return out


def bench_allocations(n: int = 50_000) -> Dict[str, float]:
    """Bytes allocated per event on the timeout-chain hot path.

    ``tracemalloc`` slows execution an order of magnitude, so this is a
    memory measurement only — throughput numbers come from
    :func:`bench_timeout_chain`.
    """
    sim = Simulator()

    def proc():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1e-6)

    sim.process(proc())
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sim.run()
    after, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    events = sim.events_processed or 1
    return {
        "events": float(events),
        "net_bytes": float(after - before),
        "peak_bytes": float(peak),
        "peak_bytes_per_event": peak / events,
    }


def wallclock_artifact(
    *,
    scale: float = 1.0,
    figures: Sequence[str] = DEFAULT_FIGURES,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned ``BENCH_wallclock.json`` document."""
    data: Dict[str, Any] = {
        "engine": bench_engine(scale=scale),
        "figures": bench_figures(figures) if figures else {},
        "allocations": bench_allocations(max(1_000, int(50_000 * scale))),
    }
    doc_meta: Dict[str, Any] = {"scale": scale}
    if meta:
        doc_meta.update(meta)
    return experiment_artifact(EXPERIMENT, (), data=data, meta=doc_meta)


def compare_wallclock(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    *,
    tolerance: float = 0.30,
) -> List[str]:
    """Regressions of ``candidate`` vs ``baseline``; empty list = pass.

    Engine benchmarks gate on events/sec (lower is worse), figure
    sweeps on wall seconds (higher is worse).  Sections present in only
    one artifact are skipped — the smoke job may time fewer figures
    than the committed baseline records.
    """
    problems: List[str] = []
    base = baseline.get("data", {})
    cand = candidate.get("data", {})
    for name, b in base.get("engine", {}).items():
        c = cand.get("engine", {}).get(name)
        if c is None:
            continue
        floor = b["events_per_second"] * (1.0 - tolerance)
        if c["events_per_second"] < floor:
            problems.append(
                f"engine.{name}: {c['events_per_second']:,.0f} events/s "
                f"< floor {floor:,.0f} "
                f"(baseline {b['events_per_second']:,.0f}, tol {tolerance:.0%})"
            )
    for name, b in base.get("figures", {}).items():
        c = cand.get("figures", {}).get(name)
        if c is None:
            continue
        ceiling = b["wall_seconds"] * (1.0 + tolerance)
        if c["wall_seconds"] > ceiling:
            problems.append(
                f"figures.{name}: {c['wall_seconds']:.2f}s wall "
                f"> ceiling {ceiling:.2f}s "
                f"(baseline {b['wall_seconds']:.2f}s, tol {tolerance:.0%})"
            )
    return problems
