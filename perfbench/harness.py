"""Timing, checking and tracing of one workload.

End-to-end metrics come from an untraced run: passes repeat until the
run's seconds are spent (at least :data:`MIN_PASSES`), every item is
timed on its own, and ``wall_s`` sums each item's median time.

Times that are gated are *reference seconds*.  On a shared host the
same code can run up to 1.8 times slower for minutes at a time, so every timed
interval is bracketed by a fixed pure-Python calibration loop and
scaled by :data:`CALIBRATION_S` over the loop's mean time on either
side.  On a host that runs the loop in :data:`CALIBRATION_S` seconds,
reference seconds are host seconds; elsewhere they remove the host's
speed, including its drift during a run.  The raw host seconds are
printed beside them.

A traced run loads the references under :class:`Probes`, then makes
four passes: one probed with cold caches, one untraced, one probed
(the per-layer numbers, and the tracing overhead against the untraced
pass) and one under ``cProfile`` alone (self time by layer).  The two
probed passes must produce the same host-independent counts.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy

from .probes import CATALOG_COUNTS, Probes, fold_self_time
from .workloads import WORKLOADS, Item, Record

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3
SETUP_REPEATS = 7
CALIBRATION_LOOPS = 200_000
#: the calibration loop's time on the reference host (2-vCPU x86_64,
#: Python 3.11, unloaded)
CALIBRATION_S = 0.02
#: counts that do not depend on the host; a traced run checks that
#: they repeat exactly
REPEATING_COUNTS = (
    "sim.events",
    "mpi.requests",
    "mpi.done_polls",
    "core.fused_launches",
    "net.link_bytes",
    "datatypes.packed_bytes",
)
#: layers whose profiled self time is reported
SELF_TIME_LAYERS = (
    "sim", "mpi", "core", "gpu", "schemes", "datatypes", "net", "bench", "numpy", "obs",
)

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Tally:
    """Experiments attempted and the checks they failed, over a run."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)


@dataclass
class Checker:
    """Compares every pass with the references and with the first pass."""

    items: List[Item]
    tally: Tally = field(default_factory=Tally)
    references: Dict[str, Optional[Dict[str, Any]]] = field(default_factory=dict)
    first: Dict[str, Dict[str, Record]] = field(default_factory=dict)

    def load_references(self) -> None:
        for item in self.items:
            try:
                self.references[item.key] = item.reference()
            except Exception as exc:  # a broken reference fails the item, not the run
                self.tally.attempted += 1
                self.tally.failures.append(f"{item.key}: reference: {exc!r}")
                self.references[item.key] = {}

    def check(self, item: Item, records: Optional[Dict[str, Record]], error: str) -> None:
        if records is None:
            self.tally.attempted += 1
            self.tally.failures.append(f"{item.key}: {error}")
            return
        reference = self.references.get(item.key)
        first = self.first.setdefault(item.key, records)
        keys = set(records) | set(reference or ())
        self.tally.attempted += len(keys)
        for key in sorted(keys):
            record = records.get(key)
            if record is None:
                problem = "missing"
            elif reference is not None and reference.get(key) != record.payload:
                problem = "differs from its reference"
            elif key in first and first[key].payload != record.payload:
                problem = "differs from the first pass"
            else:
                continue
            self.tally.failures.append(f"{item.key}/{key}: {problem}")

    def sim_us(self) -> float:
        """Geometric mean of the mean simulated latencies, microseconds."""
        values = [r.sim_s for rs in self.first.values() for r in rs.values() if r.sim_s]
        if not values:
            return 0.0
        return math.exp(statistics.fmean(math.log(v * 1e6) for v in values))


def calibration_seconds() -> float:
    """Time of the fixed pure-Python calibration loop."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


Samples = Dict[str, List[Tuple[float, float]]]


class Timer:
    """Times intervals in host seconds and in reference seconds."""

    def __init__(self) -> None:
        self.before = calibration_seconds()

    def __call__(self, elapsed: float) -> Tuple[float, float]:
        after = calibration_seconds()
        scale = 2 * CALIBRATION_S / (self.before + after)
        self.before = after
        return elapsed, elapsed * scale


def run_pass(checker: Checker, samples: Samples) -> float:
    """Run and check every item once; returns the pass's reference seconds."""
    timer = Timer()
    total = 0.0
    for item in checker.items:
        gc.collect()
        error = ""
        started = time.perf_counter()
        try:
            records: Optional[Dict[str, Record]] = item.run()
        except Exception as exc:  # a failing experiment is counted, not fatal
            records, error = None, repr(exc)
        sample = timer(time.perf_counter() - started)
        samples.setdefault(item.key, []).append(sample)
        total += sample[1]
        checker.check(item, records, error)
    gc.collect()
    return total


def medians(samples: List[Tuple[float, float]]) -> Tuple[float, float]:
    """Median host seconds and median reference seconds."""
    return (statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples))


def setup_seconds(workload: str, seed: int) -> Tuple[float, float]:
    """Median time for a fresh interpreter to import and build the workload."""
    code = (
        "import sys; from perfbench.workloads import WORKLOADS; "
        "WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")) if p
    )
    timer = Timer()
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, workload, str(seed)],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        samples.append(timer(time.perf_counter() - started))
    return medians(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float) -> Tuple[Metrics, Tally, Dict[str, float]]:
    """The end-to-end metrics of an untraced run, and its raw host seconds."""
    checker = Checker(WORKLOADS[workload].build(seed))
    checker.load_references()
    samples: Samples = {}
    started = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        run_pass(checker, samples)
        passes += 1
    rss = peak_rss_mb()
    host_wall, wall = map(sum, zip(*(medians(s) for s in samples.values())))
    host_setup, setup = setup_seconds(workload, seed)
    tally = checker.tally
    metrics: Metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
        "sim_us": (checker.sim_us(), "us_sim"),
        "ok_ratio": (1.0 - len(tally.failures) / max(1, tally.attempted), "ratio"),
    }
    return metrics, tally, {"host_wall_s": host_wall, "host_setup_s": host_setup}


def traced(workload: str, seed: int) -> Tuple[Metrics, Tally, Dict[str, float]]:
    """The per-layer metrics of a traced run."""
    checker = Checker(WORKLOADS[workload].build(seed))
    with Probes() as references:
        checker.load_references()
    with Probes() as cold:
        run_pass(checker, {})
    untraced_s = run_pass(checker, {})
    with Probes() as spans:
        traced_s = run_pass(checker, {})
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_pass(checker, {})
    finally:
        profiler.disable()
    tally = checker.tally
    tally.attempted += 1
    moved = [
        f"{name} {cold.count[name]} then {spans.count[name]}"
        for name in REPEATING_COUNTS
        if cold.count[name] != spans.count[name]
    ]
    if moved:
        tally.failures.append("counts did not repeat: " + ", ".join(moved))
    metrics = layer_metrics(spans, fold_self_time(pstats.Stats(profiler).stats))
    metrics["bench.wet_dry_ratio"] = (
        _ratio(spans.seconds["bench.wet"], references.seconds["bench.dry"]), "ratio")
    metrics["bench.trace_overhead"] = (traced_s / untraced_s, "ratio")
    return metrics, tally, {}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Probes, self_s: Dict[str, float]) -> Metrics:
    """Per-layer metrics from one probed pass and one profile."""
    c, s = spans.count, spans.seconds
    metrics: Metrics = {
        "sim.events": (c["sim.events"], "count"),
        "sim.drain_s": (s["sim.drain"], "s"),
        "sim.ns_per_event": (_ratio(s["sim.drain"] * 1e9, c["sim.events"]), "ns"),
        "mpi.requests": (c["mpi.requests"], "count"),
        "mpi.done_polls": (c["mpi.done_polls"], "count"),
        "mpi.polls_per_request": (_ratio(c["mpi.done_polls"], c["mpi.requests"]), "ratio"),
        "core.requests_per_launch": (
            _ratio(c["core.fused_requests"], c["core.fused_launches"]), "ratio"),
        "core.queue_wait_us": (_ratio(s["core.queue_wait"] * 1e6, c["core.queue_waits"]), "us_sim"),
        "gpu.alloc_bytes": (c["gpu.alloc_bytes"], "B"),
        "datatypes.pack_calls": (c["datatypes.pack_calls"], "count"),
        "datatypes.packed_bytes": (c["datatypes.packed_bytes"], "B"),
        "datatypes.pack_s": (s["datatypes.pack"], "s"),
        "datatypes.unpack_s": (s["datatypes.unpack"], "s"),
        "datatypes.pack_MBps": (
            _ratio(c["datatypes.packed_bytes"] / 1e6, s["datatypes.pack"]), "MB/s"),
        "datatypes.unpack_MBps": (
            _ratio(c["datatypes.unpacked_bytes"] / 1e6, s["datatypes.unpack"]), "MB/s"),
        "datatypes.layout_hit_ratio": (
            _ratio(c["datatypes.layout_hits"],
                   c["datatypes.layout_hits"] + c["datatypes.layout_misses"]), "ratio"),
        "net.fault_delay_us": (s["net.fault_delay"] * 1e6, "us_sim"),
        "bench.setup_s": (s["bench.setup"], "s"),
        "bench.verify_s": (s["bench.verify"], "s"),
        "bench.shards": (c["bench.shards"], "count"),
    }
    for name in CATALOG_COUNTS:
        metrics[name] = (c[name], "B" if name.endswith("_bytes") else "count")
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return metrics


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "reference_loop_s": statistics.median(calibration_seconds() for _ in range(9)),
    }
