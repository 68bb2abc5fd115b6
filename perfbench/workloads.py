"""The benchmark's workloads and the outputs each must reproduce.

A workload is a list of :class:`Item`.  One *pass* runs every item once.
Each item returns one :class:`Record` per experiment it ran and names a
*reference* that the records' payloads must equal:

* ``figures_dry``: the eight paper figures through ``run_figure``,
  serially, uncached and dry.  The reference is the latencies and
  Fig. 11 breakdown of the committed ``benchmarks/results/BENCH_*.json``.
* ``wet_verified``: byte-verified wet exchanges; the runner raises on a
  corrupted byte.  The reference is the same point run dry, because
  the data plane must not move simulated time.
* ``faults_heavy``: wet, verified exchanges under the ``heavy`` fault
  preset.  There is no outside reference.  The harness requires every
  pass to repeat the first one exactly, so runs of one seed must repeat
  their simulated latencies and recovery counts.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench import runner
from repro.bench.figures import FIG_BASE, FIGURES, FigurePlan, run_figure
from repro.config import ExperimentConfig

ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: dense vector shapes (extent 32x and 127x the payload) beside sparse
#: indexed ones (extent 4x): a data-plane change that helps strided
#: layouts but slows irregular ones shows on one of the two
WET_POINTS: Tuple[Tuple[str, int], ...] = (
    ("MILC", 32),
    ("NAS_MG", 128),
    ("specfem3D_oc", 4000),
    ("specfem3D_cm", 1000),
)
FAULT_SCHEMES = ("GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed")
FAULT_POINTS: Tuple[Tuple[str, int], ...] = (
    ("specfem3D_cm", 1000),
    ("NAS_MG", 32),
    ("MILC", 8),
)
#: fault draws make simulated latency vary with the seed; eight timed
#: iterations per experiment keep the seed-to-seed spread of the
#: geometric mean between 5% and 8%
FAULT_ITERATIONS = 8

EXCHANGE_BASE = FIG_BASE.with_overrides(
    {
        "system.name": "Lassen",
        "scheme.name": "Proposed",
        "workload.nbuffers": 16,
        "harness.data_plane": True,
        "harness.verify": True,
    }
)


@dataclass(frozen=True)
class Record:
    """One experiment's output."""

    #: mean simulated iteration latency in seconds (``None`` for tables)
    sim_s: Optional[float]
    #: what must equal the reference and repeat on every pass
    payload: Any


@dataclass(frozen=True)
class Item:
    """One timed unit of a pass: a figure, or one exchange."""

    key: str
    run: Callable[[], Dict[str, Record]]
    #: experiment key -> expected payload, or ``None`` when only
    #: repetition across passes is checked
    reference: Callable[[], Optional[Dict[str, Any]]]


@dataclass(frozen=True)
class Workload:
    #: seed -> the items of one pass
    build: Callable[[int], List[Item]]
    #: seed -> the configs or first-stage shards a fresh interpreter
    #: builds before it can run anything (what ``setup_s`` times)
    setup: Callable[[int], Any]


# -- figures_dry -----------------------------------------------------------------


def figure_payload(entry: Dict[str, Any]) -> Dict[str, Any]:
    """The fields of an artifact entry that the figure check compares."""
    if entry.get("kind") == "table":
        return {"data": entry["data"]}
    return {"latencies": entry["latencies"], "breakdown": entry["breakdown"]}


def figure_reference(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Expected payloads by entry key, from a ``BENCH_*.json`` document."""
    if not doc["entries"]:
        return {"table": {"data": doc["data"]}}
    return {str(e["key"]): figure_payload(e) for e in doc["entries"]}


def figure_item(plan: FigurePlan) -> Item:
    def run() -> Dict[str, Record]:
        return {
            str(e["key"]): Record(e.get("mean_latency"), figure_payload(e))
            for e in run_figure(plan).entries
        }

    def reference() -> Dict[str, Any]:
        path = ARTIFACTS / f"BENCH_{plan.experiment}.json"
        return figure_reference(json.loads(path.read_text()))

    return Item(plan.figure, run, reference)


def _figures_dry(_seed: int) -> List[Item]:
    # Dry figure runs carry no noise or faults, so the seed changes nothing.
    return [figure_item(plan) for plan in FIGURES.values()]


def _figures_first_stage(_seed: int) -> List[Any]:
    return [plan.tuning() or plan.expand({}) for plan in FIGURES.values()]


# -- exchanges ---------------------------------------------------------------------


def exchange_record(cfg: ExperimentConfig) -> Record:
    """Run one configured exchange through the public entry point."""
    result = runner.run_bulk_exchange(cfg)
    payload: Dict[str, Any] = {"latencies": result.latencies}
    if result.recovery is not None:
        payload["recovery"] = dataclasses.asdict(result.recovery)
    return Record(result.mean_latency, payload)


def _wet_item(key: str, cfg: ExperimentConfig) -> Item:
    dry = cfg.with_overrides({"harness.data_plane": False})
    return Item(
        key,
        lambda: {key: exchange_record(cfg)},
        lambda: {key: exchange_record(dry).payload},
    )


def wet_configs(seed: int) -> Dict[str, ExperimentConfig]:
    return {
        f"{workload}/dim={dim}": EXCHANGE_BASE.with_overrides(
            {"workload.name": workload, "workload.dim": dim, "harness.seed": seed}
        )
        for workload, dim in WET_POINTS
    }


def fault_configs(seed: int) -> Dict[str, ExperimentConfig]:
    points = [(s, w, d) for s in FAULT_SCHEMES for w, d in FAULT_POINTS]
    # A distinct harness seed per experiment makes the fault draws of
    # the twelve experiments independent, which steadies their mean.
    return {
        f"{scheme}/{workload}/dim={dim}": EXCHANGE_BASE.with_overrides(
            {
                "scheme.name": scheme,
                "workload.name": workload,
                "workload.dim": dim,
                "faults.preset": "heavy",
                "harness.iterations": FAULT_ITERATIONS,
                "harness.seed": seed * len(points) + i,
            }
        )
        for i, (scheme, workload, dim) in enumerate(points)
    }


def _wet_verified(seed: int) -> List[Item]:
    return [_wet_item(key, cfg) for key, cfg in wet_configs(seed).items()]


def _faults_item(key: str, cfg: ExperimentConfig) -> Item:
    return Item(key, lambda: {key: exchange_record(cfg)}, lambda: None)


def _faults_heavy(seed: int) -> List[Item]:
    return [_faults_item(key, cfg) for key, cfg in fault_configs(seed).items()]


WORKLOADS: Dict[str, Workload] = {
    "figures_dry": Workload(_figures_dry, _figures_first_stage),
    "wet_verified": Workload(_wet_verified, wet_configs),
    "faults_heavy": Workload(_faults_heavy, fault_configs),
}
