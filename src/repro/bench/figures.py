"""Canonical parameter grids of the paper's eight evaluation figures.

One authoritative expansion per figure (Figs. 1, 8–14), shared by the
``repro sweep --figure`` CLI and the ``benchmarks/test_fig*.py``
drivers, so CI and local runs always sweep the same plane:

* a :class:`FigurePlan` expands into independent
  :class:`~repro.bench.sweep.ExperimentSpec` shards;
* figures with a *tuning* phase (Figs. 12/13 pick the per-workload best
  fusion threshold from a small sweep) expand in two stages — the
  tuning shards run (and cache) first, then the main grid is generated
  from their outcome;
* :func:`run_figure` executes both stages through
  :func:`~repro.bench.sweep.run_sweep` and assembles the versioned
  ``BENCH_<experiment>.json`` document.
* :func:`threshold_curve` is the same tuning for one experiment, the
  grid ``repro autotune`` runs; it and the figures' tuning phase pick
  their winner with one argmin, :func:`best_threshold`.

The plans are the only description of a committed experiment: the
regression gate re-runs a baseline artifact through the plan whose
``experiment`` it names (:func:`repro.obs.regress.rerun_artifact`).

Fig. 1 is not a bulk-exchange grid — it tabulates launch-overhead
cost-model constants — so it rides along as a single ``kind="table"``
shard built by :func:`fig01_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import ExperimentConfig
from ..obs.artifact import experiment_artifact
from .runner import ExperimentResult
from .sweep import ExperimentSpec, ResultCache, SweepRun, SweepStats, run_sweep

__all__ = [
    "FIGURES",
    "FIG09_SCHEMES",
    "FIG11_SCHEMES",
    "FIG12_SCHEMES",
    "FIG14_SCHEMES",
    "FigurePlan",
    "FigureRun",
    "best_threshold",
    "fig01_table",
    "run_figure",
    "threshold_curve",
    "fig08_views",
    "fig09_results",
    "fig10_results",
    "fig11_results",
    "fig12_tables",
    "fig13_lassen_views",
    "fig14_grids",
]

KiB = 1024

#: benchmark-wide measurement settings (the paper uses 500 iters /
#: 50 warm-up on hardware; the simulator is deterministic so steady
#: state needs only a couple of iterations past the cache-warming one)
ITERATIONS = 2
WARMUP = 1

# -- Fig. 8 --------------------------------------------------------------------
FIG08_THRESHOLDS = [16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
                    1024 * KiB, 2048 * KiB, 4096 * KiB]
FIG08_DIMS = [500, 2000, 4000]  # ~18 KB / 70 KB / 140 KB per message

# -- Figs. 9/10 ----------------------------------------------------------------
BULK_NBUFFERS = [1, 2, 4, 8, 16]
FIG09_DIM = 1000
FIG09_SCHEMES = ["GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed"]
FIG10_DIM = 16       # ~96 KB messages
FIG10_DIM_SMALL = 4  # ~1.5 KB messages: hybrid's GDRCopy sweet spot

# -- Fig. 11 -------------------------------------------------------------------
FIG11_SCHEMES = ["GPU-Sync", "GPU-Async", "Proposed"]
FIG11_DIM = 16
FIG11_NBUF = 16

# -- Figs. 12/13 ---------------------------------------------------------------
FIG12_SWEEPS: Dict[str, List[int]] = {
    "specfem3D_oc": [500, 1000, 2000, 4000, 8000],
    "specfem3D_cm": [250, 500, 1000, 2000, 4000],
    "MILC": [2, 4, 8, 16, 32],
    "NAS_MG": [32, 64, 128, 256],
}
TUNE_CANDIDATES = [128 * KiB, 256 * KiB, 512 * KiB]
#: candidate grid of ``repro autotune`` (the Fig. 8 sweep points)
AUTOTUNE_THRESHOLDS = [32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
                       1024 * KiB, 2048 * KiB]
FIG12_SCHEMES = [
    "GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed", "Proposed-Tuned",
]
#: Lassen shards Fig. 13 re-uses for its cross-system claims
FIG13_LASSEN_DIMS = FIG12_SWEEPS["specfem3D_cm"][:2]

# -- Fig. 14 -------------------------------------------------------------------
FIG14_CASES: Dict[str, List[int]] = {
    "specfem3D_cm": [250, 1000],  # sparse
    "MILC": [16, 32],             # dense
}
FIG14_SCHEMES = ["SpectrumMPI", "OpenMPI", "MVAPICH2-GDR", "Proposed"]


#: the declarative base config every figure shard starts from; each
#: grid point is ``FIG_BASE.with_overrides({...})`` with only the axes
#: that figure sweeps
FIG_BASE = ExperimentConfig.default().with_overrides(
    {
        "harness.iterations": ITERATIONS,
        "harness.warmup": WARMUP,
        "harness.data_plane": False,
    }
)


def _spec(
    experiment: str, key: str, overrides: Mapping[str, Any]
) -> ExperimentSpec:
    """One grid point: the figure base config + dotted-path overrides."""
    return ExperimentSpec(experiment, key, FIG_BASE.with_overrides(overrides))


def _scheme_overrides(
    scheme: str, tuned_threshold: Optional[int] = None
) -> Dict[str, Any]:
    """Config overrides reconstructing one of the figure schemes by name."""
    if scheme == "Proposed-Tuned":
        if tuned_threshold is None:
            raise ValueError("Proposed-Tuned needs a tuned threshold")
        return {
            "scheme.name": "Proposed",
            "scheme.options.name": "Proposed-Tuned",
            "scheme.options.threshold_bytes": tuned_threshold,
        }
    return {"scheme.name": scheme}


# -- Fig. 1 table --------------------------------------------------------------


def fig01_table() -> Dict[str, Dict[str, float]]:
    """Launch overhead vs pack-kernel time across GPU generations.

    Rows come back sorted by architecture name — the order a cached
    (``sort_keys=True``) shard entry replays them in — so a fresh and a
    cached run render the same table.
    """
    from ..gpu import ARCHITECTURES, kernel_compute_time
    from ..workloads import WORKLOADS

    specs = {
        "Specfem3D": WORKLOADS["specfem3D_cm"](2000),
        "MILC": WORKLOADS["MILC"](16),
    }
    data: Dict[str, Dict[str, float]] = {}
    for arch_name, arch in sorted(ARCHITECTURES.items()):
        entry: Dict[str, float] = {"launch": arch.kernel_launch_overhead}
        for wl, spec in specs.items():
            lay = spec.datatype.flatten().replicate(spec.count)
            entry[wl] = kernel_compute_time(
                arch, lay.size, lay.num_blocks, lay.mean_block
            )
        data[arch_name] = entry
    return data


# -- plans ---------------------------------------------------------------------

TuningPhase = Callable[[], List[ExperimentSpec]]
ExpandPhase = Callable[[Mapping[str, ExperimentResult]], List[ExperimentSpec]]


def _no_tuning() -> List[ExperimentSpec]:
    return []


@dataclass(frozen=True)
class FigurePlan:
    """How one figure's grid expands into sweep shards."""

    figure: str
    experiment: str
    expand: ExpandPhase
    tuning: TuningPhase = _no_tuning


def _fig01_expand(_tuning: Mapping[str, ExperimentResult]) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(experiment="fig01_launch_overhead", key="table", kind="table")
    ]


def _fig08_expand(_tuning: Mapping[str, ExperimentResult]) -> List[ExperimentSpec]:
    return [
        _spec(
            "fig08_threshold",
            f"thr={threshold // KiB}KB/dim={dim}",
            {
                "scheme.name": "Proposed",
                "scheme.options.threshold_bytes": threshold,
                "workload.dim": dim,
            },
        )
        for dim in FIG08_DIMS
        for threshold in FIG08_THRESHOLDS
    ]


def _fig09_expand(_tuning: Mapping[str, ExperimentResult]) -> List[ExperimentSpec]:
    return [
        _spec(
            "fig09_bulk_sparse",
            f"{scheme}/nbuf={nbuf}",
            {
                "scheme.name": scheme,
                "workload.dim": FIG09_DIM,
                "workload.nbuffers": nbuf,
            },
        )
        for scheme in FIG09_SCHEMES
        for nbuf in BULK_NBUFFERS
    ]


def _fig10_expand(_tuning: Mapping[str, ExperimentResult]) -> List[ExperimentSpec]:
    specs = [
        _spec(
            "fig10_bulk_dense",
            f"{scheme}/nbuf={nbuf}",
            {
                "scheme.name": scheme,
                "workload.name": "MILC",
                "workload.dim": FIG10_DIM,
                "workload.nbuffers": nbuf,
            },
        )
        for scheme in FIG09_SCHEMES
        for nbuf in BULK_NBUFFERS
    ]
    specs.extend(
        _spec(
            "fig10_bulk_dense",
            f"dim={FIG10_DIM_SMALL}/{scheme}/nbuf={nbuf}",
            {
                "scheme.name": scheme,
                "workload.name": "MILC",
                "workload.dim": FIG10_DIM_SMALL,
                "workload.nbuffers": nbuf,
            },
        )
        for scheme in FIG09_SCHEMES
        for nbuf in BULK_NBUFFERS
    )
    return specs


def _fig11_expand(_tuning: Mapping[str, ExperimentResult]) -> List[ExperimentSpec]:
    specs = []
    for scheme in FIG11_SCHEMES:
        overrides = {
            "scheme.name": scheme,
            "system.name": "ABCI",
            "workload.name": "MILC",
            "workload.dim": FIG11_DIM,
            "workload.nbuffers": FIG11_NBUF,
        }
        if scheme == "Proposed":
            overrides["scheme.options.threshold_bytes"] = 512 * KiB
        specs.append(_spec("fig11_breakdown", scheme, overrides))
    return specs


def _tuning_key(workload: str, threshold: int) -> str:
    return f"tune/{workload}/thr={threshold // KiB}KB"


def _figure12_tuning(experiment: str, system: str) -> List[ExperimentSpec]:
    specs = []
    for workload, dims in FIG12_SWEEPS.items():
        mid = dims[len(dims) // 2]
        for threshold in TUNE_CANDIDATES:
            specs.append(
                _spec(
                    experiment,
                    _tuning_key(workload, threshold),
                    {
                        "scheme.name": "Proposed",
                        "scheme.options.threshold_bytes": threshold,
                        "system.name": system,
                        "workload.name": workload,
                        "workload.dim": mid,
                    },
                )
            )
    return specs


def best_threshold(curve: Mapping[int, float]) -> int:
    """The threshold with the lowest latency in ``curve`` (threshold →
    mean latency); ties go to the earliest candidate."""
    return min(curve, key=curve.__getitem__)


def tuned_thresholds(tuning: Mapping[str, ExperimentResult]) -> Dict[str, int]:
    """Per-workload best threshold from the tuning-phase results."""
    return {
        workload: best_threshold(
            {
                threshold: tuning[_tuning_key(workload, threshold)].mean_latency
                for threshold in TUNE_CANDIDATES
            }
        )
        for workload in FIG12_SWEEPS
    }


def threshold_curve(
    base: ExperimentConfig, thresholds: Sequence[int] = AUTOTUNE_THRESHOLDS
) -> Dict[int, float]:
    """Empirical §IV-C tuning of one experiment: ``base`` run once per
    candidate fusion threshold through the sweep engine; returns
    threshold → mean latency in candidate order."""
    specs = [
        ExperimentSpec(
            "autotune",
            f"thr={threshold}",
            base.with_overrides({"scheme.options.threshold_bytes": threshold}),
        )
        for threshold in thresholds
    ]
    views = run_sweep(specs).views
    return {
        threshold: views[spec.key].mean_latency
        for threshold, spec in zip(thresholds, specs)
    }


def _figure12_grid(
    experiment: str, system: str, tuning: Mapping[str, ExperimentResult]
) -> List[ExperimentSpec]:
    tuned = tuned_thresholds(tuning)
    specs = []
    for workload, dims in FIG12_SWEEPS.items():
        for scheme in FIG12_SCHEMES:
            for dim in dims:
                specs.append(
                    _spec(
                        experiment,
                        f"{workload}/{scheme}/dim={dim}",
                        {
                            "system.name": system,
                            "workload.name": workload,
                            "workload.dim": dim,
                            **_scheme_overrides(scheme, tuned[workload]),
                        },
                    )
                )
    return specs


def _fig13_expand(tuning: Mapping[str, ExperimentResult]) -> List[ExperimentSpec]:
    specs = _figure12_grid("fig13", "ABCI", tuning)
    # Cross-system comparison shards (Lassen) for the §V-C claims:
    # the sparse-layout win over GPU-Sync must *grow* on ABCI, and
    # GPU-Async must recover relative to GPU-Sync.
    for scheme in ("GPU-Sync", "Proposed"):
        for dim in FIG13_LASSEN_DIMS:
            specs.append(
                _spec(
                    "fig13",
                    f"lassen/{scheme}/dim={dim}",
                    {
                        "scheme.name": scheme,
                        "system.name": "Lassen",
                        "workload.name": "specfem3D_cm",
                        "workload.dim": dim,
                    },
                )
            )
    for scheme in ("GPU-Sync", "GPU-Async"):
        specs.append(
            _spec(
                "fig13",
                f"lassen_milc/{scheme}/dim=16",
                {
                    "scheme.name": scheme,
                    "system.name": "Lassen",
                    "workload.name": "MILC",
                    "workload.dim": 16,
                },
            )
        )
    return specs


def _fig14_expand(_tuning: Mapping[str, ExperimentResult]) -> List[ExperimentSpec]:
    return [
        _spec(
            "fig14_production",
            f"{workload}/{scheme}/dim={dim}",
            {
                "scheme.name": scheme,
                "workload.name": workload,
                "workload.dim": dim,
            },
        )
        for workload, dims in FIG14_CASES.items()
        for scheme in FIG14_SCHEMES
        for dim in dims
    ]


#: figure id → plan, the full §V evaluation plane
FIGURES: Dict[str, FigurePlan] = {
    "fig01": FigurePlan("fig01", "fig01_launch_overhead", _fig01_expand),
    "fig08": FigurePlan("fig08", "fig08_threshold", _fig08_expand),
    "fig09": FigurePlan("fig09", "fig09_bulk_sparse", _fig09_expand),
    "fig10": FigurePlan("fig10", "fig10_bulk_dense", _fig10_expand),
    "fig11": FigurePlan("fig11", "fig11_breakdown", _fig11_expand),
    "fig12": FigurePlan(
        "fig12", "fig12",
        lambda tuning: _figure12_grid("fig12", "Lassen", tuning),
        lambda: _figure12_tuning("fig12", "Lassen"),
    ),
    "fig13": FigurePlan(
        "fig13", "fig13",
        _fig13_expand,
        lambda: _figure12_tuning("fig13", "ABCI"),
    ),
    "fig14": FigurePlan("fig14", "fig14_production", _fig14_expand),
}


@dataclass
class FigureRun(SweepRun):
    """Executed figure: the main grid's entries (tuning shards excluded)
    in expansion order, with the shard accounting of both phases."""

    figure: str = ""
    experiment: str = ""

    def artifact_doc(self) -> Dict[str, Any]:
        """The versioned ``BENCH_<experiment>.json`` document."""
        if len(self.entries) == 1 and self.entries[0].get("kind") == "table":
            return experiment_artifact(
                self.experiment, (), data=self.entries[0]["data"]
            )
        return experiment_artifact(self.experiment, self.entries)


def run_figure(
    figure: str | FigurePlan,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    salt: Optional[str] = None,
) -> FigureRun:
    """Expand and execute one figure's full grid through the sweep engine.

    Two-phase figures run their tuning shards first (cached like any
    other shard), then expand the main grid from the tuning outcome.
    """
    plan = FIGURES[figure] if isinstance(figure, str) else figure
    stats = SweepStats()
    tuning_views: Dict[str, ExperimentResult] = {}
    tuning_specs = plan.tuning()
    if tuning_specs:
        tuning_run = run_sweep(tuning_specs, jobs=jobs, cache=cache, salt=salt)
        stats.add(tuning_run.stats)
        tuning_views = tuning_run.views
    grid_run = run_sweep(
        plan.expand(tuning_views), jobs=jobs, cache=cache, salt=salt
    )
    stats.add(grid_run.stats)
    return FigureRun(
        entries=grid_run.entries,
        stats=stats,
        figure=plan.figure,
        experiment=plan.experiment,
    )


# -- driver-shaped view helpers ------------------------------------------------


def fig08_views(views: Mapping[str, ExperimentResult]) -> Dict[int, Dict[int, ExperimentResult]]:
    """``grid[dim][threshold]`` over the Fig. 8 sweep."""
    return {
        dim: {
            thr: views[f"thr={thr // KiB}KB/dim={dim}"]
            for thr in FIG08_THRESHOLDS
        }
        for dim in FIG08_DIMS
    }


def _bulk_grid(
    views: Mapping[str, ExperimentResult], prefix: str = ""
) -> Dict[str, Dict[int, ExperimentResult]]:
    return {
        scheme: {
            nbuf: views[f"{prefix}{scheme}/nbuf={nbuf}"]
            for nbuf in BULK_NBUFFERS
        }
        for scheme in FIG09_SCHEMES
    }


def fig09_results(views: Mapping[str, ExperimentResult]) -> Dict[str, Dict[int, ExperimentResult]]:
    """``results[scheme][nbuf]`` for the Fig. 9 bulk-sparse sweep."""
    return _bulk_grid(views)


def fig10_results(
    views: Mapping[str, ExperimentResult],
) -> Tuple[Dict[str, Dict[int, ExperimentResult]], Dict[str, Dict[int, ExperimentResult]]]:
    """``(big, small)`` bulk-dense grids of Fig. 10."""
    return _bulk_grid(views), _bulk_grid(views, prefix=f"dim={FIG10_DIM_SMALL}/")


def fig11_results(views: Mapping[str, ExperimentResult]) -> Dict[str, ExperimentResult]:
    """``results[scheme]`` for the Fig. 11 breakdown."""
    return {scheme: views[scheme] for scheme in FIG11_SCHEMES}


def fig12_tables(
    views: Mapping[str, ExperimentResult],
) -> Dict[str, Dict[str, Dict[int, ExperimentResult]]]:
    """``tables[workload][scheme][dim]`` for Figs. 12/13."""
    return {
        workload: {
            scheme: {
                dim: views[f"{workload}/{scheme}/dim={dim}"]
                for dim in dims
            }
            for scheme in FIG12_SCHEMES
        }
        for workload, dims in FIG12_SWEEPS.items()
    }


def fig13_lassen_views(
    views: Mapping[str, ExperimentResult],
) -> Tuple[Dict[str, Dict[int, ExperimentResult]], Dict[str, Dict[int, ExperimentResult]]]:
    """The Lassen comparison grids embedded in the Fig. 13 sweep."""
    sparse = {
        scheme: {
            dim: views[f"lassen/{scheme}/dim={dim}"]
            for dim in FIG13_LASSEN_DIMS
        }
        for scheme in ("GPU-Sync", "Proposed")
    }
    milc = {
        scheme: {16: views[f"lassen_milc/{scheme}/dim=16"]}
        for scheme in ("GPU-Sync", "GPU-Async")
    }
    return sparse, milc


def fig14_grids(
    views: Mapping[str, ExperimentResult],
) -> Dict[str, Dict[str, Dict[int, ExperimentResult]]]:
    """``grids[workload][scheme][dim]`` for Fig. 14."""
    return {
        workload: {
            scheme: {
                dim: views[f"{workload}/{scheme}/dim={dim}"]
                for dim in dims
            }
            for scheme in FIG14_SCHEMES
        }
        for workload, dims in FIG14_CASES.items()
    }
