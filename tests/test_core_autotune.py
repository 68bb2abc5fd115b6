"""Tests for threshold auto-tuning: the closed-form model, and the
empirical candidate sweep ``repro autotune`` runs through the sweep
engine."""

from types import SimpleNamespace

import pytest

from repro.bench.figures import best_threshold, threshold_curve
from repro.config import ExperimentConfig
from repro.core import ModelBasedPolicy, fusion_policy, recommend_threshold
from repro.gpu import TESLA_V100, TESLA_V100_PCIE
from repro.net import LASSEN
from repro.workloads import WORKLOADS

KiB = 1024


def _base(workload, dim):
    return ExperimentConfig().with_overrides(
        {
            "workload.name": workload,
            "workload.dim": dim,
            "harness.iterations": 2,
            "harness.warmup": 1,
            "harness.data_plane": False,
        }
    )


def test_recommend_threshold_reasonable_band():
    spec = WORKLOADS["specfem3D_cm"](2000)
    rec = recommend_threshold(TESLA_V100, spec.datatype.flatten())
    # §IV-C: the useful band is tens of KB to ~1 MB.
    assert 16 * KiB <= rec <= 2048 * KiB


def test_recommend_threshold_scales_with_launch_overhead():
    """A slower driver (PCIe attach) justifies pooling at least as much
    work per launch."""
    lay = WORKLOADS["specfem3D_cm"](2000).datatype.flatten()
    nvlink = recommend_threshold(TESLA_V100, lay)
    pcie = recommend_threshold(TESLA_V100_PCIE, lay)
    assert pcie >= nvlink


def test_recommend_threshold_sparse_needs_less_pooling():
    """Sparse layouts do more GPU work per byte (strided penalty +
    per-block cost), so fewer pooled bytes out-run the launch."""
    sparse = WORKLOADS["specfem3D_cm"](2000).datatype.flatten()
    dense = WORKLOADS["NAS_MG"](128).datatype.flatten()
    assert recommend_threshold(TESLA_V100, sparse) <= recommend_threshold(
        TESLA_V100, dense
    )


def test_recommend_threshold_multiple_matters(monkeypatch):
    lay = WORKLOADS["MILC"](16).datatype.flatten()
    monkeypatch.setattr(fusion_policy, "LAUNCH_COST_MULTIPLE", 1.0)
    low = recommend_threshold(TESLA_V100, lay)
    monkeypatch.setattr(fusion_policy, "LAUNCH_COST_MULTIPLE", 4.0)
    high = recommend_threshold(TESLA_V100, lay)
    assert high > low


def test_recommend_threshold_is_where_the_model_policy_launches():
    """One §IV-C criterion: the recommended pool is the first pooled
    count of messages at which ``ModelBasedPolicy`` launches."""
    lay = WORKLOADS["MILC"](16).datatype.flatten()
    rec = recommend_threshold(TESLA_V100, lay)
    assert rec % lay.size == 0
    policy = ModelBasedPolicy(arch=TESLA_V100)

    def launches(messages):
        message = SimpleNamespace(nbytes=lay.size, num_blocks=lay.num_blocks)
        return policy.should_launch([message] * messages)

    assert launches(rec // lay.size)
    assert rec == lay.size or not launches(rec // lay.size - 1)


def test_recommend_threshold_rejects_empty_layout():
    from repro.datatypes import DataLayout

    with pytest.raises(ValueError):
        recommend_threshold(TESLA_V100, DataLayout([], []))


def test_autotune_finds_interior_optimum():
    candidates = (16 * KiB, 128 * KiB, 4096 * KiB)
    curve = threshold_curve(_base("specfem3D_cm", 1000), candidates)
    assert list(curve) == list(candidates)
    best = best_threshold(curve)
    assert best == 128 * KiB
    assert curve[best] == min(curve.values())


def test_autotune_validation():
    with pytest.raises(ValueError):
        best_threshold(threshold_curve(_base("MILC", 8), ()))


def test_model_recommendation_close_to_empirical():
    """The future-work claim: the model lands near the measured best."""
    spec = WORKLOADS["specfem3D_cm"](2000)
    rec = recommend_threshold(LASSEN.gpu_arch, spec.datatype.flatten())
    best = best_threshold(
        threshold_curve(
            _base("specfem3D_cm", 2000),
            (64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB),
        )
    )
    # Within one sweep step (4x) of the empirical optimum.
    assert best / 4 <= rec <= best * 4
