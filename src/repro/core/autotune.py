"""Model-based threshold recommendation — operationalizing §IV-C and §VII.

The paper tunes the fusion threshold per system/workload by hand
("we use the above-mentioned heuristic method to find the optimal
threshold") and names model-based auto-tuning as future work.
:func:`recommend_threshold` is that model: the closed-form §IV-C
principle, the smallest pooled byte count whose *estimated* fused
execution time reaches
:data:`~repro.core.fusion_policy.LAUNCH_COST_MULTIPLE` kernel-launch
overheads (the criterion :class:`~repro.core.fusion_policy.ModelBasedPolicy`
launches on), computed from the workload's block shape and the
architecture cost model.  No runs needed.

The empirical method the paper actually used — run the bulk exchange
across a candidate grid and take the argmin — is a sweep like any
other: :func:`repro.bench.figures.threshold_curve` runs it through the
sweep engine and :func:`repro.bench.figures.best_threshold` picks the
winner, the same pick the Figs. 12/13 tuning phase makes.  ``repro
autotune`` prints both, and ``tests/test_core_autotune.py`` checks that
the model lands within one 4x sweep step of the empirical optimum.
"""

from __future__ import annotations

from ..datatypes.layout import DataLayout
from ..gpu.archs import GPUArchitecture
from .fusion_policy import outruns_launch

__all__ = ["recommend_threshold"]

KiB = 1024


def recommend_threshold(
    arch: GPUArchitecture,
    layout: DataLayout,
    *,
    max_threshold: int = 4096 * KiB,
) -> int:
    """Closed-form threshold: pool messages until the fused kernel
    out-runs its launch (:func:`~repro.core.fusion_policy.outruns_launch`).

    ``layout`` is one message's flattened layout; the returned value is
    a pooled byte count suitable for ``FusionPolicy.threshold_bytes``.
    """
    if layout.size <= 0:
        raise ValueError("layout must carry payload bytes")
    for messages in range(1, 4097):
        pooled_bytes = messages * layout.size
        pooled_blocks = messages * layout.num_blocks
        if (
            outruns_launch(arch, pooled_bytes, pooled_blocks, layout.mean_block)
            or pooled_bytes >= max_threshold
        ):
            return min(pooled_bytes, max_threshold)
    return max_threshold
