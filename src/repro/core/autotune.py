"""Threshold auto-tuning — operationalizing §IV-C and §VII.

The paper tunes the fusion threshold per system/workload by hand
("we use the above-mentioned heuristic method to find the optimal
threshold") and names model-based auto-tuning as future work.  This
module provides both halves:

* :func:`recommend_threshold` — the closed-form §IV-C principle: the
  smallest pooled byte count whose *estimated* fused execution time
  exceeds a multiple of the kernel-launch overhead, computed from the
  workload's block shape and the architecture cost model.  No runs
  needed.
* :func:`autotune_threshold` — the empirical method the paper actually
  used: run the bulk exchange across a candidate grid and return the
  argmin (plus the whole curve for reporting).

The ablation benchmark shows the closed-form recommendation lands
within a small factor of the empirical optimum — the paper's future
work, realized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from ..config import ExperimentConfig
from ..datatypes.layout import DataLayout
from ..gpu.archs import GPUArchitecture
from ..gpu.kernels import kernel_compute_time

__all__ = ["recommend_threshold", "AutotuneResult", "autotune_threshold"]

KiB = 1024

#: default empirical candidate grid (the Fig. 8 sweep points)
DEFAULT_CANDIDATES = (
    32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB, 2048 * KiB,
)


def recommend_threshold(
    arch: GPUArchitecture,
    layout: DataLayout,
    *,
    launch_cost_multiple: float = 2.0,
    max_threshold: int = 4096 * KiB,
) -> int:
    """Closed-form threshold: pool messages until the fused kernel's
    estimated time exceeds ``launch_cost_multiple`` launch overheads.

    ``layout`` is one message's flattened layout; the returned value is
    a pooled byte count suitable for ``FusionPolicy.threshold_bytes``.
    """
    if layout.size <= 0:
        raise ValueError("layout must carry payload bytes")
    target = launch_cost_multiple * arch.kernel_launch_overhead
    for messages in range(1, 4097):
        pooled_bytes = messages * layout.size
        pooled_blocks = messages * layout.num_blocks
        estimate = kernel_compute_time(
            arch, pooled_bytes, pooled_blocks, layout.mean_block
        )
        if estimate >= target or pooled_bytes >= max_threshold:
            return min(pooled_bytes, max_threshold)
    return max_threshold


@dataclass
class AutotuneResult:
    """Outcome of an empirical threshold sweep."""

    best_threshold: int
    best_latency: float
    #: threshold -> mean latency (seconds) for every candidate
    curve: Dict[int, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable sweep summary."""
        lines = [
            f"{thr // KiB:>6} KB: {lat * 1e6:9.2f} us"
            + ("   <-- best" if thr == self.best_threshold else "")
            for thr, lat in sorted(self.curve.items())
        ]
        return "\n".join(lines)


def autotune_threshold(
    base: ExperimentConfig,
    *,
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
) -> AutotuneResult:
    """Empirical §IV-C tuning: sweep candidates, return the argmin.

    Each candidate runs ``base`` with ``scheme.fusion.threshold_bytes``
    set to it; everything else (system, workload, harness) comes from
    ``base``.
    """
    # Imported here: bench depends on core for the proposed scheme.
    from ..bench.runner import run_bulk_exchange

    if not candidates:
        raise ValueError("need at least one candidate threshold")
    curve: Dict[int, float] = {}
    for threshold in candidates:
        cfg = base.with_overrides({"scheme.fusion.threshold_bytes": threshold})
        curve[threshold] = run_bulk_exchange(cfg).mean_latency
    best = min(curve, key=curve.get)
    return AutotuneResult(best_threshold=best, best_latency=curve[best], curve=curve)
