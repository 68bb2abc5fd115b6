"""When to launch the fused kernel (§IV-C).

The scheduler launches in two scenarios:

1. the progress engine reached a synchronization point (``MPI_Waitall``)
   and requests an immediate flush — handled by the scheduler's
   ``flush``;
2. the pending batch has "enough work to do, e.g., the execution time
   can be longer than the kernel launch overhead" — decided here.

The paper uses a byte threshold found empirically (Fig. 8): too low and
the design is *under-fused* (frequent launches, launch-bound); too high
and it is *over-fused* (communication delayed past the overlap window).
Around **512 KB** of pooled data was best on both test systems.

:class:`FusionPolicy` implements that heuristic plus a request-count
cap (the fused grid serves at most :data:`MAX_BATCH_REQUESTS` groups) and
an optional model-based mode (the paper's stated future work): launch
when the *estimated fused execution time* exceeds
:data:`LAUNCH_COST_MULTIPLE` launch overheads, computed from the cost
model instead of a byte count.  :func:`outruns_launch` is that
criterion; :class:`ModelBasedPolicy` and
:func:`repro.core.autotune.recommend_threshold` both apply it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..gpu.archs import GPUArchitecture
from ..gpu.kernels import KernelOp, kernel_compute_time

__all__ = [
    "LAUNCH_COST_MULTIPLE",
    "MAX_BATCH_REQUESTS",
    "MIN_BATCH_REQUESTS",
    "FusionPolicy",
    "ModelBasedPolicy",
    "outruns_launch",
]

KiB = 1024

#: launch when this many requests are pending regardless of bytes
#: (bounds the fused grid's partition count)
MAX_BATCH_REQUESTS = 64
#: never auto-launch below this many pending requests: a single request
#: big enough to beat the threshold is worth launching on its own
MIN_BATCH_REQUESTS = 1
#: §IV-C model criterion: a fused launch is worth it once its estimated
#: execution time reaches this many kernel launch overheads
LAUNCH_COST_MULTIPLE = 2.0


def outruns_launch(
    arch: GPUArchitecture, nbytes: int, nblocks: int, mean_block: float
) -> bool:
    """Whether a fused kernel over ``nblocks`` blocks and ``nbytes``
    bytes runs at least :data:`LAUNCH_COST_MULTIPLE` launch overheads."""
    estimate = kernel_compute_time(arch, nbytes, nblocks, mean_block)
    return estimate >= LAUNCH_COST_MULTIPLE * arch.kernel_launch_overhead


@dataclass
class FusionPolicy:
    """Threshold heuristic of §IV-C.

    ``threshold_bytes`` — launch when pooled pending payload reaches
    this (the Fig. 8 sweep axis; paper default ~512 KB).  The request
    count bounds :data:`MAX_BATCH_REQUESTS` and :data:`MIN_BATCH_REQUESTS`
    apply around it.
    """

    threshold_bytes: int = 512 * KiB

    def should_launch(self, pending: Sequence[KernelOp]) -> bool:
        """Scenario-2 decision: is the pending batch worth a launch now?"""
        if len(pending) >= MAX_BATCH_REQUESTS:
            return True
        if len(pending) < MIN_BATCH_REQUESTS:
            return False
        return sum(op.nbytes for op in pending) >= self.threshold_bytes


@dataclass
class ModelBasedPolicy(FusionPolicy):
    """Model-based launch criterion (the paper's stated future work).

    Launches when the *estimated* fused-kernel execution time reaches
    :data:`LAUNCH_COST_MULTIPLE` × the kernel launch overhead
    (:func:`outruns_launch`) — a direct encoding of the §IV-C principle
    ("make sure the running time of the fused kernel is longer than the
    kernel launch overhead") with no per-system byte-threshold tuning.
    ``arch`` prices the estimate and is required.
    """

    arch: GPUArchitecture = field(kw_only=True)

    def should_launch(self, pending: Sequence[KernelOp]) -> bool:
        if len(pending) >= MAX_BATCH_REQUESTS:
            return True
        if len(pending) < MIN_BATCH_REQUESTS:
            return False
        total_bytes = sum(op.nbytes for op in pending)
        total_blocks = sum(op.num_blocks for op in pending)
        if total_bytes == 0:
            return False
        mean_block = total_bytes / max(1, total_blocks)
        return outruns_launch(self.arch, total_bytes, total_blocks, mean_block)
