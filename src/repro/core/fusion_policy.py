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
when the *estimated fused execution time* exceeds a multiple of the
launch overhead, computed from the cost model instead of a byte count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..gpu.archs import GPUArchitecture
from ..gpu.kernels import KernelOp, kernel_compute_time

__all__ = ["MAX_BATCH_REQUESTS", "MIN_BATCH_REQUESTS", "FusionPolicy", "ModelBasedPolicy"]

KiB = 1024

#: launch when this many requests are pending regardless of bytes
#: (bounds the fused grid's partition count)
MAX_BATCH_REQUESTS = 64
#: never auto-launch below this many pending requests: a single request
#: big enough to beat the threshold is worth launching on its own
MIN_BATCH_REQUESTS = 1


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

    Launches when the *estimated* fused-kernel execution time exceeds
    ``launch_cost_multiple`` × the kernel launch overhead — a direct
    encoding of the §IV-C principle ("make sure the running time of the
    fused kernel is longer than the kernel launch overhead") with no
    per-system byte-threshold tuning.  Requires the architecture to
    price the estimate.
    """

    arch: Optional[GPUArchitecture] = None
    launch_cost_multiple: float = 2.0

    def should_launch(self, pending: Sequence[KernelOp]) -> bool:
        if self.arch is None:
            raise ValueError("ModelBasedPolicy requires an architecture")
        if len(pending) >= MAX_BATCH_REQUESTS:
            return True
        if len(pending) < MIN_BATCH_REQUESTS:
            return False
        total_bytes = sum(op.nbytes for op in pending)
        total_blocks = sum(op.num_blocks for op in pending)
        if total_bytes == 0:
            return False
        mean_block = total_bytes / max(1, total_blocks)
        estimate = kernel_compute_time(self.arch, total_bytes, total_blocks, mean_block)
        return estimate >= self.launch_cost_multiple * self.arch.kernel_launch_overhead
