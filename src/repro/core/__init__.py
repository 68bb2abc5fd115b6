"""The paper's contribution: the dynamic kernel fusion framework.

Circular request list (§IV-A1), scheduler (§IV-A2), fused-kernel launch
with cooperative-group partitioning (§IV-A3), the §IV-C launch policy,
and the packing-scheme adapter that plugs it into the MPI runtime.
"""

from .autotune import recommend_threshold
from .framework import KernelFusionScheme
from .fused_kernel import launch_fused_kernel
from .fusion_policy import FusionPolicy, ModelBasedPolicy
from .request_list import CircularRequestList, FusionRequest, RequestStatus
from .scheduler import FusionScheduler, SchedulerStats

__all__ = [
    "KernelFusionScheme",
    "recommend_threshold",
    "FusionScheduler",
    "SchedulerStats",
    "FusionPolicy",
    "ModelBasedPolicy",
    "CircularRequestList",
    "FusionRequest",
    "RequestStatus",
    "launch_fused_kernel",
]
