"""The proposed scheme: dynamic kernel fusion as a packing scheme.

:class:`KernelFusionScheme` is the paper's contribution packaged behind
the common :class:`~repro.schemes.base.PackingScheme` interface, so the
unchanged MPI runtime can run it against every baseline:

* ``submit`` enqueues the operation with the
  :class:`~repro.core.scheduler.FusionScheduler` (~2 µs of scheduling
  per message, §V-B) and returns immediately — communication is
  *delayed*, not blocked (§IV-B1);
* the scheduler launches a fused kernel when the §IV-C policy fires or
  when ``flush`` (the progress engine's sync point) arrives;
* completion is observed by comparing request/response statuses — a
  host memory read per poll, no ``cudaStreamSynchronize`` ever;
* when the circular request list is full, the negative-UID fallback
  routes the operation through a nested GPU-Sync scheme, exactly as
  §IV-A2 prescribes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..gpu.kernels import KernelOp
from ..net.topology import RankSite
from ..sim.engine import CompletionWatch, us
from ..sim.trace import Category, Trace
from ..schemes import base
from ..schemes.base import OpHandle, PackingScheme, SchemeCapabilities, SchemeGen
from ..schemes.gpu_sync import GPUSyncScheme
from .fusion_policy import FusionPolicy, ModelBasedPolicy
from .request_list import REQUEST_LIST_CAPACITY
from .scheduler import FusionScheduler

__all__ = ["POLICIES", "KernelFusionScheme"]

#: CPU cost of one response-flag read (a host memory load per request)
FLAG_POLL_COST = us(0.05)

#: launch rules ``policy=`` names: the §IV-C byte threshold, or the
#: model-based criterion the paper leaves as future work
POLICIES = ("threshold", "model")


class KernelFusionScheme(PackingScheme):
    """Proposed: adaptive hybrid approach with dynamic kernel fusion."""

    name = "Proposed"
    capabilities = SchemeCapabilities(
        layout_cache=True,
        driver_overhead="low",
        latency="low",
        overlap="high",
    )

    def __init__(
        self,
        site: RankSite,
        trace: Optional[Trace] = None,
        *,
        threshold_bytes: int = FusionPolicy.threshold_bytes,
        policy: str = "threshold",
        capacity: int = REQUEST_LIST_CAPACITY,
        grid_blocks: Optional[int] = None,
        idle_linger: float = us(6.0),
        name: Optional[str] = None,
    ):
        super().__init__(site, trace)
        if policy == "threshold":
            launch_policy = FusionPolicy(threshold_bytes)
        elif policy == "model":
            launch_policy = ModelBasedPolicy(arch=site.device.arch)
        else:
            raise ValueError(f"policy must be one of {list(POLICIES)}, got {policy!r}")
        self.scheduler = FusionScheduler(
            site, self.trace, launch_policy, capacity=capacity, grid_blocks=grid_blocks
        )
        #: how long the progress engine must be enqueue-idle before a
        #: sync-point flush launches a below-threshold batch (§IV-C
        #: scenario 1: "no more operations to request")
        self.idle_linger = idle_linger
        self.fallback = GPUSyncScheme(site, self.trace)
        self.fallback_count = 0
        if name is not None:
            self.name = name

    def submit(self, op: KernelOp, label: str = "") -> SchemeGen:
        request = yield from self.scheduler.enqueue(op, label)
        if request is None:
            # Negative UID: request list full → fallback path (§IV-A2).
            self.fallback_count += 1
            handle = yield from self.fallback.submit(op, label=label)
            handle.uid = -1
            return handle
        # Completion is discovered by the scheduler's response-flag
        # polling: half a poll tick plus one host flag read per
        # outstanding request — microseconds cheaper than CUDA event
        # queries, the design's whole advantage on the sync path.
        visible = self._discovered(
            request.done_event,
            lambda: 0.5 * base.POLL_INTERVAL
            + len(self.outstanding) * FLAG_POLL_COST,
        )
        return self._handle(op, visible, uid=request.uid, label=label)

    def flush(self) -> SchemeGen:
        """Progress-engine sync point: launch once enqueues go idle."""
        yield from self.scheduler.flush(min_idle=self.idle_linger)

    def wait(self, handles: Sequence[OpHandle]) -> SchemeGen:
        """Flush, then poll response flags until every handle completes.

        Blocking semantics: the batch launches immediately, idle or not.
        """
        yield from self.scheduler.flush()
        watch = CompletionWatch(self.sim, [h.done_event for h in handles if not h.done])
        while watch.remaining:
            # One response-status read per outstanding request.
            yield from self._charge(
                Category.SYNC, FLAG_POLL_COST * watch.remaining, "flag-poll"
            )
            if not watch.remaining:
                return
            start = self.sim.now
            yield watch.sleep(base.POLL_INTERVAL)
            self.trace.charge(Category.PACK, start, self.sim.now, label="wait")

    def progress_tick(self) -> SchemeGen:
        """One response-flag read per outstanding request.

        A host memory read per request — microseconds cheaper than the
        CUDA event queries of GPU-Async, which is why the proposed
        design's Sync. bar in Fig. 11 is near-invisible.
        """
        if self.outstanding:
            yield from self._charge(
                Category.SYNC,
                FLAG_POLL_COST * len(self.outstanding),
                "flag-poll",
            )

    def quiescent(self) -> bool:
        """No handle to poll and no request to launch.

        A burst the flush is holding back counts as work: whether it
        launches depends on the clock, not on any event.
        """
        return not self.outstanding and not self.scheduler.pending_count
