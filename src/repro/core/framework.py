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
from ..schemes.base import OpHandle, PackingScheme, SchemeCapabilities, SchemeGen
from ..schemes.gpu_sync import GPUSyncScheme
from .fusion_policy import FusionPolicy
from .scheduler import FusionScheduler

__all__ = ["KernelFusionScheme"]


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
        policy: Optional[FusionPolicy] = None,
        capacity: int = 256,
        flag_poll_cost: float = us(0.05),
        poll_interval: float = us(1.0),
        idle_linger: float = us(6.0),
        name: Optional[str] = None,
    ):
        super().__init__(site, trace)
        self.scheduler = FusionScheduler(site, self.trace, policy, capacity=capacity)
        self.flag_poll_cost = flag_poll_cost
        self.poll_interval = poll_interval
        #: how long the progress engine must be enqueue-idle before a
        #: sync-point flush launches a below-threshold batch (§IV-C
        #: scenario 1: "no more operations to request")
        self.idle_linger = idle_linger
        self.fallback = GPUSyncScheme(site, self.trace)
        self.fallback_count = 0
        if name is not None:
            self.name = name

    @property
    def policy(self) -> FusionPolicy:
        """The active launch policy."""
        return self.scheduler.policy

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
            lambda: 0.5 * self.poll_interval
            + len(self.outstanding) * self.flag_poll_cost,
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
                Category.SYNC, self.flag_poll_cost * watch.remaining, "flag-poll"
            )
            if not watch.remaining:
                return
            start = self.sim.now
            yield watch.sleep(self.poll_interval)
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
                self.flag_poll_cost * len(self.outstanding),
                "flag-poll",
            )

    def quiescent(self) -> bool:
        """No handle to poll and no request to launch.

        A burst the flush is holding back counts as work: whether it
        launches depends on the clock, not on any event.
        """
        return not self.outstanding and not self.scheduler.request_list.pending()
