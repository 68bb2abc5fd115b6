"""The fusion scheduler (§IV-A2).

One object per rank, co-located with the communication progress engine
(the configuration the paper implements and evaluates).  Its four
functions map directly onto the paper's Fig. 5 annotations:

① **enqueue** — take an operation from the progress engine, fill a
  request-list entry, return its UID (negative when the ring is full,
  signalling the engine to take its fallback path);
② **launch** — when the policy fires or a flush is requested, mark the
  pending run BUSY and launch one fused kernel over it;
③ **complete** — per-request completion arrives from the GPU via the
  response-status write (no CPU action needed at the kernel boundary);
④ **query** — the progress engine checks a UID by comparing request
  and response statuses (a host memory read, microseconds cheap).

The measured scheduling overhead of the real implementation is ~2 µs
per message (§V-B); :data:`ENQUEUE_OVERHEAD` +
:data:`COMPLETION_OVERHEAD` add up to that figure.

Fault tolerance
---------------
Under an attached :class:`~repro.sim.faults.FaultPlan` a fused-kernel
launch can fail and individual requests can straggle.  The scheduler
survives both:

* a failed launch enters the **graceful-degradation ladder** —
  ① relaunch the same batch, ② split the batch in half and ladder each
  half, ③ degrade the lone request to a GPU-Sync-style
  launch-and-wait with capped exponential backoff;
* every successful launch arms a **per-request completion deadline**;
  requests still incomplete past it are relaunched solo (first
  completion wins — duplicate applies are suppressed by the fused
  kernel);
* the fault plan can also force request-list pressure, driving the
  §IV-A2 negative-UID fallback path.

Every recovery action is counted in :class:`SchedulerStats` and its CPU
time charged to the :class:`~repro.sim.trace.Trace`, so Fig.-11-style
breakdowns expose the cost of recovery.  None of these paths exist in
a fault-free run — the clean timeline is bit-identical to the
pre-fault-injection implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..gpu.coop import FusionPlan
from ..net.topology import RankSite
from ..gpu.kernels import KernelOp
from ..schemes.base import launch_with_retries
from ..sim.engine import us
from ..sim.trace import Category, Trace
from .fused_kernel import launch_fused_kernel
from .fusion_policy import FusionPolicy
from .request_list import REQUEST_LIST_CAPACITY, CircularRequestList, FusionRequest

__all__ = ["SchedulerStats", "FusionScheduler"]

#: CPU cost of one enqueue (request-list fill + policy check)
ENQUEUE_OVERHEAD = us(1.2)
#: CPU cost of a launched batch's completion bookkeeping (dequeue/reap)
COMPLETION_OVERHEAD = us(0.8)
#: completion deadline = factor × expected batch duration + slack
#: (armed per launch, only under fault injection)
DEADLINE_FACTOR = 4.0
DEADLINE_SLACK = us(50.0)
#: deadline watchdog escalation rounds before it just waits completion out
MAX_DEADLINE_ROUNDS = 8


@dataclass
class SchedulerStats:
    """Counters the benchmarks and ablations report."""

    enqueued: int = 0
    launches: int = 0
    fused_requests: int = 0
    flush_launches: int = 0
    threshold_launches: int = 0
    fallbacks: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    #: fused-kernel launches that failed (fault injection)
    launch_failures: int = 0
    #: ladder rung ①: same-batch relaunches after a failed launch
    relaunches: int = 0
    #: ladder rung ②: batch halvings after a repeated failure
    batch_splits: int = 0
    #: ladder rung ③: single requests degraded to launch-and-wait
    sync_fallbacks: int = 0
    #: requests caught incomplete past their completion deadline
    deadline_hits: int = 0
    #: solo relaunches issued by the deadline watchdog
    deadline_relaunches: int = 0

    @property
    def mean_batch(self) -> float:
        """Average number of requests per fused kernel."""
        return (
            sum(self.batch_sizes) / len(self.batch_sizes) if self.batch_sizes else 0.0
        )


class FusionScheduler:
    """Scheduler + circular request list for one rank."""

    def __init__(
        self,
        site: RankSite,
        trace: Trace,
        policy: Optional[FusionPolicy] = None,
        *,
        capacity: int = REQUEST_LIST_CAPACITY,
        grid_blocks: Optional[int] = None,
    ):
        self.site = site
        self.sim = site.device.sim
        self.trace = trace
        self.policy = policy if policy is not None else FusionPolicy()
        self.request_list = CircularRequestList(self.sim, capacity=capacity)
        self.grid_blocks = grid_blocks
        self.stream = site.device.default_stream
        self.stats = SchedulerStats()
        #: times of the two most recent enqueues (drive the idle-flush
        #: burst heuristic)
        self.last_enqueue_at = -float("inf")
        self.prev_enqueue_at = -float("inf")
        #: plans of every fused kernel launched (diagnostics/tests)
        self.plans: List[FusionPlan] = []

    # -- ① enqueue ---------------------------------------------------------------
    def enqueue(self, op: KernelOp, label: str = ""):
        """Generator: enqueue ``op``; returns the request or ``None``.

        ``None`` is the negative-UID answer — the ring is full and the
        progress engine must fall back (§IV-A2 ①).
        """
        yield from self._charge_sched(ENQUEUE_OVERHEAD, label)
        self.request_list.reap()
        self.prev_enqueue_at = self.last_enqueue_at
        self.last_enqueue_at = self.sim.now
        faults = self.sim.faults
        if faults is not None and faults.ring_rejects():
            # Forced request-list pressure: behave exactly as if the
            # ring were full, driving the §IV-A2 negative-UID fallback.
            self.stats.fallbacks += 1
            return None
        request = self.request_list.enqueue(op, self.trace.track)
        if request is None:
            self.stats.fallbacks += 1
            return None
        self.stats.enqueued += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.instant(
                "fusion", "enqueue", self.sim.now, track=self.trace.track,
                uid=request.uid, nbytes=op.nbytes, label=label,
            )
        # Scenario 2 of §IV-C: enough pooled work to out-run the launch
        # overhead → fuse and go.
        pending = self.request_list.pending()
        if self.policy.should_launch([r.op for r in pending]):
            self.stats.threshold_launches += 1
            yield from self._launch(pending, label)
        return request

    # -- ② launch ------------------------------------------------------------------
    def flush(self, min_idle: float = 0.0):
        """Generator: scenario-1 launch — the engine hit a sync point.

        ``min_idle`` implements "the progress engine has no more
        operations to request": during a *burst* of enqueues (the last
        two arrived within ``min_idle`` of each other) pending requests
        are held while the newest is younger than ``min_idle``, so a
        progress loop that polls every microsecond does not defeat the
        fusion threshold by flushing each request the moment it is
        enqueued.  A *sporadic* request (no recent predecessor — e.g. a
        solver exchanging one buffer per iteration) launches at the
        first sync point with no linger at all.  Blocking call-sites
        (``MPI_Pack``, scheme ``wait``) pass 0 to force an immediate
        launch.
        """
        pending = self.request_list.pending()
        if not pending:
            return
        if min_idle > 0:
            burst = (self.last_enqueue_at - self.prev_enqueue_at) <= min_idle
            fresh = (self.sim.now - self.last_enqueue_at) < min_idle
            if burst and fresh:
                return
        self.stats.flush_launches += 1
        yield from self._launch(pending, "flush")

    def _launch(self, pending: List[FusionRequest], label: str):
        self.request_list.mark_busy(pending)
        yield from self._launch_batch(list(pending), label)
        # Completion-side bookkeeping (dequeue/reap) for the batch.
        yield from self._charge_sched(COMPLETION_OVERHEAD, label)

    def _launch_batch(self, batch: List[FusionRequest], label: str):
        """Launch ``batch``, walking the degradation ladder on failure."""
        arch = self.site.device.arch
        faults = self.sim.faults
        relaunched = False
        while True:
            # One launch overhead for the whole batch — the entire point.
            start = self.sim.now
            yield self.sim.timeout(arch.kernel_launch_overhead)
            self.trace.charge(Category.LAUNCH, start, self.sim.now, label=label)
            if faults is not None and faults.launch_fails():
                self.stats.launch_failures += 1
                if not relaunched:
                    # Rung ①: try the exact same batch once more.
                    relaunched = True
                    self.stats.relaunches += 1
                    label = "relaunch"
                    continue
                if len(batch) > 1:
                    # Rung ②: halve the batch; each half re-enters the
                    # ladder with its relaunch credit restored.
                    self.stats.batch_splits += 1
                    mid = len(batch) // 2
                    yield from self._launch_batch(batch[:mid], "split")
                    yield from self._launch_batch(batch[mid:], "split")
                    return
                # Rung ③: one stubborn request — degrade to a
                # GPU-Sync-style launch-and-wait with backoff.
                yield from self._degraded_single(batch[0])
                return
            self._commit_launch(batch)
            return

    def _commit_launch(self, batch: List[FusionRequest]) -> None:
        arch = self.site.device.arch
        plan = launch_fused_kernel(
            self.sim, self.stream, arch, batch, grid_blocks=self.grid_blocks
        )
        self.plans.append(plan)
        self.stats.launches += 1
        self.stats.fused_requests += len(batch)
        self.stats.batch_sizes.append(len(batch))
        obs = self.sim.obs
        if obs.enabled:
            now = self.sim.now
            obs.observe("fusion_batch_size", len(batch))
            for request in batch:
                obs.observe(
                    "fusion_queue_latency_seconds", now - request.enqueued_at
                )
                obs.span(
                    "fusion", "queued", request.enqueued_at, now,
                    track=self.trace.track, uid=request.uid,
                )
        self._arm_deadline(batch, plan)

    def _degraded_single(self, request: FusionRequest):
        """Ladder rung ③: launch one request and wait it out.

        Retries with capped exponential backoff until the launch
        sticks (:func:`~repro.schemes.base.launch_with_retries`), then
        blocks until the request completes — the GPU-Sync semantics the
        paper's framework falls back to when fusion cannot make
        progress.
        """
        self.stats.sync_fallbacks += 1
        self.stats.launch_failures += yield from launch_with_retries(
            self.sim, self.trace, self.site.device.arch.kernel_launch_overhead,
            "degraded", f"degraded launch of request uid={request.uid}",
        )
        self._commit_launch([request])
        start = self.sim.now
        yield request.done_event
        self.trace.charge(Category.SYNC, start, self.sim.now, label="degraded-sync")

    def _arm_deadline(self, batch: List[FusionRequest], plan: FusionPlan) -> None:
        """Watch ``batch`` for stragglers past a completion deadline.

        Armed only under fault injection; fault-free runs keep their
        exact event timeline.  Requests still incomplete at the
        deadline are relaunched solo; whichever copy finishes first
        wins (the fused kernel suppresses duplicate applies), so a
        straggler costs time, never correctness.
        """
        if self.sim.faults is None:
            return
        arch = self.site.device.arch
        deadline = (
            DEADLINE_FACTOR
            * max(plan.total_duration, arch.kernel_launch_overhead)
            + DEADLINE_SLACK
        )

        def watchdog():
            wait_for = deadline
            rounds = 0
            while True:
                waiting = [r.done_event for r in batch if not r.complete]
                if not waiting:
                    return
                yield self.sim.any_of(
                    [self.sim.all_of(waiting), self.sim.timeout(wait_for)]
                )
                late = [r for r in batch if not r.complete]
                if not late:
                    return
                self.stats.deadline_hits += len(late)
                rounds += 1
                if rounds > MAX_DEADLINE_ROUNDS:
                    # Escalation exhausted — the relaunched copies are
                    # in flight; just wait them out.
                    yield self.sim.all_of([r.done_event for r in late])
                    return
                self.stats.deadline_relaunches += len(late)
                start = self.sim.now
                yield self.sim.timeout(arch.kernel_launch_overhead)
                self.trace.charge(
                    Category.LAUNCH, start, self.sim.now, label="deadline-relaunch"
                )
                # Relaunch the stragglers as their own fused kernel; do
                # not count it in launches/batch_sizes — recovery noise
                # would distort the mean-batch ablation metric.
                self.plans.append(
                    launch_fused_kernel(
                        self.sim, self.stream, arch, late,
                        grid_blocks=self.grid_blocks,
                    )
                )
                wait_for = min(wait_for * 2.0, 16.0 * deadline)

        self.sim.process(watchdog(), name="fusion-deadline")

    # -- ④ query --------------------------------------------------------------------
    def query(self, uid: int) -> bool:
        """Progress-engine status check by UID (host memory read)."""
        request = self.request_list.lookup(uid)
        if request is None:
            # Entry already reaped — it must have completed.
            return True
        return request.complete

    @property
    def pending_count(self) -> int:
        """Requests enqueued and not yet launched."""
        return self.request_list.pending_count

    def _charge_sched(self, duration: float, label: str):
        if duration > 0:
            start = self.sim.now
            yield self.sim.timeout(duration)
            self.trace.charge(Category.SCHED, start, self.sim.now, label=label)
