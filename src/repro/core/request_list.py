"""The circular request list of the fusion framework (§IV-A1).

Each entry records exactly the fields the paper enumerates:

* **UID** — unique identifier handed back to the progress engine,
* **requested operation** — Packing, Unpacking, or DirectIPC (carried
  by the :class:`~repro.gpu.kernels.KernelOp`, which also holds the
  origin/target buffers and the cached data layout),
* **request status** — ``IDLE → PENDING → BUSY → COMPLETED``, written
  by the scheduler,
* **response status** — written *only by the GPU* (a thread block
  signals completion of its request), so the scheduler can detect
  completion by comparing the two statuses without any kernel-boundary
  synchronization (§IV-A2 ③).

The list is a fixed-capacity ring with Head/Tail indexes.  ``enqueue``
returns ``None`` when the ring is full — the scheduler then returns a
*negative UID* to the progress engine, which falls back to an alternate
scheme (§IV-A2 ①).  Completed entries are recycled by :meth:`reap`,
which advances Head past observed completions.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..gpu.kernels import KernelOp
from ..sim.engine import Event, Simulator

__all__ = [
    "RequestStatus",
    "FusionRequest",
    "CircularRequestList",
    "REQUEST_LIST_CAPACITY",
]

#: ring slots per rank unless ``scheme.options.capacity`` says otherwise
REQUEST_LIST_CAPACITY = 256


class RequestStatus(str, enum.Enum):
    """Lifecycle of a request-list entry."""

    IDLE = "idle"
    PENDING = "pending"
    BUSY = "busy"
    COMPLETED = "completed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class FusionRequest:
    """One occupied slot of the circular request list."""

    uid: int
    op: KernelOp
    slot: int
    sim: Simulator
    request_status: RequestStatus = RequestStatus.PENDING
    response_status: RequestStatus = RequestStatus.IDLE
    enqueued_at: float = 0.0
    completed_at: Optional[float] = None
    #: event-stream track of the owning rank (lifecycle span)
    track: str = ""
    done_event: Event = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.done_event is None:
            self.done_event = Event(self.sim, name="fusion")

    @property
    def complete(self) -> bool:
        """Scheduler-side completion check: compare the two statuses."""
        return self.response_status is RequestStatus.COMPLETED

    def gpu_signal_complete(self) -> None:
        """Called at the request's simulated GPU completion instant.

        Models the thread block writing the response status; fires the
        ``done_event`` the progress engine's handle is waiting on.
        """
        self.response_status = RequestStatus.COMPLETED
        self.completed_at = self.sim.now
        if self.sim.obs.enabled:
            # The full request lifecycle (enqueue → ... → GPU complete)
            # as one span on the unified event stream.
            self.sim.obs.span(
                "request", f"uid{self.uid}", self.enqueued_at,
                self.completed_at, track=self.track, uid=self.uid,
                nbytes=self.op.nbytes,
            )
        if not self.done_event.triggered:
            self.done_event.succeed(self)


class CircularRequestList:
    """Fixed-capacity ring of :class:`FusionRequest` slots."""

    __slots__ = (
        "sim", "capacity", "_slots", "_head", "_tail", "_count",
        "_uids", "_pending", "peak_occupancy", "rejections",
    )

    def __init__(self, sim: Simulator, capacity: int = REQUEST_LIST_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._slots: List[Optional[FusionRequest]] = [None] * capacity
        self._head = 0
        self._tail = 0
        self._count = 0
        self._uids = itertools.count()
        #: PENDING entries in FIFO order: appended by ``enqueue``,
        #: dropped by ``mark_busy``
        self._pending: List[FusionRequest] = []
        #: occupancy high-water mark (diagnostics)
        self.peak_occupancy = 0
        #: number of enqueues rejected because the ring was full
        self.rejections = 0

    # -- introspection -----------------------------------------------------------
    @property
    def head(self) -> int:
        """Index of the oldest occupied slot."""
        return self._head

    @property
    def tail(self) -> int:
        """Index where the next request will be inserted."""
        return self._tail

    @property
    def occupancy(self) -> int:
        """Number of occupied (non-IDLE) slots."""
        return self._count

    def pending(self) -> List[FusionRequest]:
        """Occupied PENDING entries in FIFO (head→tail) order, as a new
        list.  The list is maintained, not scanned: the scheduler asks
        on every enqueue and flush decision."""
        return list(self._pending)

    @property
    def pending_count(self) -> int:
        """Number of PENDING entries."""
        return len(self._pending)

    # -- mutation -----------------------------------------------------------------
    def enqueue(self, op: KernelOp, track: str = "") -> Optional[FusionRequest]:
        """Insert at Tail for the rank on ``track``; ``None`` when full."""
        if self._slots[self._tail] is not None:
            self.rejections += 1
            return None
        request = FusionRequest(
            uid=next(self._uids),
            op=op,
            slot=self._tail,
            sim=self.sim,
            enqueued_at=self.sim.now,
            track=track,
        )
        self._slots[self._tail] = request
        self._pending.append(request)
        self._tail = (self._tail + 1) % self.capacity
        self._count += 1
        if self._count > self.peak_occupancy:
            self.peak_occupancy = self._count
        if self.sim.obs.enabled:
            self.sim.obs.gauge_set("fusion_ring_occupancy", self._count)
        return request

    def mark_busy(self, requests: List[FusionRequest]) -> None:
        """Transition entries to BUSY as they enter a fused kernel."""
        for request in requests:
            if request.request_status is not RequestStatus.PENDING:
                raise ValueError(f"uid {request.uid} is {request.request_status}, not pending")
        for request in requests:
            request.request_status = RequestStatus.BUSY
        self._pending = [
            r for r in self._pending if r.request_status is RequestStatus.PENDING
        ]

    def reap(self) -> int:
        """Recycle completed entries at the head; returns count reaped.

        Only contiguous completed entries starting at Head are freed
        (ring discipline); later completions wait for earlier ones to be
        observed, exactly like a hardware completion queue.
        """
        reaped = 0
        while True:
            slot = self._slots[self._head]
            if slot is None or not slot.complete:
                break
            slot.request_status = RequestStatus.IDLE
            self._slots[self._head] = None
            self._head = (self._head + 1) % self.capacity
            self._count -= 1
            reaped += 1
            if self._head == self._tail and self._slots[self._head] is None:
                break
        if reaped and self.sim.obs.enabled:
            self.sim.obs.gauge_set("fusion_ring_occupancy", self._count)
        return reaped

    def lookup(self, uid: int) -> Optional[FusionRequest]:
        """Find a live entry by UID (the §IV-A2 ④ status query)."""
        for slot in self._slots:
            if slot is not None and slot.uid == uid:
                return slot
        return None
