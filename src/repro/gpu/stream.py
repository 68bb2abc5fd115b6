"""CUDA-like streams and events on the simulated clock.

A :class:`Stream` is an in-order execution queue: operations enqueued
on it run back-to-back on the GPU, each completing at
``max(now, stream tail) + duration``.  Enqueuing is free on the GPU
side — the CPU-side launch overhead is paid by the caller (that split
is the accounting the paper's analysis rests on).

A :class:`CudaEvent` mirrors ``cudaEvent_t``: it is *recorded* on a
stream and becomes ready when all work enqueued before the record has
completed; ``query()`` is the non-blocking poll the GPU-Async baseline
[23] spends its "Scheduling"/"Sync." budget on.

Operations carry their functional ``apply`` thunk, which executes at
the operation's simulated completion time, so the byte state of device
memory is always consistent with the clock.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..sim.engine import Event, Simulator
from .kernels import KernelOp

__all__ = ["ExecutionEngine", "Stream", "CudaEvent"]


class ExecutionEngine:
    """Device-wide kernel execution serialization.

    Packing/unpacking kernels of the studied workloads saturate the
    GPU's memory system and SMs, so kernels launched on *different*
    streams do not truly overlap — the hardware work distributor runs
    their thread blocks back-to-back.  All streams of one device share
    an engine; an operation starts no earlier than both its stream's
    tail (CUDA stream ordering) and the engine's tail (device
    occupancy).  This is what keeps the multi-stream GPU-Async baseline
    from getting physically impossible aggregate bandwidth.
    """

    __slots__ = ("tail",)

    def __init__(self) -> None:
        self.tail = 0.0

    def reserve(self, start: float, duration: float) -> float:
        """Claim the device from ``max(start, tail)``; returns actual start."""
        begin = max(start, self.tail)
        self.tail = begin + duration
        return begin


class Stream:
    """An in-order GPU work queue."""

    __slots__ = ("sim", "stream_id", "name", "engine", "_tail")

    _ids = itertools.count()

    def __init__(self, sim: Simulator, name: str = "", engine: Optional[ExecutionEngine] = None):
        self.sim = sim
        self.stream_id = next(Stream._ids)
        self.name = name or f"stream{self.stream_id}"
        self.engine = engine if engine is not None else ExecutionEngine()
        self._tail = 0.0

    @property
    def tail(self) -> float:
        """Completion time of the last enqueued operation."""
        return self._tail

    @property
    def idle(self) -> bool:
        """True when all enqueued work has completed."""
        return self._tail <= self.sim.now

    def next_start(self) -> float:
        """Earliest start time of an operation enqueued right now."""
        return max(self.sim.now, self._tail, self.engine.tail)

    def enqueue(self, op: KernelOp) -> Event:
        """Queue ``op``; returns an event firing when it completes.

        The op's ``apply`` thunk runs at completion time, so device
        memory contents track the simulated clock.
        """
        return self.enqueue_callable(op.duration, op.apply, value=op)

    def occupy(self, duration: float) -> float:
        """Reserve the stream for one operation nobody awaits.

        Books the stream and device time (with the noise draw of
        :meth:`enqueue_callable`) but puts no completion event on the
        calendar; returns the operation's end time.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        sim = self.sim
        if sim.noise is not None:
            duration *= sim.noise.factor("gpu")
        start = self.engine.reserve(max(sim.now, self._tail), duration)
        end = start + duration
        self._tail = end
        return end

    def enqueue_callable(
        self,
        duration: float,
        apply: Optional[Callable[[], None]] = None,
        value: object = None,
    ) -> Event:
        """Queue an arbitrary timed operation (copies, fused kernels)."""
        end = self.occupy(duration)
        sim = self.sim
        # The completion timeout *is* the completion event: no relay
        # event, so each GPU op costs one calendar entry.
        trigger = sim.timeout(end - sim.now, value)
        if apply is not None:
            trigger.add_callback(lambda _ev: apply())
        return trigger

    def barrier(self) -> Event:
        """Event firing when all currently enqueued work has completed."""
        return self.enqueue_callable(0.0)


class CudaEvent:
    """A ``cudaEvent_t`` look-alike for the GPU-Async baseline."""

    __slots__ = ("sim", "event_id", "name", "_ready_at", "_sim_event")

    _ids = itertools.count()

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.event_id = next(CudaEvent._ids)
        self.name = name or f"cuevent{self.event_id}"
        self._ready_at: Optional[float] = None
        self._sim_event: Optional[Event] = None

    @property
    def recorded(self) -> bool:
        """True once :meth:`record` has been called."""
        return self._ready_at is not None

    @property
    def ready_at(self) -> float:
        """Simulation time at which the event becomes ready."""
        if self._ready_at is None:
            raise RuntimeError(f"{self.name} has not been recorded")
        return self._ready_at

    def record(self, stream: Stream) -> None:
        """Mark completion of all work currently enqueued on ``stream``.

        (The CPU-side ``cudaEventRecord`` cost is charged by the caller;
        this captures only the dependency.)
        """
        self._ready_at = stream.tail
        self._sim_event = None

    def query(self) -> bool:
        """Non-blocking readiness poll (``cudaEventQuery``)."""
        if self._ready_at is None:
            return False
        return self.sim.now >= self._ready_at

    def wait(self) -> Event:
        """Simulator event that fires when this CUDA event is ready."""
        if self._ready_at is None:
            raise RuntimeError(f"cannot wait on unrecorded {self.name}")
        if self._sim_event is None:
            delay = max(0.0, self._ready_at - self.sim.now)
            self._sim_event = self.sim.timeout(delay)
        return self._sim_event
