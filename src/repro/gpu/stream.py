"""CUDA-like streams on the simulated clock.

A :class:`Stream` is an in-order execution queue: operations enqueued
on it run back-to-back on the GPU, each completing at
``max(now, stream tail) + duration``.  Enqueuing is free on the GPU
side — the CPU-side launch overhead is paid by the caller (that split
is the accounting the paper's analysis rests on).  The completion
event an enqueue returns is what the GPU-Async baseline [23] polls in
place of a ``cudaEvent_t``.

Operations carry their functional ``apply`` thunk, which executes at
the operation's simulated completion time, so the byte state of device
memory is always consistent with the clock.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..sim.engine import Event, Simulator
from .kernels import KernelOp

__all__ = ["ExecutionEngine", "Stream"]


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

        Books the stream and device time as :meth:`enqueue_callable`
        does but puts no completion event on the calendar; returns the
        operation's end time.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        start = self.engine.reserve(max(self.sim.now, self._tail), duration)
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
