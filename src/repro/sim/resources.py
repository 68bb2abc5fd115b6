"""Shared-resource primitive for the simulation kernel.

:class:`Resource` is a counted semaphore with FIFO queuing, used for
GPU copy engines and the per-direction injection ports of network
links.  Waiters are served strictly FIFO, preserving the engine's
determinism guarantee.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Event, SimulationError, Simulator

__all__ = ["Resource"]


class Resource:
    """A counted, FIFO-fair resource (semaphore).

    Processes acquire with ``yield resource.request()`` and must release
    with ``resource.release()``.  The request event's value is the
    resource itself, which makes ``with``-less usage read naturally::

        yield link.request()
        try:
            yield sim.timeout(bytes / bw)
        finally:
            link.release()
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    @property
    def idle(self) -> bool:
        """True when no slot is held and nobody is queued."""
        return not self._in_use and not self._waiters

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        # No per-event name: one of these is built per transfer, and the
        # f-string showed up in sweep profiles.
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one held slot, waking the longest-waiting requester."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use stays put.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
