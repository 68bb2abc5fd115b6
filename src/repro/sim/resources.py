"""Shared-resource primitives for the simulation kernel.

Three primitives cover every contention point in the reproduction:

* :class:`Resource` — a counted semaphore with FIFO queuing.  Used for
  GPU copy engines and the per-direction injection ports of network
  links.
* :class:`Store` — an unbounded (or bounded) FIFO of Python objects with
  blocking ``get``.  Used for message queues between simulated ranks and
  for the scheduler's work feed.
* :class:`Channel` — a convenience duplex pairing of two stores.

All waiters are served strictly FIFO, preserving the engine's
determinism guarantee.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "Channel"]


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


class Store:
    """FIFO store of arbitrary items with blocking ``get``.

    ``put`` never blocks unless a finite ``capacity`` was given, in
    which case the put event fires once space frees up.
    """

    __slots__ = ("sim", "capacity", "name", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of currently stored items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; returns an event firing when accepted."""
        ev = Event(self.sim)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(item)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Return an event that fires with the oldest item."""
        ev = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            ev.succeed(item)
            # Space opened up: admit the oldest blocked putter, if any.
            if self._putters:
                put_ev, pending = self._putters.popleft()
                self._items.append(pending)
                put_ev.succeed(pending)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop and return the oldest item, or ``None``."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            put_ev, pending = self._putters.popleft()
            self._items.append(pending)
            put_ev.succeed(pending)
        return item


class Channel:
    """A duplex message channel built from two stores.

    Endpoint ``a`` sends into the store endpoint ``b`` receives from and
    vice versa.  Used by tests and examples to wire toy protocols.
    """

    __slots__ = ("sim", "name", "_a_to_b", "_b_to_a")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._a_to_b = Store(sim, name=f"{name}:a->b")
        self._b_to_a = Store(sim, name=f"{name}:b->a")

    def endpoint_a(self) -> "ChannelEnd":
        """The ``a`` side of the channel."""
        return ChannelEnd(self._a_to_b, self._b_to_a)

    def endpoint_b(self) -> "ChannelEnd":
        """The ``b`` side of the channel."""
        return ChannelEnd(self._b_to_a, self._a_to_b)


class ChannelEnd:
    """One side of a :class:`Channel`."""

    __slots__ = ("_outbox", "_inbox")

    def __init__(self, outbox: Store, inbox: Store):
        self._outbox = outbox
        self._inbox = inbox

    def send(self, item: Any) -> Event:
        """Send ``item`` to the peer endpoint."""
        return self._outbox.put(item)

    def recv(self) -> Event:
        """Event firing with the next item from the peer endpoint."""
        return self._inbox.get()
