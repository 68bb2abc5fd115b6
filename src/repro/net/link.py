"""Interconnect link model.

A :class:`Link` is a duplex channel with a latency/bandwidth cost model
and per-direction serialization: transfers in the same direction queue
behind each other (one DMA engine / one injection port per direction),
transfers in opposite directions do not interfere — first-order
behaviour of NVLink bricks, PCIe lanes, and InfiniBand HCAs alike.

Transfer time for ``n`` bytes is ``latency + n / bandwidth`` plus any
queueing delay.  Small control packets (RTS/CTS of the rendezvous
protocols) use :meth:`Link.control_delay`, which pays latency only.

Fault tolerance
---------------
When a :class:`~repro.sim.faults.FaultPlan` is attached to the
simulator, :meth:`Link.transmit` becomes failure-aware: a transfer may
find the link flapped (it waits out the dark window), hit a latency
spike (the serialization time is multiplied), or die mid-flight — in
which case the full attempt time is lost and the transfer is
retransmitted after a capped exponential backoff.  Callers never see a
failure; they only see time pass.  Retransmissions are counted in
:attr:`Link.retransmits` and the wasted seconds in
:attr:`Link.fault_delay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

from ..sim.engine import Event, Simulator
from ..sim.faults import FaultError
from ..sim.resources import Resource

__all__ = ["LinkSpec", "Link"]

#: hard cap on retransmission attempts per transfer — a diagnostic
#: backstop, unreachable for valid FaultSpecs (per-attempt success
#: probability is at least 10 %)
MAX_TRANSMIT_ATTEMPTS = 10_000
#: exponential-backoff ceiling, in multiples of the link's base latency
BACKOFF_CAP_FACTOR = 64


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a link type.

    ``bandwidth`` is one-way bytes/s (the Table II numbers);
    ``latency`` is the one-way propagation + port traversal time.
    """

    name: str
    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        # Validate here instead of failing with ZeroDivisionError deep
        # inside transfer_time.
        if not self.bandwidth > 0:
            raise ValueError(f"link bandwidth must be > 0, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency}")

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded one-way time for ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency + nbytes / self.bandwidth


class Link:
    """A live link instance bound to a simulator.

    Directions are keyed by arbitrary hashable endpoints pairs; each
    direction gets a capacity-1 :class:`Resource`, created lazily.
    """

    __slots__ = (
        "sim", "spec", "name", "_ports",
        "bytes_carried", "transfer_count", "retransmits", "fault_delay",
    )

    def __init__(self, sim: Simulator, spec: LinkSpec, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self._ports: Dict[object, Resource] = {}
        #: total payload bytes carried (both directions)
        self.bytes_carried = 0
        #: number of transfers completed
        self.transfer_count = 0
        #: retransmissions caused by injected transfer failures
        self.retransmits = 0
        #: seconds lost to faults (failed attempts, backoff, flap waits)
        self.fault_delay = 0.0

    def _port(self, direction: object) -> Resource:
        port = self._ports.get(direction)
        if port is None:
            port = Resource(self.sim, capacity=1, name=f"{self.name}:{direction}")
            self._ports[direction] = port
        return port

    def transmit(
        self, nbytes: int, direction: object = "fwd"
    ) -> Generator[Event, None, float]:
        """Process generator: move ``nbytes`` one way; returns the time spent.

        Queues on the direction's port, then occupies it for the full
        serialization time.  Intended to be driven with
        ``yield from link.transmit(...)`` inside a simulation process.

        With a fault plan attached, a transfer survives link flaps,
        latency spikes, and mid-flight failures by waiting, paying, and
        retransmitting (capped exponential backoff); the caller only
        ever observes elapsed time.
        """
        sim = self.sim
        start = sim.now
        port = self._port(direction)
        faults = sim.faults
        backoff = self.spec.latency
        attempts = 0
        while True:
            failed = False
            attempt_start = sim.now
            yield port.request()
            try:
                if faults is not None:
                    downtime = faults.link_down_time(self.name)
                    if downtime > 0:
                        # Link flapped: hold the port while it is dark —
                        # nothing else can inject either.
                        yield sim.timeout(downtime)
                duration = self.spec.transfer_time(nbytes)
                if faults is not None:
                    duration *= faults.latency_multiplier(self.name)
                    failed = faults.transfer_fails(self.name)
                yield sim.timeout(duration)
            finally:
                port.release()
            if not failed:
                break
            # The attempt's wire time is lost; back off and retransmit.
            self.retransmits += 1
            attempts += 1
            if attempts >= MAX_TRANSMIT_ATTEMPTS:
                raise FaultError(
                    f"{self.name}: {attempts} failed transmission attempts "
                    f"for {nbytes} B — fault plan leaves no headroom"
                )
            yield sim.timeout(backoff)
            backoff = min(backoff * 2.0, BACKOFF_CAP_FACTOR * self.spec.latency)
            self.fault_delay += sim.now - attempt_start
        self.bytes_carried += nbytes
        self.transfer_count += 1
        obs = sim.obs
        if obs.enabled:
            obs.span(
                "link", "transfer", start, sim.now,
                track=self.name, nbytes=nbytes,
            )
        return sim.now - start

    def control_delay(self) -> float:
        """One-way delay of a small control packet (RTS/CTS)."""
        return self.spec.latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.name} {self.spec.bandwidth / 1e9:.0f}GB/s "
            f"{self.spec.latency * 1e6:.2f}us>"
        )
