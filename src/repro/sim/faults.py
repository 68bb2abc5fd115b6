"""Seeded, deterministic fault injection (the chaos plan).

Real deployments of the fusion framework live inside an MPI progress
engine that must survive an imperfect world: fabric latency spikes,
flapping links, lost RTS/CTS control packets, RDMA transfers that die
mid-flight, kernel launches the driver rejects, straggling thread
blocks, and request-list pressure.  A :class:`FaultPlan` models all of
these as *seeded, reproducible* adversities that attach to a
:class:`~repro.sim.engine.Simulator` as an attribute::

    sim = Simulator()
    sim.faults = FaultPlan(seed=7, spec=FAULT_PRESETS["moderate"])

Consumers (links, protocols, the fusion scheduler, the fused-kernel
launcher) query the plan at their decision points; each decision point
draws from its own named RNG stream, keyed by a *stable* hash
(``zlib.crc32``) of the channel name, so identical seeds produce
identical fault timelines across processes and across fresh
``Simulator`` instances — the property the chaos tests rely on.

The headline invariant (see DESIGN.md): **faults may cost time, never
correctness** — under any valid :class:`FaultSpec`, every scheme still
delivers byte-identical receive buffers; retries, watchdogs, and the
scheduler's graceful-degradation ladder absorb the damage and report it
through counters on the objects that recovered and through the time
they charge to the rank's :class:`~repro.sim.trace.Trace`.

Retried fault kinds (``transfer_failure``, ``control_drop``,
``launch_failure``) are capped at :data:`MAX_RETRIED_PROBABILITY` so
every retry loop terminates almost surely; the recovery paths carry a
large hard attempt cap and raise :class:`FaultError` beyond it (a
diagnostic backstop, unreachable for valid specs).
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, fields
from typing import Dict

import numpy as np

__all__ = [
    "FaultError",
    "FaultSpec",
    "FaultStats",
    "FaultPlan",
    "FAULT_PRESETS",
    "MAX_RETRIED_PROBABILITY",
]

#: ceiling on the per-event probability of fault kinds that are healed
#: by retry loops — keeps at least a 10 % per-attempt success chance so
#: retransmission/relaunch terminates almost surely
MAX_RETRIED_PROBABILITY = 0.9

#: fault kinds healed by a retry loop (probability capped, see above)
_RETRIED_KINDS = ("transfer_failure", "control_drop", "launch_failure")
#: fault kinds that only delay (probability may reach 1.0)
_DELAY_KINDS = ("latency_spike", "link_flap", "straggler", "ring_pressure")


class FaultError(RuntimeError):
    """A recovery path exhausted its (very large) retry budget."""


@dataclass(frozen=True)
class FaultSpec:
    """Per-event probabilities and magnitudes of one chaos profile.

    All ``*_probability``-style fields are per-decision probabilities in
    ``[0, 1]`` (retried kinds capped at
    :data:`MAX_RETRIED_PROBABILITY`); factors are multipliers >= 1.
    """

    #: P[a data transfer hits a fabric latency spike]
    latency_spike: float = 0.0
    #: duration multiplier while spiked
    spike_factor: float = 8.0
    #: P[the link is dark (flapped) when a transfer arrives at its port]
    link_flap: float = 0.0
    #: how long a flapped link stays dark, seconds
    flap_downtime: float = 200e-6
    #: P[a data transfer fails mid-flight and must be retransmitted]
    transfer_failure: float = 0.0
    #: P[an RTS/CTS control packet is lost on the wire]
    control_drop: float = 0.0
    #: P[a fused-kernel launch fails and enters the degradation ladder]
    launch_failure: float = 0.0
    #: P[one request's thread blocks straggle inside a fused kernel]
    straggler: float = 0.0
    #: completion-delay multiplier for a straggling request
    straggler_factor: float = 6.0
    #: P[a scheduler enqueue is rejected as if the request ring were full]
    ring_pressure: float = 0.0

    def __post_init__(self) -> None:
        for name in _DELAY_KINDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
        for name in _RETRIED_KINDS:
            p = getattr(self, name)
            if not 0.0 <= p <= MAX_RETRIED_PROBABILITY:
                raise ValueError(
                    f"{name} must be in [0, {MAX_RETRIED_PROBABILITY}] so the "
                    f"retry loop terminates, got {p}"
                )
        for name in ("spike_factor", "straggler_factor"):
            f = getattr(self, name)
            if f < 1.0:
                raise ValueError(f"{name} must be >= 1, got {f}")
        if self.flap_downtime < 0:
            raise ValueError(f"flap_downtime must be >= 0, got {self.flap_downtime}")

    @property
    def active(self) -> bool:
        """True when any fault kind has nonzero probability."""
        return any(getattr(self, name) > 0.0 for name in _RETRIED_KINDS + _DELAY_KINDS)


@dataclass
class FaultStats:
    """Counts of *injected* fault events, by kind."""

    latency_spikes: int = 0
    link_flaps: int = 0
    transfer_failures: int = 0
    control_drops: int = 0
    launch_failures: int = 0
    stragglers: int = 0
    ring_rejections: int = 0

    @property
    def total(self) -> int:
        """Total injected fault events."""
        return sum(asdict(self).values())

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (stable field order) for reports and tests."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultPlan:
    """A seeded source of fault decisions, attachable as ``sim.faults``.

    Each decision point queries a named channel (e.g. ``xfer:<link>``);
    channels draw from independent, reproducible RNG streams seeded by
    ``(seed, crc32(channel))``.  Because the simulation kernel is
    deterministic, the sequence of queries — and therefore the full
    fault timeline — is identical across runs with the same seed and
    spec.

    Every injected event is tallied in :attr:`stats`; the *recovery*
    actions it provokes are counted where they happen (link
    retransmits, runtime watchdog stats, scheduler stats).
    """

    def __init__(self, seed: int = 0, spec: FaultSpec | None = None):
        self.seed = seed
        self.spec = spec if spec is not None else FaultSpec()
        self.stats = FaultStats()
        self._rngs: Dict[str, np.random.Generator] = {}

    # -- the draw machinery ------------------------------------------------------
    def _rng(self, channel: str) -> np.random.Generator:
        rng = self._rngs.get(channel)
        if rng is None:
            rng = np.random.default_rng((self.seed, zlib.crc32(channel.encode("utf-8"))))
            self._rngs[channel] = rng
        return rng

    def _roll(self, channel: str, probability: float) -> bool:
        if probability <= 0.0:
            return False
        return bool(self._rng(channel).random() < probability)

    # -- decision points ---------------------------------------------------------
    def link_down_time(self, link: str) -> float:
        """Seconds a transfer must wait out a link flap (0 = link up)."""
        if self._roll(f"flap:{link}", self.spec.link_flap):
            self.stats.link_flaps += 1
            return self.spec.flap_downtime
        return 0.0

    def latency_multiplier(self, link: str) -> float:
        """Duration multiplier for one data transfer (1 = no spike)."""
        if self._roll(f"spike:{link}", self.spec.latency_spike):
            self.stats.latency_spikes += 1
            return self.spec.spike_factor
        return 1.0

    def transfer_fails(self, link: str) -> bool:
        """Whether one data transfer dies mid-flight (must retransmit)."""
        if self._roll(f"xfer:{link}", self.spec.transfer_failure):
            self.stats.transfer_failures += 1
            return True
        return False

    def drop_control(self, kind: str) -> bool:
        """Whether one control packet (``kind`` = rts | cts) is lost."""
        if self._roll(f"ctl:{kind}", self.spec.control_drop):
            self.stats.control_drops += 1
            return True
        return False

    def launch_fails(self) -> bool:
        """Whether one fused-kernel launch fails at the driver."""
        if self._roll("launch", self.spec.launch_failure):
            self.stats.launch_failures += 1
            return True
        return False

    def straggler_multiplier(self) -> float:
        """Completion-delay multiplier for one fused request (1 = on time)."""
        if self._roll("straggler", self.spec.straggler):
            self.stats.stragglers += 1
            return self.spec.straggler_factor
        return 1.0

    def ring_rejects(self) -> bool:
        """Whether one scheduler enqueue is forced onto the fallback path."""
        if self._roll("ring", self.spec.ring_pressure):
            self.stats.ring_rejections += 1
            return True
        return False

    def describe(self) -> str:
        """One-line summary of the active fault kinds."""
        parts = [
            f"{name}={getattr(self.spec, name):g}"
            for name in _RETRIED_KINDS + _DELAY_KINDS
            if getattr(self.spec, name) > 0.0
        ]
        return f"FaultPlan(seed={self.seed}, {', '.join(parts) or 'inactive'})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


#: named chaos profiles for the CLI sweep and the benchmarks
FAULT_PRESETS: Dict[str, FaultSpec] = {
    "off": FaultSpec(),
    "light": FaultSpec(
        latency_spike=0.02,
        link_flap=0.01,
        transfer_failure=0.01,
        control_drop=0.02,
        launch_failure=0.01,
        straggler=0.02,
        ring_pressure=0.01,
    ),
    "moderate": FaultSpec(
        latency_spike=0.08,
        link_flap=0.04,
        transfer_failure=0.05,
        control_drop=0.08,
        launch_failure=0.05,
        straggler=0.08,
        ring_pressure=0.05,
    ),
    "heavy": FaultSpec(
        latency_spike=0.20,
        spike_factor=12.0,
        link_flap=0.10,
        flap_downtime=500e-6,
        transfer_failure=0.15,
        control_drop=0.20,
        launch_failure=0.15,
        straggler=0.20,
        straggler_factor=10.0,
        ring_pressure=0.15,
    ),
}
