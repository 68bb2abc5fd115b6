"""The packing-scheme interface: where the designs differ.

Every approach the paper evaluates — GPU-Sync, GPU-Async,
CPU-GPU-Hybrid, the naive production-library path, and the proposed
dynamic kernel fusion — is a *datatype-processing scheme* plugged into
the MPI progress engine.  The runtime asks the scheme to execute
pack/unpack/DirectIPC operations; how the scheme launches, batches,
synchronizes, and charges CPU time is the entire experiment.

All CPU-consuming scheme methods are simulation *generators*: they are
driven inside the calling rank's single CPU process (``yield from``),
so per-scheme CPU costs serialize exactly like a single-threaded MPI
progress engine (the configuration the paper evaluates, §IV-A2).

Cost attribution contract (the Fig. 11 buckets):

* ``LAUNCH`` — CPU time inside kernel-launch / memcpy-issue driver calls,
* ``SCHED``  — CPU time in scheduling bookkeeping (event records,
  fusion enqueue/dequeue),
* ``SYNC``   — CPU time in explicit synchronization or completion
  polling (stream sync, event queries, response-flag polls),
* ``PACK``   — CPU time *blocked* behind actual pack/unpack execution,
* ``COMM``   — computed by the harness as the residual of the observed
  end-to-end latency (communication not hidden by the above).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence

from ..gpu.kernels import KernelOp, OpKind
from ..net.topology import RankSite
from ..sim.engine import Event, Simulator
from ..sim.faults import FaultError
from ..sim.trace import Category, Trace

__all__ = ["OpHandle", "PackingScheme", "SchemeCapabilities"]

#: hard cap on per-operation launch retries — diagnostic backstop,
#: unreachable for valid fault specs (failure probability <= 0.9)
MAX_LAUNCH_ATTEMPTS = 10_000
#: launch-retry backoff ceiling, in multiples of the launch overhead
LAUNCH_BACKOFF_CAP_FACTOR = 64


@dataclass(frozen=True)
class SchemeCapabilities:
    """Table I's qualitative columns, encoded per scheme."""

    layout_cache: bool
    #: qualitative GPU driver overhead: "low" | "medium" | "high"
    driver_overhead: str
    #: qualitative overall latency: "low" | "medium" | "high"
    latency: str
    #: qualitative overlap with communication: "low" | "medium" | "high"
    overlap: str
    requires_gdrcopy: bool = False


@dataclass
class OpHandle:
    """Tracks one submitted pack/unpack/DirectIPC operation.

    ``done_event`` fires at the operation's simulated completion;
    ``uid`` is scheme-specific (the fusion scheduler returns its request
    UID here, negative on fallback).
    """

    op: KernelOp
    done_event: Event
    uid: int = -1
    label: str = ""
    submitted_at: float = 0.0

    _ids = itertools.count()

    @property
    def done(self) -> bool:
        """Whether the operation has completed."""
        return self.done_event.processed

    @property
    def kind(self) -> OpKind:
        """Operation kind (pack / unpack / direct IPC)."""
        return self.op.kind


SchemeGen = Generator[Event, Any, Any]


class PackingScheme(ABC):
    """Base class of every datatype-processing scheme."""

    #: human-readable name used in benchmark tables
    name: str = "abstract"
    #: Table I row
    capabilities: SchemeCapabilities
    #: the GPU-Sync scheme this one routes some operations through
    #: (fusion's full-ring path, the hybrid's GPU path), if any
    fallback: Optional["PackingScheme"] = None

    def __init__(self, site: RankSite, trace: Optional[Trace] = None):
        self.site = site
        self.sim: Simulator = site.device.sim
        self.trace = trace if trace is not None else Trace(self.sim)
        #: handles submitted and not yet retired (for diagnostics)
        self.outstanding: List[OpHandle] = []
        #: per-operation kernel-launch driver calls
        self.kernel_launches = 0
        #: kernel launches retried after an injected driver failure
        self.launch_retries = 0

    # -- core operations -----------------------------------------------------
    @abstractmethod
    def submit(self, op: KernelOp, label: str = "") -> SchemeGen:
        """Submit one operation; generator returning an :class:`OpHandle`.

        Scheme-specific CPU costs (launch, enqueue, sync...) are charged
        inline — the caller's process is blocked for exactly that time.
        """

    def flush(self) -> SchemeGen:
        """Sync-point notification (§IV-C scenario 1).

        Called when the progress engine reaches ``MPI_Waitall`` and has
        no further operations to submit; batching schemes must launch
        everything pending.  Default: no-op.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def wait(self, handles: Sequence[OpHandle]) -> SchemeGen:
        """Block until every handle completes, charging scheme costs.

        Default implementation waits on the simulation events and
        charges the blocked time to ``PACK`` (the CPU is stalled behind
        actual pack/unpack execution).  Polling schemes override to
        split the cost between ``SYNC`` (queries) and ``PACK``.
        """
        pending = [h for h in handles if not h.done]
        if not pending:
            return
        start = self.sim.now
        yield self.sim.all_of([h.done_event for h in pending])
        self.trace.charge(Category.PACK, start, self.sim.now, label="wait")

    def progress_tick(self) -> SchemeGen:
        """One progress-engine iteration's scheme-side CPU work.

        Called by ``waitall`` on every poll iteration while holding the
        rank's CPU.  Schemes that busy-poll the GPU consume real CPU
        time here — GPU-Async pays one ``cudaEventQuery`` per
        outstanding event, the fused design one response-flag read per
        outstanding request — which delays everything else the progress
        engine could be doing (the §V-B "Sync."/"Scheduling" penalty).
        Default: no cost.
        """
        return
        yield  # pragma: no cover - generator marker

    def quiescent(self) -> bool:
        """Whether :meth:`flush` then :meth:`progress_tick`, run now,
        would charge no simulated time and change no state.

        While it holds (and the rank's CPU is free), the progress loop
        skips its poll ticks instead of waking for each one
        (docs/performance.md, "Idle polls").  A scheme whose poll
        depends on the clock alone must answer ``False``.  Default:
        ``True``, matching the no-op defaults above.
        """
        return True

    # -- small helpers for subclasses ------------------------------------------
    def _charge(self, category: Category, duration: float, label: str = "") -> SchemeGen:
        """Advance the clock by ``duration`` and charge it to ``category``."""
        if duration > 0:
            start = self.sim.now
            yield self.sim.timeout(duration)
            self.trace.charge(category, start, self.sim.now, label=label)

    def _launch_overhead(self, label: str = "") -> SchemeGen:
        """Pay one kernel-launch driver call, surviving injected failures.

        Under an attached :class:`~repro.sim.faults.FaultPlan` a launch
        can fail at the driver; the scheme retries it with capped
        exponential backoff (retries counted in
        :attr:`launch_retries`, backoff charged to ``SYNC``).  Without a
        plan this is exactly one ``LAUNCH`` charge — the clean timeline
        is untouched.
        """
        arch = self.site.device.arch
        faults = self.sim.faults
        self.kernel_launches += 1
        yield from self._charge(Category.LAUNCH, arch.kernel_launch_overhead, label)
        if faults is None:
            return
        backoff = arch.kernel_launch_overhead
        attempts = 0
        while faults.launch_fails():
            self.launch_retries += 1
            attempts += 1
            if attempts >= MAX_LAUNCH_ATTEMPTS:
                raise FaultError(
                    f"{self.name}: kernel launch still failing after "
                    f"{attempts} attempts"
                )
            yield from self._charge(Category.SYNC, backoff, f"{label}:backoff")
            backoff = min(
                backoff * 2.0, LAUNCH_BACKOFF_CAP_FACTOR * arch.kernel_launch_overhead
            )
            yield from self._charge(
                Category.LAUNCH, arch.kernel_launch_overhead, label
            )

    def _discovered(self, done: Event, extra_delay) -> Event:
        """Event firing when the *progress engine notices* completion.

        Polled schemes do not act at the GPU's completion instant; they
        act when the next poll sweep finds the operation done.  The
        returned event fires ``extra_delay()`` seconds (evaluated at
        completion time) after ``done`` — half a poll interval plus the
        per-outstanding-operation query costs, typically.  Blocking
        schemes (GPU-Sync, hybrid CPU path) have no discovery latency
        and use ``done`` directly.
        """
        if done.processed:
            return done
        visible = Event(self.sim, name="discovery")

        def discover(_ev: Event) -> None:
            delay = extra_delay()
            if delay > 0:
                self.sim.timeout(delay).add_callback(lambda _t: visible.succeed())
            else:
                visible.succeed()

        # A callback, not a process: no bootstrap and no termination.
        done.add_callback(discover)
        return visible

    def _handle(self, op: KernelOp, done: Event, uid: int = -1, label: str = "") -> OpHandle:
        handle = OpHandle(
            op=op, done_event=done, uid=uid, label=label, submitted_at=self.sim.now
        )
        if not done.processed:
            self.outstanding.append(handle)
            done.add_callback(lambda _ev: self._retire(handle))
        return handle

    def _retire(self, handle: OpHandle) -> None:
        try:
            self.outstanding.remove(handle)
        except ValueError:  # pragma: no cover - double completion guard
            pass

    # -- lifecycle ------------------------------------------------------------
    def reset(self) -> None:
        """Per-iteration reset (benchmark harness hook)."""
        self.outstanding.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} on {self.site.device.name}>"
