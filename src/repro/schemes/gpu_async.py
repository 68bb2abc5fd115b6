"""GPU-Async: the event-based asynchronous baseline (Chu et al. [23]).

Kernels are spread round-robin over a pool of CUDA streams and tracked
with ``cudaEventRecord`` / ``cudaEventQuery`` instead of blocking
synchronization — the *ASYNCHRONOUS* timeline of Fig. 2.  Overlap
between packing kernels (and with communication) becomes possible, but
every operation still pays:

* a full kernel launch (``LAUNCH``),
* an event record (``SCHED``; only its CPU cost is modelled — the
  completion the queries look for is the kernel's own event),
* repeated event queries while the progress engine waits (``SYNC``).

The paper's key observation (§V-B) is that on modern GPUs the pack
kernels are so short that these per-operation CUDA API costs *exceed*
the overlap they buy — GPU-Async often loses to plain GPU-Sync on
fast-interconnect machines (Fig. 10) and only wins where slow PCIe
stretches the overlap window (Fig. 13c/d).
"""

from __future__ import annotations

from typing import List, Sequence

from ..gpu.kernels import KernelOp
from ..gpu.stream import Stream
from ..net.topology import RankSite
from ..sim.engine import Event
from ..sim.trace import Category, Trace
from . import base
from .base import OpHandle, PackingScheme, SchemeCapabilities, SchemeGen

__all__ = ["GPUAsyncScheme"]

#: CUDA streams the operations are spread over, round-robin
NUM_STREAMS = 4


class GPUAsyncScheme(PackingScheme):
    """Asynchronous multi-stream kernels tracked by CUDA events."""

    name = "GPU-Async"
    capabilities = SchemeCapabilities(
        layout_cache=False,
        driver_overhead="high",
        latency="medium",
        overlap="high",
    )

    def __init__(
        self,
        site: RankSite,
        trace: Trace | None = None,
        *,
        pipeline_chunks: int = 2,
    ):
        super().__init__(site, trace)
        if pipeline_chunks < 1:
            raise ValueError(f"pipeline_chunks must be >= 1, got {pipeline_chunks}")
        device = site.device
        self.streams: List[Stream] = [device.default_stream] + [
            device.create_stream() for _ in range(NUM_STREAMS - 1)
        ]
        #: chunks each operation is pipelined into (each chunk = one
        #: kernel launch + one event record, per the design of [23])
        self.pipeline_chunks = pipeline_chunks
        self._next_stream = 0
        #: (kernel-completion event, progress-visible event) pairs whose
        #: completion the progress engine has not yet discovered
        self._undiscovered: List[tuple] = []

    def _pick_stream(self) -> Stream:
        stream = self.streams[self._next_stream]
        self._next_stream = (self._next_stream + 1) % len(self.streams)
        return stream

    def submit(self, op: KernelOp, label: str = "") -> SchemeGen:
        """Pipeline the operation into chunks, each launched + evented.

        The design of [23] splits each pack/unpack into pipeline stages
        to overlap stages with communication; every stage costs a full
        kernel launch plus a ``cudaEventRecord``.  On modern GPUs the
        kernels are so short that this per-stage overhead is exactly
        what Fig. 1 shows dominating — the mechanism that lets plain
        GPU-Sync beat this scheme on Lassen (Fig. 10).
        """
        arch = self.site.device.arch
        stream = self._pick_stream()
        chunks = self.pipeline_chunks
        chunk_compute = max(0.0, op.duration - arch.kernel_fixed_cost) / chunks
        done = None
        for chunk in range(chunks):
            yield from self._launch_overhead(f"{label}#{chunk}")
            duration = arch.kernel_fixed_cost + chunk_compute
            if chunk == chunks - 1:
                done = stream.enqueue_callable(duration, op.apply, value=op)
            else:
                # Only the last chunk's completion is ever awaited.
                stream.occupy(duration)
            # cudaEventRecord's driver cost.
            yield from self._charge(
                Category.SCHED, arch.event_record_overhead, f"{label}#{chunk}"
            )
        # Completion becomes actionable only when a progress-engine
        # query sweep discovers the *last* chunk's event.
        visible = Event(self.sim, name=f"visible:{label}")
        self._undiscovered.append((done, visible))
        return self._handle(op, visible, label=label)

    def _sweep(self) -> SchemeGen:
        """One query sweep: pay per-event cost, publish completions."""
        if not self._undiscovered:
            return
        arch = self.site.device.arch
        yield from self._charge(
            Category.SYNC,
            arch.event_query_overhead * len(self._undiscovered),
            "query-sweep",
        )
        still = []
        for done, visible in self._undiscovered:
            if done.processed:
                visible.succeed()
            else:
                still.append((done, visible))
        self._undiscovered = still

    def progress_tick(self) -> SchemeGen:
        """``cudaEventQuery`` every undiscovered event, every tick.

        This is real, serialized CPU time in the progress engine: with
        N outstanding transfers every poll costs N queries, so the
        total query burden grows quadratically with the bulk size — the
        "extra synchronizations ... adding more penalties" of §V-B.
        """
        yield from self._sweep()

    def quiescent(self) -> bool:
        """A tick only sweeps while some event is still undiscovered."""
        return not self._undiscovered

    def wait(self, handles: Sequence[OpHandle]) -> SchemeGen:
        """Busy-poll with ``cudaEventQuery`` until all handles complete."""
        while True:
            yield from self._sweep()
            pending = [h for h in handles if not h.done]
            if not pending:
                return
            start = self.sim.now
            # Wake when any underlying kernel finishes or a tick passes.
            watch = [done for done, _vis in self._undiscovered]
            watch.append(self.sim.timeout(base.POLL_INTERVAL))
            yield self.sim.any_of(watch)
            self.trace.charge(Category.PACK, start, self.sim.now, label="wait")
