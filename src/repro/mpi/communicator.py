"""The MPI-like runtime: ranks, nonblocking point-to-point, progress.

:class:`Runtime` owns a :class:`~repro.net.topology.Cluster` and one
:class:`Rank` per MPI process.  A rank exposes the communication API
the paper's three usage styles (Algorithms 1–3) are written against:

* ``isend`` / ``irecv`` / ``waitall`` — nonblocking transfers of
  derived-datatype buffers (Algorithm 3, the style the fusion framework
  accelerates),
* ``pack`` / ``unpack`` — blocking MPI-level explicit packing
  (Algorithm 1),
* plain ``send`` / ``recv`` conveniences.

Application code runs as simulation processes; every CPU-charging call
is a generator (``yield from rank.isend(...)``).  A per-rank capacity-1
CPU lock serializes all CPU work of one rank — the single-threaded
progress engine configuration the paper evaluates (§IV-A2) — while GPU
kernels and wire transfers proceed concurrently on their own resources.

The datatype-processing scheme is injected per rank via a factory, so
the same application code runs unchanged under GPU-Sync, GPU-Async,
CPU-GPU-Hybrid, the naive production path, or the proposed dynamic
kernel fusion.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, Iterable, List, Optional, Union

import numpy as np

from ..config import ProtocolCfg
from ..datatypes.base import Datatype
from ..datatypes.cache import LayoutCache
from ..datatypes.layout import DataLayout
from ..datatypes.pack import unpack_bytes
from ..gpu.memory import BufferPool, GPUBuffer
from ..net.topology import Cluster, RankSite
from ..schemes import base as schemes_base
from ..schemes.base import PackingScheme
from ..sim.engine import CompletionWatch, Event, Simulator
from ..sim.trace import Category, Trace
from .matching import ANY_SOURCE, MatchingEngine, MessageRecord
from .protocols import (
    DIRECT,
    EAGER,
    RGET,
    RPUT,
    WatchdogStats,
    receiver_pull_rget,
    sender_direct,
    sender_eager,
    sender_rget,
    sender_rput,
)
from .request import RecvRequest, Request, SendRequest

__all__ = ["Runtime", "Rank"]

SchemeFactory = Callable[[RankSite, Trace], PackingScheme]
TypeArg = Union[Datatype, DataLayout]

#: CPU cost of one layout extraction: base + per-block walk
FLATTEN_BASE_COST = 5e-7
FLATTEN_BLOCK_COST = 4e-9


class Runtime:
    """One MPI job: a cluster plus a rank per process."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        scheme_factory: SchemeFactory,
        *,
        protocol: ProtocolCfg = ProtocolCfg(),
    ):
        self.sim = sim
        self.cluster = cluster
        #: the validated transport sub-config this runtime was built from
        self.protocol = protocol
        self.rendezvous_protocol = protocol.rendezvous
        self.enable_direct_ipc = protocol.enable_direct_ipc
        self.eager_threshold = (
            cluster.system.eager_threshold
            if protocol.eager_threshold is None
            else protocol.eager_threshold
        )
        #: datatype layout cache of [24]: when disabled, every message
        #: pays the flatten cost (the Table I "Layout Cache" column made
        #: measurable; see the cache ablation benchmark)
        self.layout_cache_enabled = protocol.layout_cache_enabled
        #: control-plane counters: first RTS sends, plus the recovery
        #: actions (RTS retransmits, CTS re-offers) that only fault
        #: injection makes nonzero
        self.recovery = WatchdogStats()
        self._seq = itertools.count()
        self.ranks: List[Rank] = [
            Rank(self, cluster.site(r), scheme_factory) for r in range(cluster.size)
        ]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.ranks)

    def rank(self, index: int) -> "Rank":
        """The rank object for MPI rank ``index``."""
        return self.ranks[index]

    # -- internal plumbing -------------------------------------------------------
    def _next_seq(self) -> int:
        return next(self._seq)

    def _deliver_envelope(self, record: MessageRecord, delay: Optional[float] = None) -> None:
        """Ship an envelope (eager header / RTS) to the destination rank.

        Under fault injection a rendezvous RTS may be dropped on the
        wire (the sender's control watchdog retransmits it), and a
        *duplicate* RTS — one the watchdog re-sent — is deduplicated at
        the receiver: matching runs exactly once, and the only effect of
        a duplicate is re-offering a CTS the fabric may have eaten.
        """
        if delay is None:
            delay = self.cluster.control_latency(record.source, record.dest)
        faults = self.sim.faults
        dropped = (
            faults is not None
            and record.protocol in (RPUT, RGET)
            and faults.drop_control("rts")
        )

        def deliver(_ev: Event) -> None:
            if dropped:
                return  # lost on the fabric; the sender watchdog re-sends
            dest = self.ranks[record.dest]
            if record.envelope_delivered:
                # Duplicate RTS from a watchdog retransmit.
                if self._send_cts(record):
                    self.recovery.cts_resends += 1
                return
            record.envelope_delivered = True
            result = dest.matching.deliver_envelope(record)
            if result is not None:
                self._on_match(dest, result)

        if delay > 0:
            carrier: Event = self.sim.timeout(delay)
        else:
            carrier = Event(self.sim)
            carrier.succeed()
        carrier.add_callback(deliver)

    def _send_cts(self, record: MessageRecord) -> bool:
        """Offer the CTS for a matched RPUT message.

        Returns True when a CTS actually left.  A lost CTS is never
        retransmitted directly — the sender's RTS watchdog times out,
        its duplicate RTS reaches us, and we offer again.  No-op for
        CTS-less protocols, unmatched records, and already-sent CTS.
        """
        rreq = record.matched
        if rreq is None or record.protocol != RPUT:
            return False
        if record.cts_event.triggered:
            return False
        faults = self.sim.faults
        if faults is not None and faults.drop_control("cts"):
            return False  # eaten by the fabric; sender will re-RTS
        record.cts_event.succeed(
            delay=self.cluster.control_latency(rreq.rank, record.source)
        )
        return True

    def _on_match(self, rank: "Rank", result) -> None:
        """Receiver-side reactions once a message is matched (§IV-B2)."""
        record: MessageRecord = result.record
        rreq: RecvRequest = result.request
        if record.protocol == RPUT:
            # CTS travels back to the sender (may be lost under faults;
            # the sender's watchdog then provokes a re-offer).
            self._send_cts(record)
            self._start_unpack(rank, rreq, record)
        elif record.protocol == RGET:
            self.sim.process(
                receiver_pull_rget(self, rank, rreq, record), name=f"rget:msg{record.seq}"
            )
            self._start_unpack(rank, rreq, record)
        elif record.protocol == EAGER:
            # An eager payload is already here: land its packed copy.
            self._land_payload(record, record.payload)
            self._start_unpack(rank, rreq, record)
        elif record.protocol == DIRECT:
            self.sim.process(self._receiver_direct(rank, rreq), name=f"ipc:msg{record.seq}")
        else:  # pragma: no cover - protocol set is closed
            raise AssertionError(f"unknown protocol {record.protocol!r}")

    def _land_payload(self, record: MessageRecord, packed: Optional[np.ndarray]) -> None:
        """Put a message's packed bytes where its receive reads them.

        Called when the message's transfer ends, with the sender's
        packed bytes read in place.  The message lands in the prefix of
        the receive layout it fills (:meth:`DataLayout.prefix`), so the
        receive's bytes past a short message stay as they were.  A
        non-contiguous prefix gets its staging from the receiving rank's
        pool and the bytes go straight into it.  A contiguous one (an
        empty message's among them) gets its bytes written into the
        user buffer, with no staging and no kernel.  An eager message
        is not matched yet when its payload arrives, since its envelope
        travels with it: it keeps one packed copy in ``record.payload``,
        which :meth:`_on_match` lands through this same method.
        ``packed`` is ``None`` in dry mode: staging is still acquired,
        but no byte moves.
        """
        rreq = record.matched
        if rreq is None:
            record.payload = None if packed is None else packed.copy()
            return
        record.payload = None
        nbytes = record.nbytes
        assert packed is None or len(packed) == nbytes
        layout = rreq.layout.prefix(nbytes)
        if layout.is_contiguous:
            if packed is not None:
                store, store_layout, offset = rreq.user_buffer.address(
                    DataLayout.contiguous(nbytes), rreq.user_offset
                )
                unpack_bytes(packed, store_layout, store, base_offset=offset)
            return
        staging = self.ranks[record.dest].staging_pool.acquire(
            nbytes, name=f"rstage:req{rreq.req_id}"
        )
        if packed is not None:
            staging.data[:nbytes] = packed
        rreq.staging = staging

    def _start_unpack(self, rank: "Rank", rreq: RecvRequest, record: MessageRecord) -> None:
        """Spawn the unpack process, started by the payload's arrival
        unless that is already under way (then it bootstraps)."""
        self.sim.process(
            self._receiver_unpack(rank, rreq),
            name=f"unpack:msg{record.seq}",
            start=record.payload_ready,
        )

    def _receiver_unpack(self, rank: "Rank", rreq: RecvRequest) -> Generator:
        """Unpack the landed payload into the user buffer (the §IV-B2
        callback).  :meth:`_land_payload` already put a contiguous
        receive's bytes in place and a non-contiguous one's in staging."""
        record = rreq.record
        assert record is not None
        yield record.payload_ready
        layout = rreq.layout.prefix(record.nbytes)
        if layout.is_contiguous:
            rreq._complete()
            return
        origin = getattr(rreq, "origin_datatype", None)
        if origin is not None and not isinstance(origin, DataLayout):
            yield from rank.resolve_layout_timed(origin)
        staging = rreq.staging
        assert staging is not None
        op = rank.device.unpack_op(
            staging,
            layout,
            rreq.user_buffer,
            dest_offset=rreq.user_offset,
            label=f"unpack:req{rreq.req_id}",
        )
        yield rank.cpu.request()
        try:
            handle = yield from rank.scheme.submit(op, label=f"unpack:req{rreq.req_id}")
        finally:
            rank.cpu.release()
        rreq.op_handle = handle
        yield handle.done_event
        rank.staging_pool.release(staging)
        rreq.staging = None
        rreq._complete()

    def _receiver_direct(self, rank: "Rank", rreq: RecvRequest) -> Generator:
        """DirectIPC receive: fuse a peer load-store kernel [24]."""
        record = rreq.record
        assert record is not None
        sreq: SendRequest = record.sender_context
        op = rank.device.direct_ipc_op(
            sreq.user_buffer,
            sreq.layout.shifted(sreq.user_offset),
            rreq.user_buffer,
            rreq.layout.prefix(sreq.nbytes).shifted(rreq.user_offset),
            peer_bandwidth=self.cluster.system.gpu_gpu.bandwidth,
            label=f"ipc:req{rreq.req_id}",
        )
        yield rank.cpu.request()
        try:
            handle = yield from rank.scheme.submit(op, label=f"ipc:req{rreq.req_id}")
        finally:
            rank.cpu.release()
        rreq.op_handle = handle
        yield handle.done_event
        record.fin_event.succeed(
            delay=self.cluster.control_latency(rreq.rank, record.source)
        )
        rreq._complete()

    def _release_send_staging(self, sreq: SendRequest) -> None:
        if sreq.staging is not None:
            self.ranks[sreq.rank].staging_pool.release(sreq.staging)
            sreq.staging = None


_SENDER_PROCS = {
    EAGER: sender_eager,
    RPUT: sender_rput,
    RGET: sender_rget,
    DIRECT: sender_direct,
}


class Rank:
    """One MPI process: the user-facing communication API."""

    def __init__(self, runtime: Runtime, site: RankSite, scheme_factory: SchemeFactory):
        from ..sim.resources import Resource  # local import avoids cycle at module load

        self.runtime = runtime
        self.site = site
        self.sim: Simulator = runtime.sim
        self.rank_id = site.rank
        self.device = site.device
        self.trace = Trace(self.sim)
        self.scheme: PackingScheme = scheme_factory(site, self.trace)
        #: the rank's row on the event stream: cost spans, fusion and
        #: request lifecycle events, RTS instants
        self.trace.track = f"{self.scheme.name}/rank{self.rank_id}"
        self.matching = MatchingEngine(self.rank_id)
        #: serializes all CPU work of this rank (single-threaded progress)
        self.cpu = Resource(self.sim, capacity=1, name=f"r{self.rank_id}:cpu")
        #: this rank's only layout store, keyed by ``(datatype, count)``
        self.layout_cache = LayoutCache()
        #: registered staging-buffer pool (real runtimes never
        #: cudaMalloc per message; see docs/cost_model.md)
        self.staging_pool = BufferPool(
            self.device.memory, functional=self.device.functional
        )

    # -- argument validation ----------------------------------------------------
    def _validate_endpoint(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.runtime.size:
            raise ValueError(
                f"{what} rank {peer} outside communicator of size "
                f"{self.runtime.size}"
            )
        if peer == self.rank_id:
            raise ValueError(f"self-messaging is not supported ({what}={peer})")

    @staticmethod
    def _validate_buffer(
        buffer: GPUBuffer, layout: DataLayout, offset: int, what: str
    ) -> None:
        if layout.num_blocks == 0:
            return
        lo = int(layout.offsets[0]) + offset
        hi = int(layout.offsets[-1] + layout.lengths[-1]) + offset
        if lo < 0 or hi > buffer.nbytes:
            raise ValueError(
                f"{what} layout spans [{lo}, {hi}) outside buffer "
                f"{buffer.name} of {buffer.nbytes} B"
            )

    # -- datatype handling -----------------------------------------------------
    def resolve_layout(self, datatype: TypeArg, count: int = 1) -> DataLayout:
        """Flattened layout of ``count`` instances (cached per rank).

        Free of simulated cost — use :meth:`resolve_layout_timed` on
        per-message paths where layout extraction consumes CPU.
        """
        if isinstance(datatype, DataLayout):
            return datatype.replicate(count) if count != 1 else datatype
        return self.layout_cache.layout(datatype, count)

    def resolve_layout_timed(
        self, datatype: TypeArg, count: int = 1
    ) -> Generator[Event, None, DataLayout]:
        """Layout lookup that charges flatten cost on a cache miss.

        Models the datatype-processing economics of [24]: a committed
        type's layout is extracted ("flattened on the fly") the first
        time it is used and cached; with the cache disabled
        (``ProtocolCfg(layout_cache_enabled=False)``) every message re-walks
        the datatype tree — base cost plus a per-block term — charged
        to the ``SCHED`` bucket of this rank's trace.
        """
        if isinstance(datatype, DataLayout):
            return datatype.replicate(count) if count != 1 else datatype
        key = (datatype, count)
        cache = self.layout_cache
        layout = cache.lookup(key)
        if layout is not None:
            return layout
        layout = cache.layout(datatype, count)
        if self.runtime.layout_cache_enabled:
            cache.insert(key, layout)
        cost = FLATTEN_BASE_COST + layout.num_blocks * FLATTEN_BLOCK_COST
        start = self.sim.now
        yield self.sim.timeout(cost)
        self.trace.charge(Category.SCHED, start, self.sim.now, label="flatten")
        return layout

    # -- nonblocking API ------------------------------------------------------------
    def isend(
        self,
        buffer: GPUBuffer,
        datatype: TypeArg,
        count: int,
        dest: int,
        tag: int = 0,
        offset: int = 0,
    ) -> Generator[Event, None, SendRequest]:
        """Nonblocking send of ``count`` datatype instances.

        Generator: drive with ``yield from``; returns the
        :class:`SendRequest`.  For non-contiguous layouts the packing
        operation is submitted to this rank's scheme *inline* — exactly
        where the schemes differ (GPU-Sync blocks here; the fusion
        design only enqueues).
        """
        self._validate_endpoint(dest, "dest")
        layout = yield from self.resolve_layout_timed(datatype, count)
        self._validate_buffer(buffer, layout, offset, "send")
        sreq = SendRequest(
            self.sim, self.rank_id, dest, tag, layout, buffer, offset
        )
        use_direct = (
            self.runtime.enable_direct_ipc
            and dest != self.rank_id
            and self.runtime.cluster.same_node(self.rank_id, dest)
        )
        if use_direct:
            protocol = DIRECT
        elif layout.size <= self.runtime.eager_threshold:
            protocol = EAGER
        else:
            protocol = self.runtime.rendezvous_protocol
        sreq.protocol = protocol

        if protocol != DIRECT and not layout.is_contiguous:
            staging = self.staging_pool.acquire(layout.size, name=f"sstage:req{sreq.req_id}")
            op = self.device.pack_op(
                buffer,
                layout,
                staging,
                source_offset=offset,
                label=f"pack:req{sreq.req_id}",
            )
            yield self.cpu.request()
            try:
                handle = yield from self.scheme.submit(op, label=f"pack:req{sreq.req_id}")
                # Every MPI call enters the progress engine once — so a
                # bulk of isends pays the scheme's per-call completion
                # poll over everything already outstanding (this is
                # where GPU-Async's event queries pile up, §V-B).
                yield from self.scheme.progress_tick()
            finally:
                self.cpu.release()
            sreq.op_handle = handle
            sreq.staging = staging

        record = MessageRecord(
            seq=self.runtime._next_seq(),
            source=self.rank_id,
            dest=dest,
            tag=tag,
            nbytes=layout.size,
            protocol=protocol,
            sim=self.sim,
        )
        # The eager sender's first wait is the pack: start it there.
        start = (
            sreq.op_handle.done_event
            if protocol == EAGER and sreq.op_handle is not None
            else None
        )
        self.sim.process(
            _SENDER_PROCS[protocol](self.runtime, self, sreq, record),
            name=f"send:msg{record.seq}",
            start=start,
        )
        return sreq

    def irecv(
        self,
        buffer: GPUBuffer,
        datatype: TypeArg,
        count: int,
        source: int,
        tag: int = 0,
        offset: int = 0,
    ) -> RecvRequest:
        """Nonblocking receive (posting is cheap; returns immediately)."""
        if source != ANY_SOURCE:
            self._validate_endpoint(source, "source")
        layout = self.resolve_layout(datatype, count)
        self._validate_buffer(buffer, layout, offset, "receive")
        rreq = RecvRequest(self.sim, self.rank_id, source, tag, layout, buffer, offset)
        rreq.origin_datatype = datatype
        result = self.matching.post_receive(rreq)
        if result is not None:
            self.runtime._on_match(self, result)
        return rreq

    # -- completion --------------------------------------------------------------
    def waitall(self, requests: Iterable[Request]) -> Generator[Event, None, None]:
        """Block until all requests complete (``MPI_Waitall``).

        Each iteration of the progress loop holds the CPU for the
        scheme's sync-point flush (§IV-C scenario 1: "the communication
        progress engine has no more operations to request") and progress
        tick, then sleeps until a request completes or the poll interval
        elapses.  The pending set is taken once, after the first flush;
        from then on a :class:`~repro.sim.engine.CompletionWatch` counts
        completions, so a bulk of N requests costs O(N) bookkeeping
        however many poll wakes the wait takes.  Poll ticks that land
        while :meth:`_idle` holds are skipped by the watch: such a poll
        would cost nothing and change nothing.
        """
        reqs = list(requests)
        watch = None
        while True:
            yield self.cpu.request()
            try:
                yield from self.scheme.flush()
                yield from self.scheme.progress_tick()
            finally:
                self.cpu.release()
            if watch is None:
                watch = CompletionWatch(
                    self.sim, [r.completion for r in reqs if not r.done]
                )
            if watch.remaining == 0:
                return
            yield watch.sleep(schemes_base.POLL_INTERVAL, self._idle)

    def _idle(self) -> bool:
        """Whether a progress poll now would be a no-op: the CPU is free
        with nobody queued and the scheme is quiescent."""
        return self.cpu.idle and self.scheme.quiescent()

    # -- blocking conveniences ------------------------------------------------------
    def send(
        self,
        buffer: GPUBuffer,
        datatype: TypeArg,
        count: int,
        dest: int,
        tag: int = 0,
        offset: int = 0,
    ) -> Generator[Event, None, None]:
        """Blocking send."""
        sreq = yield from self.isend(buffer, datatype, count, dest, tag, offset)
        yield from self.waitall([sreq])

    def recv(
        self,
        buffer: GPUBuffer,
        datatype: TypeArg,
        count: int,
        source: int,
        tag: int = 0,
        offset: int = 0,
    ) -> Generator[Event, None, None]:
        """Blocking receive."""
        rreq = self.irecv(buffer, datatype, count, source, tag, offset)
        yield from self.waitall([rreq])

    # -- MPI-level explicit pack/unpack (Algorithm 1) ----------------------------------
    def pack(
        self,
        buffer: GPUBuffer,
        datatype: TypeArg,
        count: int,
        packed: GPUBuffer,
        *,
        offset: int = 0,
        packed_offset: int = 0,
    ) -> Generator[Event, None, int]:
        """Blocking ``MPI_Pack``; returns packed byte count.

        Blocking semantics mean the scheme must flush and wait at the
        call boundary — the synchronization Algorithm 1 cannot avoid.
        """
        layout = self.resolve_layout(datatype, count)
        op = self.device.pack_op(
            buffer, layout, packed, source_offset=offset, packed_offset=packed_offset
        )
        yield self.cpu.request()
        try:
            handle = yield from self.scheme.submit(op, label="MPI_Pack")
            yield from self.scheme.flush()
            yield from self.scheme.wait([handle])
        finally:
            self.cpu.release()
        return layout.size

    def unpack(
        self,
        packed: GPUBuffer,
        datatype: TypeArg,
        count: int,
        buffer: GPUBuffer,
        *,
        packed_offset: int = 0,
        offset: int = 0,
    ) -> Generator[Event, None, int]:
        """Blocking ``MPI_Unpack``; returns consumed byte count."""
        layout = self.resolve_layout(datatype, count)
        op = self.device.unpack_op(
            packed, layout, buffer, packed_offset=packed_offset, dest_offset=offset
        )
        yield self.cpu.request()
        try:
            handle = yield from self.scheme.submit(op, label="MPI_Unpack")
            yield from self.scheme.flush()
            yield from self.scheme.wait([handle])
        finally:
            self.cpu.release()
        return layout.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rank {self.rank_id} scheme={self.scheme.name}>"
