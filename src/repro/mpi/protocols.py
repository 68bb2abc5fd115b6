"""Point-to-point wire protocols: eager, rendezvous RGET/RPUT, DirectIPC.

These are the sender- and receiver-side state machines of §IV-B.
Each sender below runs as one simulation process per message (the
eager one starts on its pack's completion rather than on a
bootstrap); envelope delivery and completion discovery are calendar
callbacks, not processes (docs/performance.md, "Per-message
continuations"):

* **eager** — small messages: once packed, envelope and payload travel
  together; the receiver matches on arrival.
* **RGET** — rendezvous where the *receiver* pulls: the sender packs,
  then sends RTS; the receiver RDMA-READs the packed buffer and FINs.
  Packing delays the handshake.
* **RPUT** — rendezvous where the *sender* pushes: RTS goes out
  *before* packing completes, the receiver CTSes as soon as it has
  matched, and the sender writes when ``pack_done AND cts``.  The
  handshake is overlapped with the packing operation — the overlap the
  proposed framework is designed to exploit (§IV-B1).
* **direct** — intra-node zero-copy: no packing at all; the receiver
  fuses a DirectIPC load-store kernel over NVLink/PCIe [24].

Protocol processes never charge CPU-bucket costs themselves (control
packets ride the NIC); CPU costs live in the schemes.  Byte movement
happens at simulated completion instants, keeping memory state
consistent with the clock.

Fault tolerance
---------------
Under an attached :class:`~repro.sim.faults.FaultPlan`, RTS and CTS
control packets can be lost.  Rendezvous senders therefore arm a
**control watchdog** (:func:`arm_control_watchdog`): if the expected
response (CTS for RPUT/PIPELINE, payload pull for RGET) has not arrived
within a retransmission timeout, the RTS is re-sent with capped
exponential backoff.  The receiver deduplicates retransmitted RTS on
the record's ``envelope_delivered`` flag and re-offers a lost CTS, so
duplicates are harmless — MPI matching happens exactly once per
message.  Watchdogs are armed only when a fault plan is attached;
fault-free runs are bit-identical to the watchdog-free implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional


from ..net.transfer import rdma_read, rdma_write
from ..sim.engine import Event, Process
from ..sim.faults import FaultError
from .matching import MessageRecord
from .request import RecvRequest, SendRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .communicator import Rank, Runtime

__all__ = [
    "EAGER",
    "RGET",
    "RPUT",
    "DIRECT",
    "PIPELINE",
    "WatchdogStats",
    "arm_control_watchdog",
    "sender_eager",
    "sender_rput",
    "sender_rget",
    "sender_direct",
    "sender_pipeline",
    "receiver_pull_rget",
]

#: hard cap on RTS retransmissions per message — diagnostic backstop,
#: unreachable for valid fault specs (drop probability <= 0.9)
MAX_CONTROL_RETRANSMITS = 10_000
#: retransmission-timeout growth ceiling, in multiples of the base RTO
WATCHDOG_BACKOFF_CAP = 16.0


@dataclass
class WatchdogStats:
    """Control-plane counters of one :class:`Runtime`."""

    #: rendezvous RTS packets sent (first transmissions only)
    rts_sent: int = 0
    #: RTS packets re-sent by sender watchdogs
    rts_retransmits: int = 0
    #: CTS offers repeated after a duplicate RTS found the CTS lost
    cts_resends: int = 0


def arm_control_watchdog(
    runtime: "Runtime", rank: "Rank", record: MessageRecord, awaited: Event
) -> Optional[Process]:
    """Retransmit ``record``'s RTS until ``awaited`` fires.

    Armed only under fault injection (``sim.faults`` attached) so
    fault-free runs keep their exact event timeline.  The retransmission
    timeout starts at four control one-way latencies plus one progress
    poll interval and doubles per retry, capped at
    :data:`WATCHDOG_BACKOFF_CAP` times the base.
    """
    sim = rank.sim
    if sim.faults is None:
        return None
    base_rto = (
        4.0 * runtime.cluster.control_latency(record.source, record.dest)
        + runtime.poll_interval
    )

    def watchdog() -> Generator[Event, None, None]:
        rto = base_rto
        retransmits = 0
        while not awaited.triggered:
            yield sim.any_of([awaited, sim.timeout(rto)])
            if awaited.triggered:
                return
            retransmits += 1
            if retransmits > MAX_CONTROL_RETRANSMITS:
                raise FaultError(
                    f"msg{record.seq}: control watchdog exhausted after "
                    f"{retransmits} RTS retransmissions"
                )
            runtime.recovery.rts_retransmits += 1
            if sim.obs.enabled:
                sim.obs.instant(
                    "proto", "rts-retransmit", sim.now,
                    track=rank.trace.track, msg=record.seq,
                )
            runtime._deliver_envelope(record)
            rto = min(rto * 2.0, WATCHDOG_BACKOFF_CAP * base_rto)

    return sim.process(watchdog(), name=f"watchdog:msg{record.seq}")

EAGER = "eager"
RGET = "rget"
RPUT = "rput"
DIRECT = "direct"
PIPELINE = "pipeline"


def _note_rts(rank: "Rank", record: MessageRecord) -> None:
    """Count a first (non-retransmitted) rendezvous RTS."""
    rank.runtime.recovery.rts_sent += 1
    obs = rank.sim.obs
    if obs.enabled:
        obs.instant(
            "proto", "rts", rank.sim.now,
            track=rank.trace.track,
            msg=record.seq, dest=record.dest, protocol=record.protocol,
        )


def _snapshot_payload(sreq: SendRequest):
    """Copy the packed bytes out of the sender's staging at wire time.

    Returns ``None`` in dry (non-functional) mode — timing is identical
    and the receiver skips the byte copies.
    """
    nbytes = sreq.layout.size
    if not sreq.user_buffer.functional:
        return None
    if sreq.staging is not None:
        return sreq.staging.data[:nbytes].copy()
    # Contiguous send: the user buffer region is the packed form.
    start = sreq.user_offset
    return sreq.user_buffer.data[start : start + nbytes].copy()


def _pack_done_event(rank: "Rank", sreq: SendRequest) -> Event:
    """Event firing when the send payload is ready to hit the wire."""
    if sreq.op_handle is not None:
        return sreq.op_handle.done_event
    done = Event(rank.sim, name=f"req{sreq.req_id}:nopack")
    done.succeed()
    return done


def sender_eager(
    runtime: "Runtime", rank: "Rank", sreq: SendRequest, record: MessageRecord
) -> Generator[Event, None, None]:
    """Eager protocol, sender side: pack → (envelope+payload) → done."""
    yield _pack_done_event(rank, sreq)
    snapshot = _snapshot_payload(sreq)
    yield from rdma_write(runtime.cluster, sreq.rank, sreq.peer, sreq.nbytes)
    record.payload = snapshot
    record.payload_ready.succeed()
    runtime._deliver_envelope(record, delay=0.0)
    runtime._release_send_staging(sreq)
    sreq._complete()


def sender_rput(
    runtime: "Runtime", rank: "Rank", sreq: SendRequest, record: MessageRecord
) -> Generator[Event, None, None]:
    """RPUT: RTS early; write when pack completes *and* CTS arrives."""
    _note_rts(rank, record)
    runtime._deliver_envelope(record)  # RTS leaves immediately
    arm_control_watchdog(runtime, rank, record, record.cts_event)
    pack_done = _pack_done_event(rank, sreq)
    yield rank.sim.all_of([pack_done, record.cts_event])
    snapshot = _snapshot_payload(sreq)
    yield from rdma_write(runtime.cluster, sreq.rank, sreq.peer, sreq.nbytes)
    record.payload = snapshot
    # The receiver learns of completion via the FIN packet.
    record.payload_ready.succeed(delay=runtime.cluster.control_latency(sreq.rank, sreq.peer))
    runtime._release_send_staging(sreq)
    sreq._complete()


def sender_rget(
    runtime: "Runtime", rank: "Rank", sreq: SendRequest, record: MessageRecord
) -> Generator[Event, None, None]:
    """RGET: pack first, then RTS; the receiver pulls and FINs."""
    yield _pack_done_event(rank, sreq)
    record.sender_context = sreq
    _note_rts(rank, record)
    runtime._deliver_envelope(record)
    # The pull starting (payload landing) proves the RTS arrived.
    arm_control_watchdog(runtime, rank, record, record.payload_ready)
    yield record.fin_event
    runtime._release_send_staging(sreq)
    sreq._complete()


def sender_direct(
    runtime: "Runtime", rank: "Rank", sreq: SendRequest, record: MessageRecord
) -> Generator[Event, None, None]:
    """DirectIPC: expose the user buffer; the receiver load-stores it."""
    record.sender_context = sreq
    runtime._deliver_envelope(record)
    yield record.fin_event
    sreq._complete()


def sender_pipeline(
    runtime: "Runtime", rank: "Rank", sreq: SendRequest, record: MessageRecord
) -> Generator[Event, None, None]:
    """Host-staged chunked rendezvous (the classic MVAPICH large-message
    path for systems where GPUDirect RDMA underperforms).

    RPUT-style handshake, then the packed payload moves in
    ``runtime.pipeline_chunk_bytes`` chunks through a three-stage
    pipeline: device→host over the sender's CPU–GPU link, host→host
    over the fabric, host→device on the receiver.  Each stage's link
    resource serializes its own chunks, so chunk *k*'s D2H overlaps
    chunk *k−1*'s wire time and chunk *k−2*'s H2D — classic pipelining,
    with the chunk size trading per-chunk latency against overlap
    (see the pipeline ablation benchmark).
    """
    from ..net.transfer import staged_host_copy  # local: avoid cycle at import

    _note_rts(rank, record)
    runtime._deliver_envelope(record)  # RTS leaves immediately
    arm_control_watchdog(runtime, rank, record, record.cts_event)
    pack_done = _pack_done_event(rank, sreq)
    yield rank.sim.all_of([pack_done, record.cts_event])
    snapshot = _snapshot_payload(sreq)

    sim = rank.sim
    cluster = runtime.cluster
    chunk_bytes = runtime.pipeline_chunk_bytes
    total = sreq.nbytes
    chunks = [
        min(chunk_bytes, total - off) for off in range(0, total, chunk_bytes)
    ] or [0]
    done_events = []

    def chunk_flow(nbytes: int):
        yield from staged_host_copy(cluster, sreq.rank, nbytes, to_host=True)
        yield from rdma_write(cluster, sreq.rank, sreq.peer, nbytes)
        yield from staged_host_copy(cluster, sreq.peer, nbytes, to_host=False)

    for nbytes in chunks:
        done_events.append(sim.process(chunk_flow(nbytes), name="pipe-chunk"))
    yield sim.all_of(done_events)

    record.payload = snapshot
    record.payload_ready.succeed()
    runtime._release_send_staging(sreq)
    sreq._complete()


def receiver_pull_rget(
    runtime: "Runtime", rank: "Rank", rreq: RecvRequest, record: MessageRecord
) -> Generator[Event, None, None]:
    """RGET receiver side: RDMA-READ the sender's packed buffer, FIN."""
    yield from rdma_read(runtime.cluster, rreq.rank, record.source, record.nbytes)
    sreq: SendRequest = record.sender_context  # set before RTS was sent
    record.payload = _snapshot_payload(sreq)
    record.payload_ready.succeed()
    record.fin_event.succeed(
        delay=runtime.cluster.control_latency(rreq.rank, record.source)
    )
