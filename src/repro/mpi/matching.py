"""Message matching: posted-receive and unexpected-message queues.

Implements the MPI matching rules the receiver side of the framework
depends on (§IV-B2): an incoming envelope matches the oldest posted
receive with the same ``(source, tag)`` — wildcards allowed — and
otherwise parks in the unexpected queue until a matching ``MPI_Irecv``
arrives.  Matching order preserves MPI's non-overtaking guarantee
because both queues are FIFO and envelopes from one sender are
delivered in issue order by the runtime.

The paper's receiver-side design distinguishes exactly these two cases:
for *expected* messages a callback enqueues the unpack request the
moment data lands; for *unexpected* messages the enqueue happens when
the application finally posts the receive.  :class:`MatchingEngine`
surfaces that via the ``expected`` flag on the match result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..sim.engine import Event, Simulator
from .request import RecvRequest

__all__ = ["ANY_SOURCE", "ANY_TAG", "MessageRecord", "MatchResult", "MatchingEngine"]

#: wildcard source (``MPI_ANY_SOURCE``)
ANY_SOURCE = -1
#: wildcard tag (``MPI_ANY_TAG``)
ANY_TAG = -1


@dataclass
class MessageRecord:
    """Receiver-side state of one incoming message.

    Created when the envelope (eager header or rendezvous RTS) arrives.
    ``cts_event`` and ``payload_ready`` are the protocol rendezvous
    points.  A message's bytes land in its receive's memory when the
    transfer ends; ``payload`` holds a packed copy only while an eager
    message waits for its match.
    """

    seq: int
    source: int
    dest: int
    tag: int
    nbytes: int
    protocol: str
    sim: Simulator
    #: packed copy of an eager payload that arrived before its match
    payload: Optional[np.ndarray] = None
    #: fires when the receiver has matched + sent clear-to-send (RPUT)
    cts_event: Event = None  # type: ignore[assignment]
    #: fires when payload bytes are available at the receiver
    payload_ready: Event = None  # type: ignore[assignment]
    #: fires at the sender when the receiver's FIN arrives (RGET/direct)
    fin_event: Event = None  # type: ignore[assignment]
    #: the receive request this record matched (set at match time)
    matched: Optional[RecvRequest] = None
    #: sender-side context for one-sided reads / DirectIPC
    sender_context: object = None
    #: True once the envelope reached the receiver's matching engine —
    #: duplicate deliveries (watchdog RTS retransmits under fault
    #: injection) are deduplicated on this flag instead of matching twice
    envelope_delivered: bool = False

    def __post_init__(self) -> None:
        if self.cts_event is None:
            self.cts_event = Event(self.sim, name=f"msg{self.seq}:cts")
        if self.payload_ready is None:
            self.payload_ready = Event(self.sim, name=f"msg{self.seq}:payload")
        if self.fin_event is None:
            self.fin_event = Event(self.sim, name=f"msg{self.seq}:fin")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of pairing a receive with an incoming message."""

    record: MessageRecord
    request: RecvRequest
    #: True when the receive was already posted at envelope arrival
    expected: bool


class MatchingEngine:
    """Per-rank matching state."""

    def __init__(self, rank: int):
        self.rank = rank
        self._posted: List[RecvRequest] = []
        self._unexpected: List[MessageRecord] = []
        #: matches produced, oldest first, for the runtime to drain
        self.match_log: List[MatchResult] = []
        self.unexpected_peak = 0

    # -- queries -------------------------------------------------------------
    @staticmethod
    def _matches(request: RecvRequest, record: MessageRecord) -> bool:
        src_ok = request.peer in (ANY_SOURCE, record.source)
        tag_ok = request.tag in (ANY_TAG, record.tag)
        return src_ok and tag_ok

    # -- the two entry points ---------------------------------------------------
    def post_receive(self, request: RecvRequest) -> Optional[MatchResult]:
        """Register an ``MPI_Irecv``; matches the unexpected queue first."""
        for i, record in enumerate(self._unexpected):
            if self._matches(request, record):
                del self._unexpected[i]
                return self._pair(record, request, expected=False)
        self._posted.append(request)
        return None

    def deliver_envelope(self, record: MessageRecord) -> Optional[MatchResult]:
        """Process an arriving envelope; matches posted receives first."""
        for i, request in enumerate(self._posted):
            if self._matches(request, record):
                del self._posted[i]
                return self._pair(record, request, expected=True)
        self._unexpected.append(record)
        self.unexpected_peak = max(self.unexpected_peak, len(self._unexpected))
        return None

    def _pair(
        self, record: MessageRecord, request: RecvRequest, expected: bool
    ) -> MatchResult:
        if record.nbytes > request.layout.size:
            raise ValueError(
                f"message of {record.nbytes} B truncated into receive of "
                f"{request.layout.size} B (rank {self.rank}, tag {record.tag})"
            )
        record.matched = request
        request.record = record
        result = MatchResult(record=record, request=request, expected=expected)
        self.match_log.append(result)
        return result
