"""MPI-style request objects.

A :class:`Request` is returned by the nonblocking operations
(``isend``/``irecv``) and consumed by ``waitall``.  Its
``completion`` simulation event fires when the MPI semantics are
satisfied:

* **send**: the user buffer is reusable (payload handed to the wire),
* **recv**: the payload has been unpacked into the user buffer.

Each request also carries its protocol bookkeeping — the pack/unpack
:class:`~repro.schemes.base.OpHandle`, the staging buffer, and the
matched :class:`~repro.mpi.matching.MessageRecord` — which the tests
use to assert protocol behaviour (e.g. RPUT overlaps the handshake with
packing).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..datatypes.layout import DataLayout
from ..gpu.memory import GPUBuffer
from ..schemes.base import OpHandle
from ..sim.engine import Event, Simulator

__all__ = ["Request", "SendRequest", "RecvRequest"]


class Request:
    """Base nonblocking-operation handle."""

    _ids = itertools.count()

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        peer: int,
        tag: int,
        layout: DataLayout,
        user_buffer: GPUBuffer,
        user_offset: int = 0,
    ):
        self.req_id = next(Request._ids)
        self.sim = sim
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.layout = layout
        self.user_buffer = user_buffer
        self.user_offset = user_offset
        self.completion: Event = Event(sim, name=f"req{self.req_id}:done")
        #: pack/unpack handle once submitted to the scheme
        self.op_handle: Optional[OpHandle] = None
        #: staging buffer for the packed representation (None when the
        #: layout is contiguous and staging is skipped)
        self.staging: Optional[GPUBuffer] = None
        self.issued_at = sim.now

    @property
    def done(self) -> bool:
        """True once MPI completion semantics are satisfied."""
        return self.completion.processed

    @property
    def nbytes(self) -> int:
        """Payload size of the message in bytes."""
        return self.layout.size

    def _complete(self) -> None:
        if not self.completion.triggered:
            self.completion.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} #{self.req_id} rank={self.rank} "
            f"peer={self.peer} tag={self.tag} "
            f"{'complete' if self.done else 'active'}>"
        )


class SendRequest(Request):
    """Nonblocking send in flight."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: protocol chosen by the runtime
        #: ("eager" | "rget" | "rput" | "direct")
        self.protocol: str = ""


class RecvRequest(Request):
    """Nonblocking receive in flight."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the matched incoming message, once matching succeeds
        self.record = None  # type: Optional["MessageRecord"]
