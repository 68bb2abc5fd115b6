"""Collective operations over the point-to-point runtime.

The paper situates datatype fusion inside the broader GPU-collectives
literature ([11]–[13]) and its bulk-transfer scenario — "multiple
non-contiguous data transfers to multiple neighbors" — is exactly what
a datatype-typed collective generates.  This module keeps the three
collectives the examples and benchmarks run, implemented with the same
nonblocking primitives an MPI library would lower them to:

* :func:`alltoall` — personalized exchange of one datatype instance per
  peer (the FFT-transpose pattern: every send is non-contiguous, and a
  fusing runtime batches all ``P-1`` packing kernels);
* :func:`neighbor_alltoall` — the halo-exchange collective: per-
  neighbor send/recv datatypes (MPI's
  ``MPI_Neighbor_alltoallw`` shape), used by the halo examples;
* :func:`allreduce` — the small convergence-check reduction of
  iterative solvers (``examples/jacobi2d.py``).

All are generators to be driven inside a rank's simulation process,
like every other CPU-consuming call.  Tags are drawn from a reserved
high range so collectives never collide with application traffic.
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from ..datatypes.layout import DataLayout
from ..datatypes.pack import pack_bytes, unpack_bytes
from ..gpu.memory import GPUBuffer
from .communicator import Rank, TypeArg
from .request import Request

__all__ = ["alltoall", "neighbor_alltoall", "allreduce"]

#: base tag of the reserved collective range
_COLL_TAG = 1 << 20


def alltoall(
    rank: Rank,
    sendbuf: GPUBuffer,
    send_type: TypeArg,
    recvbuf: GPUBuffer,
    recv_type: TypeArg,
    *,
    tag_round: int = 0,
) -> Generator:
    """Personalized all-to-all: one ``send_type`` instance per peer.

    Peer ``p``'s slice of ``sendbuf`` starts at ``p * extent`` (and
    symmetrically for ``recvbuf``) — the MPI ``MPI_Alltoall`` layout
    generalized to derived datatypes.  The rank's own slice is copied
    through the local data path (no self-message).
    """
    runtime = rank.runtime
    me = rank.rank_id
    send_layout = rank.resolve_layout(send_type, 1)
    recv_layout = rank.resolve_layout(recv_type, 1)
    if send_layout.size != recv_layout.size:
        raise ValueError(
            f"alltoall type sizes disagree: send {send_layout.size} != "
            f"recv {recv_layout.size}"
        )
    tag = _COLL_TAG + tag_round
    requests: List[Request] = []
    for peer in range(runtime.size):
        if peer == me:
            continue
        requests.append(
            rank.irecv(
                recvbuf, recv_layout, 1, peer, tag=tag,
                offset=peer * recv_layout.extent,
            )
        )
    for peer in range(runtime.size):
        if peer == me:
            continue
        sreq = yield from rank.isend(
            sendbuf, send_layout, 1, peer, tag=tag,
            offset=peer * send_layout.extent,
        )
        requests.append(sreq)
    # Local slice: direct device copy (free of wire costs, like a real
    # implementation's memcpy path).
    if sendbuf.functional and recvbuf.functional:
        store, layout, offset = sendbuf.address(send_layout, me * send_layout.extent)
        packed = pack_bytes(store, layout, base_offset=offset)
        store, layout, offset = recvbuf.address(recv_layout, me * recv_layout.extent)
        unpack_bytes(packed, layout, store, base_offset=offset)
    yield from rank.waitall(requests)


def neighbor_alltoall(
    rank: Rank,
    buffer: GPUBuffer,
    exchanges: Sequence[tuple],
    *,
    tag_round: int = 0,
) -> Generator:
    """Halo-exchange collective (``MPI_Neighbor_alltoallw`` shape).

    ``exchanges`` entries are either

    * ``(peer, send_type, recv_type)`` — positional pairing: the peer
      must list its mirrored entry at the same index (fine for the
      symmetric two-rank pattern), or
    * ``(peer, send_type, recv_type, send_key, recv_key)`` — keyed
      pairing: a send tagged ``send_key`` matches the peer's receive
      posted with the same ``recv_key``
      (:meth:`repro.mpi.cartesian.CartComm.neighbor_exchanges` emits
      direction-derived keys so boundary ranks with shorter schedules
      still pair correctly).
    """
    span = max(len(exchanges), 64)
    tag0 = _COLL_TAG + (2 << 10) + tag_round * span
    requests: List[Request] = []
    for i, entry in enumerate(exchanges):
        peer, _send_t, recv_t = entry[0], entry[1], entry[2]
        recv_key = entry[4] if len(entry) == 5 else i
        requests.append(rank.irecv(buffer, recv_t, 1, peer, tag=tag0 + recv_key))
    for i, entry in enumerate(exchanges):
        peer, send_t = entry[0], entry[1]
        send_key = entry[3] if len(entry) == 5 else i
        sreq = yield from rank.isend(buffer, send_t, 1, peer, tag=tag0 + send_key)
        requests.append(sreq)
    yield from rank.waitall(requests)


def allreduce(
    rank: Rank,
    values: "np.ndarray",
    *,
    op: str = "sum",
    tag_round: int = 0,
) -> Generator:
    """All-reduce of a small contiguous double array (recursive doubling).

    The convergence-check collective of iterative solvers: every rank
    contributes ``values`` (float64) and receives the elementwise
    reduction.  Returns the reduced array; ``values`` is not modified.
    ``op`` is ``"sum"``, ``"max"``, or ``"min"``.

    Implementation: recursive doubling over the pt2pt runtime for
    power-of-two sizes, with a fold-in pre/post phase otherwise —
    the classic latency-optimal algorithm for small payloads.
    """
    import numpy as np

    reducers = {"sum": np.add, "max": np.maximum, "min": np.minimum}
    if op not in reducers:
        raise ValueError(f"unsupported reduction {op!r}")
    reduce_fn = reducers[op]
    runtime = rank.runtime
    size = runtime.size
    me = rank.rank_id
    acc = np.array(values, dtype=np.float64).copy()
    if size == 1:
        return acc
    nbytes = acc.nbytes
    layout = DataLayout.contiguous(nbytes)
    sendbuf = rank.device.alloc(nbytes)
    recvbuf = rank.device.alloc(nbytes)
    tag0 = _COLL_TAG + (4 << 10) + tag_round * 64
    try:
        # Largest power of two <= size.
        pof2 = 1
        while pof2 * 2 <= size:
            pof2 *= 2
        rem = size - pof2
        in_core = True
        core_rank = me

        if me < 2 * rem:
            if me % 2 == 0:
                # Fold my value into my odd neighbor, then sit out.
                sendbuf.view(np.float64)[:] = acc
                yield from rank.send(sendbuf, layout, 1, me + 1, tag=tag0)
                in_core = False
            else:
                yield from rank.recv(recvbuf, layout, 1, me - 1, tag=tag0)
                acc = reduce_fn(acc, recvbuf.view(np.float64).copy())
                core_rank = me // 2
        else:
            core_rank = me - rem

        if in_core:
            distance = 1
            round_no = 1
            while distance < pof2:
                peer_core = core_rank ^ distance
                peer = peer_core * 2 + 1 if peer_core < rem else peer_core + rem
                tag = tag0 + round_no
                sendbuf.view(np.float64)[:] = acc
                rreq = rank.irecv(recvbuf, layout, 1, peer, tag=tag)
                sreq = yield from rank.isend(sendbuf, layout, 1, peer, tag=tag)
                yield from rank.waitall([rreq, sreq])
                acc = reduce_fn(acc, recvbuf.view(np.float64).copy())
                distance *= 2
                round_no += 1

        # Post phase: hand results back to the folded-out ranks.
        if me < 2 * rem:
            tag = tag0 + 63
            if me % 2 == 1:
                sendbuf.view(np.float64)[:] = acc
                yield from rank.send(sendbuf, layout, 1, me - 1, tag=tag)
            else:
                yield from rank.recv(recvbuf, layout, 1, me + 1, tag=tag)
                acc = recvbuf.view(np.float64).copy()
        return acc
    finally:
        sendbuf.free()
        recvbuf.free()
