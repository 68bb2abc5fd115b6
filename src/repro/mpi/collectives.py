"""The one collective over the point-to-point runtime: :func:`allreduce`.

The small convergence-check reduction of iterative solvers
(``examples/jacobi2d.py``), implemented with the same nonblocking
primitives an MPI library would lower it to.  It is a generator to be
driven inside a rank's simulation process, like every other
CPU-consuming call.  Its tags are drawn from a reserved high range so
they never collide with application traffic.
"""

from __future__ import annotations

from typing import Generator

from ..datatypes.layout import DataLayout
from .communicator import Rank

__all__ = ["allreduce"]

#: base tag of the reserved collective range
_COLL_TAG = 1 << 20


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
