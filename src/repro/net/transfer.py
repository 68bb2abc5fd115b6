"""Wire-transfer helpers: one-sided RDMA writes and reads.

These generators are the payload-movement vocabulary of the MPI
protocols: :func:`rdma_write` and :func:`rdma_read` are one-sided
GPUDirect-RDMA moves between two ranks' GPU memories (the eager and
RPUT data path, and the RGET one).

They advance the simulated clock only; the *byte* movement is performed
by the caller at completion (the runtime lands the sender's packed
bytes in the receive's memory when the transfer ends), keeping data
state consistent with simulated time.

Both helpers are failure-aware by construction: they ride
:meth:`~repro.net.link.Link.transmit`, which (under an attached
:class:`~repro.sim.faults.FaultPlan`) absorbs link flaps, latency
spikes, and mid-flight transfer failures via retransmission with capped
exponential backoff.  A helper therefore never returns until the bytes
have genuinely made it across — faults only inflate the elapsed time it
reports.
"""

from __future__ import annotations

from typing import Generator

from ..sim.engine import Event
from .topology import Cluster

__all__ = ["rdma_write", "rdma_read"]


def rdma_write(
    cluster: Cluster, src: int, dst: int, nbytes: int
) -> Generator[Event, None, float]:
    """One-sided write of ``nbytes`` from ``src``'s GPU to ``dst``'s GPU.

    Returns elapsed seconds (including queueing on the link).
    """
    link, direction = cluster.data_link(src, dst)
    post = cluster.system.net_post_overhead
    yield cluster.sim.timeout(post)
    elapsed = yield from link.transmit(nbytes, direction)
    return post + elapsed


def rdma_read(
    cluster: Cluster, reader: int, target: int, nbytes: int
) -> Generator[Event, None, float]:
    """One-sided read by ``reader`` of ``nbytes`` from ``target``'s GPU.

    An RDMA-READ pays an extra one-way latency for the request
    traversal before data starts flowing back (the RGET protocol's
    well-known cost relative to RPUT).
    """
    link, direction = cluster.data_link(target, reader)
    post = cluster.system.net_post_overhead
    yield cluster.sim.timeout(post + link.control_delay())
    elapsed = yield from link.transmit(nbytes, direction)
    return post + link.control_delay() + elapsed

