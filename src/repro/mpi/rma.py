"""One-sided communication: windows, Put/Get with derived datatypes.

The zero-copy datatype literature the paper builds on ([40]'s
send-gather/receive-scatter, [25]'s FALCON-X load-store processing)
lives in MPI's one-sided model: expose a window of memory and let peers
``MPI_Put``/``MPI_Get`` non-contiguous regions of it directly.  This
module implements active-target RMA over the runtime:

* :meth:`Runtime.win_create`-style collective creation via
  :func:`create_windows` — every rank contributes one buffer;
* :meth:`Window.put` / :meth:`Window.get` — datatype-typed one-sided
  transfers.  Intra-node with ``enable_direct_ipc`` they become a
  single **DirectIPC** load-store kernel (no packing at all — the
  zero-copy path, fused like any other request); otherwise origin-side
  pack → RDMA → target-side unpack, with the target's scheme handling
  the scatter exactly as the paper's receiver callback does;
* :meth:`Window.fence` — active-target epoch close: a barrier, a drain
  of every transfer started in the epoch, and a second barrier, after
  which every rank may read its window coherently.

Ordering caveat (as in MPI): concurrent conflicting Puts to the same
window region within one epoch are undefined; tests keep regions
disjoint.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional

from ..datatypes.layout import DataLayout
from ..gpu.memory import GPUBuffer
from ..net.transfer import rdma_write
from ..sim.engine import Event
from .collectives import barrier
from .communicator import Rank, Runtime, TypeArg

__all__ = ["Window", "create_windows"]


class _WindowGroup:
    """Shared state of one collective window creation."""

    _ids = itertools.count()

    def __init__(self, runtime: Runtime, buffers: Dict[int, GPUBuffer]):
        self.group_id = next(_WindowGroup._ids)
        self.runtime = runtime
        self.buffers = buffers
        #: completion events of every transfer in the current epoch
        self.epoch_ops: List[Event] = []
        self.epoch = 0
        #: lifetime statistics
        self.puts = 0
        self.gets = 0


class Window:
    """One rank's handle onto a collectively created window."""

    def __init__(self, rank: Rank, group: _WindowGroup):
        self.rank_obj = rank
        self.group = group

    @property
    def local_buffer(self) -> GPUBuffer:
        """This rank's exposed memory."""
        return self.group.buffers[self.rank_obj.rank_id]

    # -- data movement -----------------------------------------------------
    def put(
        self,
        origin_buffer: GPUBuffer,
        origin_type: TypeArg,
        count: int,
        target_rank: int,
        target_type: Optional[TypeArg] = None,
        target_offset: int = 0,
    ) -> Generator[Event, None, None]:
        """One-sided write into ``target_rank``'s window.

        Nonblocking: returns once initiated; completion is guaranteed
        only after the epoch's :meth:`fence`.
        """
        yield from self._transfer(
            origin_buffer, origin_type, count, target_rank, target_type,
            target_offset, is_put=True,
        )

    def get(
        self,
        origin_buffer: GPUBuffer,
        origin_type: TypeArg,
        count: int,
        target_rank: int,
        target_type: Optional[TypeArg] = None,
        target_offset: int = 0,
    ) -> Generator[Event, None, None]:
        """One-sided read from ``target_rank``'s window into
        ``origin_buffer`` (completion at the fence)."""
        yield from self._transfer(
            origin_buffer, origin_type, count, target_rank, target_type,
            target_offset, is_put=False,
        )

    def _transfer(
        self,
        origin_buffer: GPUBuffer,
        origin_type: TypeArg,
        count: int,
        target_rank: int,
        target_type: Optional[TypeArg],
        target_offset: int,
        *,
        is_put: bool,
    ) -> Generator[Event, None, None]:
        rank = self.rank_obj
        runtime = self.group.runtime
        if target_rank == rank.rank_id:
            raise ValueError("RMA to self is not supported")
        if not 0 <= target_rank < runtime.size:
            raise ValueError(f"target rank {target_rank} outside window group")
        origin_layout = yield from rank.resolve_layout_timed(origin_type, count)
        target_layout = rank.resolve_layout(
            origin_type if target_type is None else target_type, count
        )
        if origin_layout.size != target_layout.size:
            raise ValueError(
                f"origin ({origin_layout.size} B) and target "
                f"({target_layout.size} B) datatypes disagree"
            )
        target_buffer = self.group.buffers[target_rank]
        done = Event(rank.sim, name=f"rma:w{self.group.group_id}")
        self.group.epoch_ops.append(done)
        if is_put:
            self.group.puts += 1
        else:
            self.group.gets += 1

        use_ipc = (
            runtime.enable_direct_ipc
            and runtime.cluster.same_node(rank.rank_id, target_rank)
        )
        if use_ipc:
            # Zero-copy: one DirectIPC load-store kernel on the origin,
            # fused into its scheduler like any other request.
            if is_put:
                op = rank.device.direct_ipc_op(
                    origin_buffer, origin_layout.shifted(0),
                    target_buffer, target_layout.shifted(target_offset),
                    peer_bandwidth=runtime.cluster.system.gpu_gpu.bandwidth,
                    label="rma-put-ipc",
                )
            else:
                op = rank.device.direct_ipc_op(
                    target_buffer, target_layout.shifted(target_offset),
                    origin_buffer, origin_layout.shifted(0),
                    peer_bandwidth=runtime.cluster.system.gpu_gpu.bandwidth,
                    label="rma-get-ipc",
                )
            yield rank.cpu.request()
            try:
                handle = yield from rank.scheme.submit(op, label=op.label)
            finally:
                rank.cpu.release()
            handle.done_event.add_callback(lambda _ev: done.succeed())
            return

        # Packed path: origin pack -> wire -> target-side unpack (put),
        # mirrored for get.
        target_rank_obj = runtime.rank(target_rank)
        if is_put:
            staging = rank.staging_pool.acquire(origin_layout.size)
            op = rank.device.pack_op(origin_buffer, origin_layout, staging,
                                     label="rma-put-pack")
            yield rank.cpu.request()
            try:
                handle = yield from rank.scheme.submit(op, label=op.label)
            finally:
                rank.cpu.release()

            def flow():
                yield handle.done_event
                payload = (
                    staging.data[: origin_layout.size].copy()
                    if staging.functional else None
                )
                yield from rdma_write(
                    runtime.cluster, rank.rank_id, target_rank, origin_layout.size
                )
                rank.staging_pool.release(staging)
                yield from self._remote_scatter(
                    target_rank_obj, payload, target_layout, target_offset,
                    target_buffer,
                )
                done.succeed()

            rank.sim.process(flow(), name="rma-put")
        else:

            def flow():
                # Request traversal, then the target packs and writes back.
                yield rank.sim.timeout(
                    runtime.cluster.control_latency(rank.rank_id, target_rank)
                )
                t_staging = target_rank_obj.staging_pool.acquire(target_layout.size)
                op = target_rank_obj.device.pack_op(
                    target_buffer, target_layout, t_staging,
                    source_offset=target_offset, label="rma-get-pack",
                )
                yield target_rank_obj.cpu.request()
                try:
                    handle = yield from target_rank_obj.scheme.submit(
                        op, label=op.label
                    )
                    yield from target_rank_obj.scheme.flush()
                finally:
                    target_rank_obj.cpu.release()
                yield handle.done_event
                payload = (
                    t_staging.data[: target_layout.size].copy()
                    if t_staging.functional else None
                )
                yield from rdma_write(
                    runtime.cluster, target_rank, rank.rank_id, target_layout.size
                )
                target_rank_obj.staging_pool.release(t_staging)
                yield from self._remote_scatter(
                    rank, payload, origin_layout, 0, origin_buffer
                )
                done.succeed()

            rank.sim.process(flow(), name="rma-get")

    def _remote_scatter(
        self,
        at_rank: Rank,
        payload,
        layout: DataLayout,
        offset: int,
        dest_buffer: GPUBuffer,
    ) -> Generator[Event, None, None]:
        """Scatter arrived bytes into ``dest_buffer`` via the local scheme."""
        if layout.is_contiguous:
            if payload is not None and dest_buffer.functional:
                dest_buffer.data[offset : offset + layout.size] = payload
            return
        staging = at_rank.staging_pool.acquire(layout.size)
        if payload is not None and staging.functional:
            staging.data[: layout.size] = payload
        op = at_rank.device.unpack_op(
            staging, layout, dest_buffer, dest_offset=offset, label="rma-scatter"
        )
        yield at_rank.cpu.request()
        try:
            handle = yield from at_rank.scheme.submit(op, label=op.label)
        finally:
            at_rank.cpu.release()
        yield handle.done_event
        at_rank.staging_pool.release(staging)

    def fence(self) -> Generator[Event, None, None]:
        """Close the epoch (``MPI_Win_fence``): everyone's transfers
        drain, then a barrier; afterwards all windows are coherent.

        The drain loop keeps giving the local scheme its sync-point
        flush — transfers submit pack/unpack requests *during* the
        drain (a put's target-side scatter, a get's origin-side
        scatter), and under the fusion scheme those only launch when
        some progress loop flushes."""
        rank = self.rank_obj
        epoch = self.group.epoch  # stable across this fence round
        # Barrier 1: no rank is still *issuing* epoch operations.
        yield from barrier(rank, tag_round=epoch * 2 + self.group.group_id)
        yield from rank._progress_until(
            lambda: [e for e in self.group.epoch_ops if not e.processed]
        )
        # Barrier 2: everyone has observed the drain; recycle the epoch
        # (one designated rank advances the shared counter).
        yield from barrier(rank, tag_round=epoch * 2 + 1 + self.group.group_id)
        if rank.rank_id == 0:
            self.group.epoch_ops = [
                e for e in self.group.epoch_ops if not e.processed
            ]
            self.group.epoch = epoch + 1


def create_windows(runtime: Runtime, buffers: Dict[int, GPUBuffer]) -> Dict[int, Window]:
    """Collective window creation (``MPI_Win_create``).

    ``buffers`` maps every rank id to its exposed buffer; returns one
    :class:`Window` handle per rank.
    """
    if set(buffers) != set(range(runtime.size)):
        raise ValueError("every rank must contribute exactly one buffer")
    group = _WindowGroup(runtime, dict(buffers))
    return {r: Window(runtime.rank(r), group) for r in range(runtime.size)}
