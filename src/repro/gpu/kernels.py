"""Kernel cost model + functional execution of pack/unpack operations.

This module prices and *performs* the GPU-side work.  Every operation
is a :class:`KernelOp` pairing

* a **cost** computed from the architecture model (what the simulator
  advances the clock by), and
* an **apply** thunk that really moves the bytes through the reference
  pack/unpack (what the tests verify).

Cost model
----------
A datatype pack/unpack kernel is memory-bound.  Its compute time is::

    t = fixed + bytes_moved / B_eff + blocks * cycles_per_block / (SMs * clock)

where ``bytes_moved`` counts the strided side once and the dense side
once, and the effective bandwidth is::

    B_eff = min(peak_bw, resident_blocks * block_bw) * strided_efficiency

The ``min`` term is the whole story of kernel fusion: a *small* kernel
has few thread blocks resident, cannot saturate the memory system, and
finishes in a microsecond or two — far less than its launch overhead
(Fig. 1).  A *fused* kernel pools the blocks of many requests, pushes
``resident_blocks`` toward saturation, and amortizes a single launch,
so its execution time grows far slower than the number of fused
requests (Section IV-A3).

``DirectIPC`` ops (the zero-copy NVLink path of [24]) are priced by the
peer link bandwidth instead of HBM; they exist so the framework's third
request type is exercised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional


from ..datatypes.layout import DataLayout
from ..datatypes.pack import pack_bytes, unpack_bytes
from .archs import GPUArchitecture
from .memory import GPUBuffer

__all__ = ["OpKind", "KernelOp", "kernel_compute_time", "make_pack_op", "make_unpack_op", "make_direct_ipc_op"]


class OpKind(str, enum.Enum):
    """The three operations the fusion framework supports (§IV-A1)."""

    PACK = "pack"
    UNPACK = "unpack"
    DIRECT_IPC = "direct_ipc"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def kernel_compute_time(
    arch: GPUArchitecture,
    nbytes: int,
    num_blocks: int,
    mean_block: float,
    *,
    grid_blocks: Optional[float] = None,
    include_fixed: bool = True,
) -> float:
    """GPU-side execution time of a (possibly fused) pack/unpack kernel.

    ``grid_blocks`` caps the resident thread blocks (the cooperative-
    group partitioner passes the per-request allocation here, possibly
    fractional when one block serves several tiny requests); default is
    one thread block per layout block, the natural mapping of the
    HAND-style kernels [21].
    """
    if nbytes <= 0:
        return arch.kernel_fixed_cost if include_fixed else 0.0
    resident = float(num_blocks) if grid_blocks is None else min(float(grid_blocks), float(num_blocks))
    resident = max(0.5, resident)
    eff_bw = min(arch.mem_bandwidth, resident * arch.block_bandwidth)
    eff_bw *= arch.strided_efficiency(mean_block)
    # Strided side + dense side of the copy.
    bytes_moved = 2 * nbytes
    mem_time = bytes_moved / eff_bw
    block_time = num_blocks * arch.cycles_per_block / (
        max(1.0, min(resident, float(arch.saturation_blocks))) * arch.clock_ghz * 1e9
    )
    fixed = arch.kernel_fixed_cost if include_fixed else 0.0
    return fixed + mem_time + block_time


@dataclass
class KernelOp:
    """One schedulable GPU operation: a priced, byte-exact thunk.

    ``duration`` is the GPU-side compute time (launch overhead is paid
    by the *caller* on the CPU side — that separation is the paper's
    central accounting).  ``apply`` performs the data movement when the
    simulated kernel runs.
    """

    kind: OpKind
    nbytes: int
    num_blocks: int
    mean_block: float
    duration: float
    apply: Callable[[], None]
    label: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KernelOp {self.kind} {self.nbytes}B blocks={self.num_blocks} "
            f"dur={self.duration * 1e6:.2f}us>"
        )


def make_pack_op(
    arch: GPUArchitecture,
    source: GPUBuffer,
    layout: DataLayout,
    packed: GPUBuffer,
    *,
    source_offset: int = 0,
    packed_offset: int = 0,
    label: str = "",
) -> KernelOp:
    """Build a pack kernel: gather ``layout`` from ``source`` → ``packed``."""
    nbytes = layout.size

    def apply() -> None:
        out = packed.data[packed_offset : packed_offset + nbytes]
        store, store_layout, offset = source.address(layout, source_offset)
        pack_bytes(store, store_layout, out, base_offset=offset)

    return KernelOp(
        kind=OpKind.PACK,
        nbytes=nbytes,
        num_blocks=layout.num_blocks,
        mean_block=layout.mean_block,
        duration=kernel_compute_time(arch, nbytes, layout.num_blocks, layout.mean_block),
        apply=apply,
        label=label,
    )


def make_unpack_op(
    arch: GPUArchitecture,
    packed: GPUBuffer,
    layout: DataLayout,
    dest: GPUBuffer,
    *,
    packed_offset: int = 0,
    dest_offset: int = 0,
    label: str = "",
) -> KernelOp:
    """Build an unpack kernel: scatter ``packed`` → ``layout`` in ``dest``."""
    nbytes = layout.size

    def apply() -> None:
        src = packed.data[packed_offset : packed_offset + nbytes]
        store, store_layout, offset = dest.address(layout, dest_offset)
        unpack_bytes(src, store_layout, store, base_offset=offset)

    return KernelOp(
        kind=OpKind.UNPACK,
        nbytes=nbytes,
        num_blocks=layout.num_blocks,
        mean_block=layout.mean_block,
        duration=kernel_compute_time(arch, nbytes, layout.num_blocks, layout.mean_block),
        apply=apply,
        label=label,
    )


def make_direct_ipc_op(
    arch: GPUArchitecture,
    source: GPUBuffer,
    src_layout: DataLayout,
    dest: GPUBuffer,
    dst_layout: DataLayout,
    peer_bandwidth: float,
    *,
    label: str = "",
) -> KernelOp:
    """Build a DirectIPC op: strided load-store over NVLink/PCIe [24].

    Moves the source layout's bytes directly into the destination
    layout (no staging); priced by the peer link, not HBM.
    """
    if src_layout.size != dst_layout.size:
        raise ValueError(
            f"DirectIPC layouts disagree: {src_layout.size} != {dst_layout.size}"
        )
    nbytes = src_layout.size

    def apply() -> None:
        src_store, src_store_layout, src_offset = source.address(src_layout)
        staged = pack_bytes(src_store, src_store_layout, base_offset=src_offset)
        dst_store, dst_store_layout, dst_offset = dest.address(dst_layout)
        unpack_bytes(staged, dst_store_layout, dst_store, base_offset=dst_offset)

    num_blocks = max(src_layout.num_blocks, dst_layout.num_blocks)
    mean_block = min(src_layout.mean_block, dst_layout.mean_block) or 1.0
    resident = max(1, num_blocks)
    eff_bw = min(peer_bandwidth, resident * arch.block_bandwidth)
    eff_bw *= arch.strided_efficiency(mean_block)
    duration = arch.kernel_fixed_cost + (nbytes / eff_bw if nbytes else 0.0)
    return KernelOp(
        kind=OpKind.DIRECT_IPC,
        nbytes=nbytes,
        num_blocks=num_blocks,
        mean_block=mean_block,
        duration=duration,
        apply=apply,
        label=label,
    )
