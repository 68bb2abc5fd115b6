"""The simulated GPU device: architecture + memory + streams.

:class:`GPUDevice` is the object schemes program against.  It bundles
the cost-model constants of one :class:`~repro.gpu.archs.GPUArchitecture`
with a capacity-tracked :class:`~repro.gpu.memory.DeviceMemory` and a
set of :class:`~repro.gpu.stream.Stream` queues, and exposes factory
helpers for priced pack/unpack/DirectIPC operations.

The device does **not** hide CPU-side driver costs: callers launching a
kernel must themselves advance the simulated clock by
``device.arch.kernel_launch_overhead`` (and charge it to the
``LAUNCH`` trace bucket).  Keeping that cost in the caller is what lets
the schemes differ — GPU-Sync pays it per kernel, the fused design pays
it once per batch.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..datatypes.layout import DataLayout
from ..sim.engine import Simulator
from .archs import GPUArchitecture, TESLA_V100
from .kernels import KernelOp, make_direct_ipc_op, make_pack_op, make_unpack_op
from .memory import DeviceMemory, GPUBuffer
from .stream import CudaEvent, ExecutionEngine, Stream

__all__ = ["GPUDevice"]


class GPUDevice:
    """One simulated GPU."""

    _ids = itertools.count()

    def __init__(
        self,
        sim: Simulator,
        arch: GPUArchitecture = TESLA_V100,
        name: str = "",
        functional: bool = True,
    ):
        self.sim = sim
        self.arch = arch
        self.device_id = next(GPUDevice._ids)
        self.name = name or f"gpu{self.device_id}"
        #: when False, operations are priced but move no bytes — used by
        #: large-message benchmarks where the NumPy data plane would
        #: dominate wall time (timing results are identical)
        self.functional = functional
        self.memory = DeviceMemory(arch.mem_capacity)
        #: device-wide execution serialization shared by all streams
        self.engine = ExecutionEngine()
        self.default_stream = Stream(sim, name=f"{self.name}:s0", engine=self.engine)
        self._streams: List[Stream] = [self.default_stream]

    # -- streams / events ---------------------------------------------------
    def create_stream(self, name: str = "") -> Stream:
        """Create an additional stream (the multi-stream GPU-Async path).

        Streams give independent ordering, but all share the device's
        execution engine — concurrent kernels serialize, as they do on
        hardware once a kernel saturates the SMs.
        """
        stream = Stream(
            self.sim,
            name=name or f"{self.name}:s{len(self._streams)}",
            engine=self.engine,
        )
        self._streams.append(stream)
        return stream

    def create_event(self, name: str = "") -> CudaEvent:
        """Create a CUDA-style event."""
        return CudaEvent(self.sim, name=name)

    @property
    def streams(self) -> tuple:
        """All streams created on this device."""
        return tuple(self._streams)

    # -- memory ---------------------------------------------------------------
    def alloc(self, nbytes: int, name: str = "", fill: Optional[int] = None) -> GPUBuffer:
        """Allocate device memory."""
        buffer = self.memory.alloc(nbytes, name=name, fill=fill)
        buffer.functional = self.functional
        return buffer

    # -- op factories -----------------------------------------------------------
    def pack_op(
        self,
        source: GPUBuffer,
        layout: DataLayout,
        packed: GPUBuffer,
        *,
        source_offset: int = 0,
        packed_offset: int = 0,
        label: str = "",
    ) -> KernelOp:
        """Priced pack kernel for this device."""
        op = make_pack_op(
            self.arch,
            source,
            layout,
            packed,
            source_offset=source_offset,
            packed_offset=packed_offset,
            label=label,
        )
        return self._maybe_dry(op)

    def unpack_op(
        self,
        packed: GPUBuffer,
        layout: DataLayout,
        dest: GPUBuffer,
        *,
        packed_offset: int = 0,
        dest_offset: int = 0,
        label: str = "",
    ) -> KernelOp:
        """Priced unpack kernel for this device."""
        op = make_unpack_op(
            self.arch,
            packed,
            layout,
            dest,
            packed_offset=packed_offset,
            dest_offset=dest_offset,
            label=label,
        )
        return self._maybe_dry(op)

    def direct_ipc_op(
        self,
        source: GPUBuffer,
        src_layout: DataLayout,
        dest: GPUBuffer,
        dst_layout: DataLayout,
        peer_bandwidth: float,
        *,
        label: str = "",
    ) -> KernelOp:
        """Priced DirectIPC (zero-copy peer load-store) operation [24]."""
        op = make_direct_ipc_op(
            self.arch, source, src_layout, dest, dst_layout, peer_bandwidth, label=label
        )
        return self._maybe_dry(op)

    def _maybe_dry(self, op: KernelOp) -> KernelOp:
        if not self.functional:
            op.apply = lambda: None
        return op

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GPUDevice {self.name} ({self.arch.name})>"
