"""Simulated GPU substrate.

Architecture cost models, NumPy-backed device memory, CUDA-like
streams, the pack/unpack kernel cost model with its functional data
plane, and the cooperative-group partitioner used by fused kernels.
"""

from .archs import (
    ARCHITECTURES,
    QUADRO_GV100,
    TESLA_K80,
    TESLA_P100,
    TESLA_V100,
    TESLA_V100_PCIE,
    GPUArchitecture,
)
from .coop import FusionPlan, PartitionedRequest, partition
from .device import GPUDevice
from .kernels import (
    KernelOp,
    OpKind,
    kernel_compute_time,
    make_direct_ipc_op,
    make_pack_op,
    make_unpack_op,
)
from .memory import BufferPool, DeviceMemory, GPUBuffer, OutOfMemoryError, host_alloc
from .stream import ExecutionEngine, Stream

__all__ = [
    "GPUArchitecture",
    "ARCHITECTURES",
    "TESLA_K80",
    "TESLA_P100",
    "TESLA_V100",
    "TESLA_V100_PCIE",
    "QUADRO_GV100",
    "GPUDevice",
    "GPUBuffer",
    "DeviceMemory",
    "OutOfMemoryError",
    "host_alloc",
    "BufferPool",
    "Stream",
    "ExecutionEngine",
    "KernelOp",
    "OpKind",
    "kernel_compute_time",
    "make_pack_op",
    "make_unpack_op",
    "make_direct_ipc_op",
    "partition",
    "FusionPlan",
    "PartitionedRequest",
]
