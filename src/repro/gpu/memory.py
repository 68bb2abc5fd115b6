"""Simulated device memory: NumPy-backed buffers with a capacity ledger.

A :class:`GPUBuffer` is the reproduction's ``void*`` device pointer: a
1-D ``uint8`` array plus identity metadata.  :class:`DeviceMemory`
tracks allocation against the architecture's capacity (we never
actually reserve 16 GB of host RAM — each buffer allocates only its own
bytes) and hands out buffers for the schemes' staging areas.

Host (pinned) staging buffers use the same class with
``space="host"``; the distinction matters to the network model, which
prices GPU-resident and host-resident endpoints differently.
"""

from __future__ import annotations

import itertools
import mmap
from typing import Literal, Optional

import numpy as np

__all__ = ["GPUBuffer", "DeviceMemory", "OutOfMemoryError", "host_alloc", "BufferPool"]

Space = Literal["device", "host"]


class OutOfMemoryError(MemoryError):
    """Raised when an allocation exceeds the device's remaining capacity."""


class GPUBuffer:
    """A contiguous region of (simulated) device or host memory.

    The NumPy backing store is materialized lazily on the first ``data``
    access: dry (non-functional) runs price every operation without ever
    touching buffer contents, and for the large-message figure sweeps
    the eager ``np.zeros`` per allocation dominated wall time.  Contents
    are unchanged — the first touch sees exactly the zeros (or ``fill``)
    the eager allocation produced.

    Zero-initialised stores are anonymous ``mmap`` regions rather than
    ``np.zeros``: NumPy advises allocations of 4 MiB and up for huge
    pages, so on a host with transparent huge pages in ``madvise`` mode
    one touched byte would fault in and zero a whole 2 MiB page.  A
    strided payload spread thinly over a large buffer then pays for the
    extent; with plain 4 KiB pages it pays for the pages it touches.
    """

    __slots__ = ("_data", "_nbytes", "_fill", "space", "owner", "buffer_id", "name", "functional")

    _ids = itertools.count()

    def __init__(
        self,
        nbytes: int,
        space: Space = "device",
        owner: Optional["DeviceMemory"] = None,
        name: str = "",
        fill: Optional[int] = None,
    ):
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        self._data: Optional[np.ndarray] = None
        self._nbytes = nbytes
        self._fill = fill
        self.space: Space = space
        self.owner = owner
        self.buffer_id = next(GPUBuffer._ids)
        self.name = name or f"buf{self.buffer_id}"
        #: False when the owning device runs in dry (priced-only) mode
        self.functional = True

    @property
    def data(self) -> np.ndarray:
        """The buffer's bytes (materialized on first access)."""
        data = self._data
        if data is None:
            if self._fill is not None:
                data = np.full(self._nbytes, self._fill, dtype=np.uint8)
            elif self._nbytes:
                data = np.frombuffer(mmap.mmap(-1, self._nbytes), dtype=np.uint8)
            else:
                data = np.zeros(0, dtype=np.uint8)
            self._data = data
        return data

    @property
    def nbytes(self) -> int:
        """Capacity of the buffer in bytes."""
        return self._nbytes

    @property
    def on_device(self) -> bool:
        """True for GPU-resident memory."""
        return self.space == "device"

    def view(self, dtype: np.dtype) -> np.ndarray:
        """Typed view over the raw bytes."""
        return self.data.view(dtype)

    def free(self) -> None:
        """Return the bytes to the owning allocator (if any)."""
        if self.owner is not None:
            self.owner._release(self)
            self.owner = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GPUBuffer {self.name} {self.nbytes}B {self.space}>"


class DeviceMemory:
    """Capacity-tracking allocator for one GPU's memory."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._allocated = 0
        self.peak = 0
        self.allocation_count = 0

    @property
    def allocated(self) -> int:
        """Bytes currently allocated."""
        return self._allocated

    @property
    def available(self) -> int:
        """Bytes still allocatable."""
        return self.capacity - self._allocated

    def alloc(self, nbytes: int, name: str = "", fill: Optional[int] = None) -> GPUBuffer:
        """Allocate a device buffer of ``nbytes``.

        Raises :class:`OutOfMemoryError` when capacity is exceeded —
        schemes use this to size their staging pools honestly.
        """
        if nbytes > self.available:
            raise OutOfMemoryError(
                f"requested {nbytes} B with only {self.available} B free "
                f"of {self.capacity} B"
            )
        self._allocated += nbytes
        self.peak = max(self.peak, self._allocated)
        self.allocation_count += 1
        return GPUBuffer(nbytes, space="device", owner=self, name=name, fill=fill)

    def _release(self, buffer: GPUBuffer) -> None:
        self._allocated -= buffer.nbytes
        assert self._allocated >= 0, "allocator accounting went negative"


def host_alloc(nbytes: int, name: str = "", fill: Optional[int] = None) -> GPUBuffer:
    """Allocate a host (pinned) staging buffer."""
    return GPUBuffer(nbytes, space="host", name=name, fill=fill)


class BufferPool:
    """Size-bucketed pool of reusable staging buffers.

    GPU-aware MPI runtimes never ``cudaMalloc`` per message: staging
    buffers come from a pool of registered regions (allocation and IB
    memory registration both cost far too much on a per-message basis).
    This pool mirrors that: requests round up to power-of-two buckets;
    released buffers go back to their bucket for reuse.

    The pool fronts a :class:`DeviceMemory` (or host allocation when
    ``memory is None``) and exposes hit/miss statistics so benchmarks
    can report reuse rates.  ``trim()`` returns idle capacity to the
    allocator.
    """

    def __init__(
        self,
        memory: Optional[DeviceMemory] = None,
        *,
        max_cached_per_bucket: int = 64,
        functional: bool = True,
    ):
        self.memory = memory
        self.max_cached_per_bucket = max_cached_per_bucket
        self.functional = functional
        self._buckets: dict[int, list[GPUBuffer]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _bucket_for(nbytes: int) -> int:
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        return 1 << (nbytes - 1).bit_length()

    @property
    def cached_bytes(self) -> int:
        """Bytes currently idle in the pool."""
        return sum(bucket * len(bufs) for bucket, bufs in self._buckets.items())

    @property
    def hit_rate(self) -> float:
        """Fraction of acquires served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def acquire(self, nbytes: int, name: str = "") -> GPUBuffer:
        """Get a buffer of at least ``nbytes`` (power-of-two bucketed)."""
        bucket = self._bucket_for(nbytes)
        cached = self._buckets.get(bucket)
        if cached:
            self.hits += 1
            buffer = cached.pop()
            if self.functional:
                # A fresh buffer's contents: otherwise a skipped pack
                # would pass verification with last message's bytes.
                buffer.data[:] = 0
            return buffer
        self.misses += 1
        if self.memory is not None:
            buffer = self.memory.alloc(bucket, name=name)
        else:
            buffer = host_alloc(bucket, name=name)
        buffer.functional = self.functional
        return buffer

    def release(self, buffer: GPUBuffer) -> None:
        """Return a buffer to its bucket (freed outright when full)."""
        bucket = self._bucket_for(buffer.nbytes)
        if buffer.nbytes != bucket:
            raise ValueError(
                f"buffer of {buffer.nbytes} B did not come from this pool"
            )
        cached = self._buckets.setdefault(bucket, [])
        if len(cached) >= self.max_cached_per_bucket:
            buffer.free()
        else:
            cached.append(buffer)

    def trim(self) -> int:
        """Free all idle buffers; returns the number released."""
        count = 0
        for cached in self._buckets.values():
            for buffer in cached:
                buffer.free()
                count += 1
            cached.clear()
        return count
