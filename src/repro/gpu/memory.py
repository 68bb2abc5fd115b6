"""Simulated device memory: NumPy-backed buffers with a capacity ledger.

A :class:`GPUBuffer` is the reproduction's ``void*`` device pointer: an
extent of bytes backed by a 1-D ``uint8`` store, plus identity
metadata.  :class:`DeviceMemory` tracks allocation against the
architecture's capacity (we never actually reserve 16 GB of host RAM —
each buffer allocates only its own store) and hands out buffers for the
schemes' staging areas.

A buffer allocated for a layout keeps only a *guard-gap store*: the
layout with every gap longer than :data:`GAP_BYTES` cut down to that
many bytes, half after one block and half before the next.  Accesses
reach it through :meth:`GPUBuffer.address`, which maps extent
coordinates to store coordinates, so a strided payload in a large
extent costs host memory for the payload, not for the extent.

Host (pinned) staging buffers use the same class with
``space="host"``; the distinction matters to the network model, which
prices GPU-resident and host-resident endpoints differently.
"""

from __future__ import annotations

import itertools
import mmap
from typing import Literal, Optional, Tuple

import numpy as np

from ..datatypes.layout import DataLayout

__all__ = [
    "GAP_BYTES", "GPUBuffer", "DeviceMemory", "OutOfMemoryError", "host_alloc", "BufferPool",
]

Space = Literal["device", "host"]

#: longest gap between two blocks that a guard-gap store keeps whole;
#: a longer one keeps ``GAP_BYTES // 2`` bytes after the block before it
#: and as many before the block after it
GAP_BYTES = 64
_GUARD = GAP_BYTES // 2


class OutOfMemoryError(MemoryError):
    """Raised when an allocation exceeds the device's remaining capacity."""


def _guard_runs(layout: DataLayout, nbytes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The extent ranges a guard-gap store for ``layout`` keeps.

    Every block keeps ``_GUARD`` bytes on either side, clipped to the
    ``nbytes`` extent; blocks whose guards meet (a gap of at most
    ``GAP_BYTES``) share one run.  Returns the runs' extent ``starts``
    and ``stops`` and the run index of each block.
    """
    offsets = layout.offsets
    lo = np.maximum(offsets - _GUARD, 0)
    hi = np.minimum(offsets + layout.lengths + _GUARD, nbytes)
    new_run = np.ones(len(offsets), dtype=bool)
    np.greater(lo[1:], hi[:-1], out=new_run[1:])
    ends_run = np.ones(len(offsets), dtype=bool)
    ends_run[:-1] = new_run[1:]
    return lo[new_run], hi[ends_run], np.cumsum(new_run) - 1


def _zeroed(nbytes: int, fill: Optional[int]) -> np.ndarray:
    """A fresh store: ``fill`` bytes, or zeros in an anonymous mapping."""
    if fill is not None:
        return np.full(nbytes, fill, dtype=np.uint8)
    if nbytes:
        return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)
    return np.zeros(0, dtype=np.uint8)


class GPUBuffer:
    """An extent of (simulated) device or host memory.

    ``nbytes`` is the extent: what the capacity ledger charges and what
    accesses are addressed in.  The NumPy store behind it is
    materialized lazily on first access: dry (non-functional) runs
    price every operation without ever touching buffer contents.  The
    first touch sees exactly the zeros (or ``fill``) an eager
    allocation would have produced.

    A buffer allocated for a ``layout`` is backed by a guard-gap store
    (module docstring): every byte within ``GAP_BYTES // 2`` of a block
    sits at the same position relative to its block as in the extent,
    and the rest of each long gap is not stored.  Without a layout the
    store is the whole extent.  :meth:`address` is the one way to reach
    either; :attr:`data` is the store itself and exists only when the
    store is the whole extent, so compact bytes are never read as
    extent bytes.

    Zero-initialised stores are anonymous ``mmap`` regions rather than
    ``np.zeros``: NumPy advises allocations of 4 MiB and up for huge
    pages, so on a host with transparent huge pages in ``madvise`` mode
    one touched byte would fault in and zero a whole 2 MiB page.
    """

    __slots__ = (
        "_data", "_runs", "_image", "_layout", "_nbytes", "_fill", "_freed",
        "space", "owner", "buffer_id", "name", "functional",
    )

    _ids = itertools.count()

    def __init__(
        self,
        nbytes: int,
        space: Space = "device",
        owner: Optional["DeviceMemory"] = None,
        name: str = "",
        fill: Optional[int] = None,
        layout: Optional[DataLayout] = None,
    ):
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if layout is not None and layout.num_blocks and (
            layout.offsets[0] < 0 or layout.offsets[-1] + layout.lengths[-1] > nbytes
        ):
            raise ValueError(f"{layout!r} does not fit a buffer of {nbytes} B")
        self._data: Optional[np.ndarray] = None
        #: ``(starts, stops, bases)`` of the guard-gap store's runs: extent
        #: range and store offset of each (set when the store materializes)
        self._runs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: the backing layout's image in the store (set with ``_runs``)
        self._image: Optional[DataLayout] = None
        #: the layout the store backs; ``None`` once it is the whole extent
        self._layout = layout
        self._nbytes = nbytes
        self._fill = fill
        #: True once :meth:`free` dropped the store
        self._freed = False
        self.space: Space = space
        self.owner = owner
        self.buffer_id = next(GPUBuffer._ids)
        self.name = name or f"buf{self.buffer_id}"
        #: False when the owning device runs in dry (priced-only) mode
        self.functional = True

    def _store(self) -> np.ndarray:
        store = self._data
        if store is None:
            if self._freed:
                raise ValueError(f"{self.name} was freed: it has no bytes to reach")
            size, layout = self._nbytes, self._layout
            if layout is not None:
                starts, stops, run = _guard_runs(layout, size)
                lengths = stops - starts
                stored = int(lengths.sum())
                if stored == size:
                    self._layout = None  # nothing to cut: the store is the extent
                else:
                    size = stored
                    bases = np.cumsum(lengths) - lengths
                    self._runs = (starts, stops, bases)
                    self._image = layout.store_image(layout.offsets - starts[run] + bases[run])
            store = self._data = _zeroed(size, self._fill)
        return store

    @property
    def data(self) -> np.ndarray:
        """The whole extent's bytes (materialized on first access).

        Raises ``ValueError`` for a guard-gap store: use :meth:`address`.
        """
        store = self._store()
        if self._layout is not None:
            raise ValueError(
                f"{self.name} keeps a {len(store)} B guard-gap store for "
                f"{self._layout!r}, not its {self._nbytes} B extent; "
                "reach its bytes through address()"
            )
        return store

    def address(self, layout: DataLayout, offset: int = 0) -> Tuple[np.ndarray, DataLayout, int]:
        """Map an access from extent to store coordinates.

        ``layout`` at byte ``offset`` of the extent becomes ``(store,
        store_layout, store_offset)``: the same bytes, ready for
        :func:`~repro.datatypes.pack.pack_bytes` and
        :func:`~repro.datatypes.pack.unpack_bytes`.  A whole-extent store
        maps every access to itself.  The backing layout at offset 0
        maps to its image cached on the layout, which keeps the
        layout's shape class (strided or gather); any other access is
        translated block by block.  Raises ``IndexError`` when the
        access touches a byte the store does not back.
        """
        store = self._store()
        backing = self._layout
        if backing is None:
            return store, layout, offset
        if offset == 0 and (layout is backing or layout == backing):
            return store, self._image, 0
        assert self._runs is not None
        starts, stops, bases = self._runs
        lo = layout.offsets + offset
        run = np.searchsorted(starts, lo, side="right") - 1
        outside = run < 0
        if not outside.any():
            outside = lo + layout.lengths > stops[run]
        if outside.any():
            raise IndexError(
                f"{layout!r} at offset {offset} touches bytes of {self.name} "
                f"outside its guard-gap store for {backing!r}"
            )
        offsets = lo - starts[run] + bases[run]
        return store, DataLayout(offsets, layout.lengths, coalesce=False, validate=False), 0

    @property
    def nbytes(self) -> int:
        """Extent of the buffer in bytes."""
        return self._nbytes

    @property
    def on_device(self) -> bool:
        """True for GPU-resident memory."""
        return self.space == "device"

    def view(self, dtype: np.dtype) -> np.ndarray:
        """Typed view over the raw bytes."""
        return self.data.view(dtype)

    def free(self) -> None:
        """Return the bytes to the owning allocator (if any) and drop the
        store, so no reference cycle through this buffer keeps it alive.

        A freed buffer raises ``ValueError`` from :attr:`data` and
        :meth:`address`.
        """
        if self.owner is not None:
            self.owner._release(self)
            self.owner = None
        self._freed = True
        self._data = self._runs = self._image = None

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

    def alloc(
        self,
        nbytes: int,
        name: str = "",
        fill: Optional[int] = None,
        *,
        layout: Optional[DataLayout] = None,
    ) -> GPUBuffer:
        """Allocate a device buffer of ``nbytes``.

        ``layout`` is the layout the buffer is for: the buffer then
        keeps a guard-gap store for it (the default keeps the whole
        extent).  The ledger charges the extent either way, because it
        models the GPU's memory, not the host's.

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
        return GPUBuffer(nbytes, space="device", owner=self, name=name, fill=fill, layout=layout)

    def _release(self, buffer: GPUBuffer) -> None:
        self._allocated -= buffer.nbytes
        assert self._allocated >= 0, "allocator accounting went negative"


def host_alloc(nbytes: int, name: str = "", fill: Optional[int] = None) -> GPUBuffer:
    """Allocate a host (pinned) staging buffer."""
    return GPUBuffer(nbytes, space="host", name=name, fill=fill)


#: idle buffers a :class:`BufferPool` bucket keeps; releases beyond it free
MAX_CACHED_PER_BUCKET = 64


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
        functional: bool = True,
    ):
        self.memory = memory
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
                # A fresh buffer's contents where its consumer looks:
                # otherwise a skipped pack would pass verification with
                # last message's bytes.
                buffer.data[:nbytes] = 0
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
        if len(cached) >= MAX_CACHED_PER_BUCKET:
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
