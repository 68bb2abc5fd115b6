"""Flattened data layouts: the unit the whole system operates on.

An MPI derived datatype, however deeply nested, ultimately describes a
sequence of ``(byte offset, byte length)`` blocks relative to a base
address — the "flattened" representation of Träff et al.'s *flattening
on the fly* and the entry format of the datatype layout cache of
Chu et al. [24], both of which this reproduction implements.

:class:`DataLayout` stores the blocks as two NumPy ``int64`` vectors and
provides:

* a cached *strided normal form* ``(first, count, stride, length)`` for
  layouts whose blocks share one length and one stride — the canonical
  shape TEMPI reduces vector types to, which the data plane copies
  through a 2-D strided view,
* vectorized *gather-index* construction (one flat index array that
  pulls every payload byte out of an irregular source in a single
  NumPy fancy-indexing operation),
* replication across a ``count`` of datatype instances separated by the
  type extent,
* coalescing of adjacent blocks (what a good flattener does to vector
  types with ``blocklength == stride``),
* the block-shape statistics (count, min/mean block size) that the GPU
  kernel cost model uses to price strided memory access.

Layouts are immutable after construction; the gather index is built
lazily and cached, which is exactly the economics of the paper's layout
cache: flattening and index construction are paid once per committed
datatype, not once per message.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DataLayout", "StridedForm", "coalesce_blocks"]

#: ``(first, count, stride, length)``: ``count`` blocks of ``length``
#: bytes, the first at byte ``first``, each ``stride`` bytes after the one before
StridedForm = Tuple[int, int, int, int]
#: cached for layouts without a strided form (a real form has count >= 1)
_IRREGULAR: StridedForm = (0, 0, 0, 0)


def coalesce_blocks(
    offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge blocks that are adjacent in memory.

    Blocks must already be sorted by offset and non-overlapping (MPI
    typemaps used for packing satisfy both).  Returns new arrays; inputs
    are not modified.
    """
    if len(offsets) == 0:
        return offsets.copy(), lengths.copy()
    # A block starts a new run unless it begins exactly where the
    # previous one ended.
    ends = offsets + lengths
    new_run = np.empty(len(offsets), dtype=bool)
    new_run[0] = True
    np.not_equal(offsets[1:], ends[:-1], out=new_run[1:])
    run_ids = np.cumsum(new_run) - 1
    n_runs = int(run_ids[-1]) + 1
    out_offsets = offsets[new_run]
    out_lengths = np.zeros(n_runs, dtype=np.int64)
    np.add.at(out_lengths, run_ids, lengths)
    return out_offsets, out_lengths


class DataLayout:
    """An immutable flattened ``(offsets, lengths)`` block list.

    Parameters
    ----------
    offsets, lengths:
        Parallel sequences of byte offsets and byte lengths.  Must be
        the same length; lengths must be positive; blocks must be sorted
        by offset and non-overlapping.
    extent:
        The datatype extent in bytes (stride between consecutive
        instances when ``count > 1`` is packed).  Defaults to the span
        of the blocks.
    coalesce:
        Merge adjacent blocks during construction (default True).
    validate:
        Check sortedness / non-overlap (default True; property tests
        rely on these errors firing).
    """

    __slots__ = (
        "offsets",
        "lengths",
        "extent",
        "_gather_index",
        "_shifted_index",
        "_strided",
        "_store",
        "_size",
        "_min_block",
        "_max_block",
        "_mean_block",
    )

    #: cap on cached base-offset-shifted gather indexes per layout; a
    #: layout is reused with a handful of offsets (per-rank windows), so
    #: a tiny cache captures them all without unbounded growth
    _SHIFT_CACHE_LIMIT = 16

    def __init__(
        self,
        offsets: Sequence[int] | np.ndarray,
        lengths: Sequence[int] | np.ndarray,
        extent: Optional[int] = None,
        *,
        coalesce: bool = True,
        validate: bool = True,
    ):
        off = np.asarray(offsets, dtype=np.int64)
        lng = np.asarray(lengths, dtype=np.int64)
        if off.ndim != 1 or lng.ndim != 1:
            raise ValueError("offsets and lengths must be one-dimensional")
        if off.shape != lng.shape:
            raise ValueError(
                f"offsets ({off.shape}) and lengths ({lng.shape}) differ in length"
            )
        if validate and len(off):
            if np.any(lng <= 0):
                raise ValueError("all block lengths must be positive")
            ends = off[:-1] + lng[:-1]
            if np.any(off[1:] < ends):
                raise ValueError("blocks must be sorted by offset and non-overlapping")
        if coalesce:
            off, lng = coalesce_blocks(off, lng)
        self.offsets: np.ndarray = off
        self.lengths: np.ndarray = lng
        if extent is None:
            extent = int(off[-1] + lng[-1] - min(0, int(off[0]))) if len(off) else 0
        self.extent = int(extent)
        self._gather_index: Optional[np.ndarray] = None
        self._shifted_index: Optional[dict] = None
        self._strided: Optional[StridedForm] = None
        #: this layout's image in a compact store (see :meth:`store_image`)
        self._store: Optional[DataLayout] = None
        self._size: Optional[int] = None
        self._min_block: Optional[int] = None
        self._max_block: Optional[int] = None
        self._mean_block: Optional[float] = None

    # -- shape statistics ---------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of contiguous blocks."""
        return len(self.offsets)

    @property
    def size(self) -> int:
        """Total payload bytes (sum of block lengths).

        Cached: the GPU cost model reads the shape statistics on every
        priced operation, and layouts are immutable, so each NumPy
        reduction is paid once per layout rather than once per message.
        """
        value = self._size
        if value is None:
            value = self._size = int(self.lengths.sum()) if len(self.lengths) else 0
        return value

    @property
    def span(self) -> int:
        """Bytes from the first block's start to the last block's end."""
        if not len(self.offsets):
            return 0
        return int(self.offsets[-1] + self.lengths[-1] - self.offsets[0])

    @property
    def min_block(self) -> int:
        """Smallest block length in bytes (0 for an empty layout)."""
        value = self._min_block
        if value is None:
            value = self._min_block = int(self.lengths.min()) if len(self.lengths) else 0
        return value

    @property
    def max_block(self) -> int:
        """Largest block length in bytes (0 for an empty layout)."""
        value = self._max_block
        if value is None:
            value = self._max_block = int(self.lengths.max()) if len(self.lengths) else 0
        return value

    @property
    def mean_block(self) -> float:
        """Mean block length in bytes (0.0 for an empty layout)."""
        value = self._mean_block
        if value is None:
            value = self._mean_block = (
                float(self.lengths.mean()) if len(self.lengths) else 0.0
            )
        return value

    @property
    def is_contiguous(self) -> bool:
        """True when the layout's bytes are one dense run from offset 0.

        An empty layout is trivially one: it moves no bytes, so a
        message of it needs no staging and no kernel.
        """
        n = self.num_blocks
        return n == 0 or (n == 1 and int(self.offsets[0]) == 0)

    @property
    def density(self) -> float:
        """Payload bytes divided by spanned bytes (1.0 = fully dense)."""
        span = self.span
        return self.size / span if span else 1.0

    # -- derivation -----------------------------------------------------------
    def replicate(self, count: int) -> "DataLayout":
        """Layout of ``count`` consecutive instances, ``extent`` apart.

        This is how ``pack(buf, datatype, count)`` sees memory.  The
        result's extent is ``count * extent``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 1:
            return self
        if count == 0 or self.num_blocks == 0:
            return DataLayout([], [], extent=self.extent * count, validate=False)
        steps = (np.arange(count, dtype=np.int64) * self.extent)[:, None]
        offsets = (self.offsets[None, :] + steps).ravel()
        lengths = np.broadcast_to(self.lengths, (count, self.num_blocks)).ravel()
        return DataLayout(
            offsets,
            lengths,
            extent=self.extent * count,
            # Replication of a valid layout with extent >= span stays
            # valid; skip the O(n) re-check but keep coalescing (two
            # instances of a dense layout may touch).
            validate=self.extent < self.span,
        )

    def shifted(self, delta: int) -> "DataLayout":
        """Layout with every offset moved by ``delta`` bytes."""
        return DataLayout(
            self.offsets + int(delta), self.lengths, extent=self.extent,
            coalesce=False, validate=False,
        )

    def prefix(self, nbytes: int) -> "DataLayout":
        """The layout of its first ``nbytes`` payload bytes, the last
        block cut short: where a message shorter than its receive lands.

        ``self`` when ``nbytes`` covers the whole payload, and the
        empty contiguous layout for ``nbytes == 0``.
        """
        if nbytes >= self.size:
            return self
        if nbytes <= 0:
            return DataLayout.contiguous(0)
        ends = np.cumsum(self.lengths)
        last = int(np.searchsorted(ends, nbytes))
        lengths = self.lengths[: last + 1].copy()
        lengths[last] -= int(ends[last]) - nbytes
        return DataLayout(
            self.offsets[: last + 1], lengths, extent=self.extent,
            coalesce=False, validate=False,
        )

    def slice_blocks(self, start: int, stop: int) -> "DataLayout":
        """Sub-layout containing blocks ``[start, stop)`` (no re-basing)."""
        return DataLayout(
            self.offsets[start:stop],
            self.lengths[start:stop],
            extent=self.extent,
            coalesce=False,
            validate=False,
        )

    # -- the data plane -------------------------------------------------------
    @property
    def strided_form(self) -> Optional[StridedForm]:
        """``(first, count, stride, length)`` when the layout is uniform.

        Uniform means every block has one length and consecutive blocks
        are one stride apart (a single block is trivially uniform, with
        ``stride == length``).  Such a layout is a ``(count, length)``
        strided view of its buffer, so pack/unpack copy through the view
        instead of a per-byte gather index.  ``None`` for irregular and
        empty layouts.  Computed once and cached.
        """
        form = self._strided
        if form is None:
            form = self._strided = _IRREGULAR
            n = self.num_blocks
            if n and self.min_block == self.max_block:
                first, length = int(self.offsets[0]), self.max_block
                stride = int(self.offsets[1] - first) if n > 1 else length
                if not np.any(np.diff(self.offsets) != stride):
                    form = self._strided = (first, n, stride, length)
        return form if form[1] else None

    def store_image(self, offsets: np.ndarray) -> "DataLayout":
        """This layout with its blocks moved to ``offsets`` of a compact store.

        A buffer that stores only the bytes around this layout's blocks
        (:class:`repro.gpu.memory.GPUBuffer`) addresses them through the
        image.  The image keeps the layout's shape class, so the data
        plane takes the same strided or gather path in the store as in
        the extent: equal blocks whose long gaps were all cut would
        otherwise turn uniform.  Built on the first call and cached; the
        ``offsets`` of later calls are not read.
        """
        image = self._store
        if image is None:
            image = DataLayout(offsets, self.lengths, coalesce=False, validate=False)
            if self.strided_form is None:
                image._strided = _IRREGULAR
            self._store = image
        return image

    def gather_index(self, base_offset: int = 0) -> np.ndarray:
        """Flat ``int64`` byte-index array selecting every payload byte.

        ``source[layout.gather_index()]`` *is* the pack operation and
        ``dest[layout.gather_index()] = packed`` the unpack operation.
        Built once and cached (the layout-cache economics of [24]).

        A nonzero ``base_offset`` shifts every index (``MPI_Pack``'s
        buffer argument); shifted copies are cached per offset (up to
        ``_SHIFT_CACHE_LIMIT`` distinct offsets) so repeated windowed
        packs stop allocating a fresh index array per message.

        The returned array is shared cache state — callers must treat
        it as read-only.
        """
        index = self._gather_index
        if index is None:
            total = self.size
            if total == 0:
                index = np.empty(0, dtype=np.int64)
            else:
                # Vectorized expansion of blocks into per-byte indices:
                # for block b: offsets[b] + (0 .. lengths[b]-1).
                starts = np.repeat(self.offsets, self.lengths)
                within = np.arange(total, dtype=np.int64)
                block_base = np.repeat(
                    np.concatenate(([0], np.cumsum(self.lengths)[:-1])), self.lengths
                )
                index = starts + (within - block_base)
            self._gather_index = index
        if base_offset == 0:
            return index
        cache = self._shifted_index
        if cache is None:
            cache = self._shifted_index = {}
        shifted = cache.get(base_offset)
        if shifted is None:
            shifted = index + base_offset
            if len(cache) < self._SHIFT_CACHE_LIMIT:
                cache[base_offset] = shifted
        return shifted

    # -- identity ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataLayout):
            return NotImplemented
        return (
            self.extent == other.extent
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self) -> int:
        return hash((self.extent, self.offsets.tobytes(), self.lengths.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataLayout(blocks={self.num_blocks}, size={self.size}, "
            f"extent={self.extent}, mean_block={self.mean_block:.1f})"
        )

    @staticmethod
    def from_blocks(blocks: Iterable[Tuple[int, int]], extent: Optional[int] = None) -> "DataLayout":
        """Build from an iterable of ``(offset, length)`` pairs."""
        pairs = sorted(blocks)
        if pairs:
            offsets, lengths = zip(*pairs)
        else:
            offsets, lengths = (), ()
        return DataLayout(list(offsets), list(lengths), extent=extent)

    @staticmethod
    def contiguous(nbytes: int) -> "DataLayout":
        """A single dense block of ``nbytes`` at offset 0."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return DataLayout([], [], extent=0, validate=False)
        return DataLayout([0], [nbytes], extent=nbytes, coalesce=False, validate=False)
