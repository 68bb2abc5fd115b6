"""Derived-datatype constructors (``MPI_Type_create_*``).

Implements the constructor family the paper's workloads use:

* :class:`Contiguous` / :class:`Vector` / :class:`Hvector` — NAS_MG
  faces and MILC's nested vectors (dense layouts),
* :class:`Indexed` / :class:`HIndexed` / :class:`IndexedBlock` —
  specfem3D_oc's indexed boundary elements (sparse layouts),
* :class:`Struct` — specfem3D_cm's struct-on-indexed type,
* :class:`Subarray` — halo faces of multi-dimensional decompositions,
* :class:`Resized` — explicit lb/extent adjustment.

Every constructor flattens to a
:class:`~repro.datatypes.layout.DataLayout` by composing its children's
flattened layouts with vectorized NumPy arithmetic, i.e. *flattening on
the fly* happens once at commit time and the result is what the layout
cache stores.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

import numpy as np

from .base import Datatype, DatatypeError
from .layout import DataLayout

__all__ = [
    "Contiguous",
    "Vector",
    "Hvector",
    "Indexed",
    "HIndexed",
    "IndexedBlock",
    "Struct",
    "Subarray",
    "Resized",
]


def _tile(child: DataLayout, shifts_bytes: np.ndarray, extent: int) -> DataLayout:
    """Place a copy of ``child`` at every byte shift in ``shifts_bytes``.

    The workhorse of every constructor.  Results are sorted by offset;
    overlapping copies raise (we restrict to non-overlapping typemaps,
    which all halo-exchange workloads satisfy).
    """
    shifts = np.asarray(shifts_bytes, dtype=np.int64)
    if shifts.ndim != 1:
        raise DatatypeError("shifts must be one-dimensional")
    if len(shifts) == 0 or child.num_blocks == 0:
        return DataLayout([], [], extent=extent, validate=False)
    offsets = (child.offsets[None, :] + shifts[:, None]).ravel()
    lengths = np.broadcast_to(child.lengths, (len(shifts), child.num_blocks)).ravel()
    # Already sorted iff shifts ascend with a step covering the child span.
    monotone = len(shifts) == 1 or (
        np.all(np.diff(shifts) >= child.span) and child.span > 0
    )
    if not monotone:
        order = np.argsort(offsets, kind="stable")
        offsets = offsets[order]
        lengths = lengths[order]
    return DataLayout(offsets, lengths, extent=extent)


def _extent_from_blocks(layout_offsets: np.ndarray, layout_lengths: np.ndarray) -> int:
    """MPI-style default extent: ``ub - lb`` with ``lb = min(0, min disp)``."""
    if len(layout_offsets) == 0:
        return 0
    lb = min(0, int(layout_offsets.min()))
    ub = int((layout_offsets + layout_lengths).max())
    return ub - lb


def _dense_run(base: Datatype) -> bool:
    """Whether each instance of ``base`` is one non-empty dense run that
    fills its extent, so ``n`` consecutive instances are one run of
    ``n * base.size`` bytes."""
    return base.size > 0 and base.extent == base.size and base.flatten().is_contiguous


class _Derived(Datatype):
    """Shared plumbing for derived constructors.

    Subclasses set ``_size``/``_extent`` in ``__init__`` and implement
    ``_flatten``/``signature``.
    """

    __slots__ = ("_size", "_extent")

    def __init__(self, size: int, extent: int):
        super().__init__()
        self._size = int(size)
        self._extent = int(extent)

    @property
    def size(self) -> int:
        return self._size

    @property
    def extent(self) -> int:
        return self._extent


class Contiguous(_Derived):
    """``count`` consecutive instances of ``base`` (``MPI_Type_contiguous``)."""

    __slots__ = ("count", "base")

    def __init__(self, count: int, base: Datatype):
        if count < 0:
            raise DatatypeError(f"count must be non-negative, got {count}")
        super().__init__(count * base.size, count * base.extent)
        self.count = count
        self.base = base

    def signature(self) -> Tuple[Hashable, ...]:
        return ("contig", self.count, self.base.signature())

    def _flatten(self) -> DataLayout:
        flat = self.base.flatten().replicate(self.count)
        return DataLayout(
            flat.offsets, flat.lengths, extent=self._extent, validate=False
        )


class Vector(_Derived):
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` base
    elements, successive blocks ``stride`` base-extents apart."""

    __slots__ = ("count", "blocklength", "stride", "base")

    def __init__(self, count: int, blocklength: int, stride: int, base: Datatype):
        if count < 0 or blocklength < 0:
            raise DatatypeError("count and blocklength must be non-negative")
        super().__init__(count * blocklength * base.size, 0)
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = base

    def signature(self) -> Tuple[Hashable, ...]:
        return ("vector", self.count, self.blocklength, self.stride, self.base.signature())

    def _flatten(self) -> DataLayout:
        child = self.base.flatten().replicate(self.blocklength)
        shifts = np.arange(self.count, dtype=np.int64) * (self.stride * self.base.extent)
        flat = _tile(child, shifts, extent=0)
        self._extent = _extent_from_blocks(flat.offsets, flat.lengths)
        return DataLayout(flat.offsets, flat.lengths, extent=self._extent, validate=False)

    @property
    def extent(self) -> int:
        if self._extent == 0 and self.count and self.blocklength:
            self.flatten()
        return self._extent


class Hvector(_Derived):
    """``MPI_Type_create_hvector``: like :class:`Vector` but the stride
    is given in **bytes**."""

    __slots__ = ("count", "blocklength", "stride_bytes", "base")

    def __init__(self, count: int, blocklength: int, stride_bytes: int, base: Datatype):
        if count < 0 or blocklength < 0:
            raise DatatypeError("count and blocklength must be non-negative")
        super().__init__(count * blocklength * base.size, 0)
        self.count = count
        self.blocklength = blocklength
        self.stride_bytes = stride_bytes
        self.base = base

    def signature(self) -> Tuple[Hashable, ...]:
        return (
            "hvector",
            self.count,
            self.blocklength,
            self.stride_bytes,
            self.base.signature(),
        )

    def _flatten(self) -> DataLayout:
        child = self.base.flatten().replicate(self.blocklength)
        shifts = np.arange(self.count, dtype=np.int64) * self.stride_bytes
        flat = _tile(child, shifts, extent=0)
        self._extent = _extent_from_blocks(flat.offsets, flat.lengths)
        return DataLayout(flat.offsets, flat.lengths, extent=self._extent, validate=False)

    @property
    def extent(self) -> int:
        if self._extent == 0 and self.count and self.blocklength:
            self.flatten()
        return self._extent


class Indexed(_Derived):
    """``MPI_Type_indexed``: per-block lengths and displacements in
    base-element units (specfem3D's sparse boundary gathers)."""

    __slots__ = ("blocklengths", "displacements", "base")

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        base: Datatype,
    ):
        # Private copies, frozen below: the caller's arrays stay
        # writable and later edits to them cannot reach this type.
        bl = np.array(blocklengths, dtype=np.int64)
        dp = np.array(displacements, dtype=np.int64)
        if bl.shape != dp.shape or bl.ndim != 1:
            raise DatatypeError("blocklengths/displacements must be equal-length 1-D")
        if np.any(bl < 0):
            raise DatatypeError("blocklengths must be non-negative")
        super().__init__(int(bl.sum()) * base.size, 0)
        # The signature, and so the memoised hash, covers both arrays.
        bl.flags.writeable = False
        dp.flags.writeable = False
        self.blocklengths = bl
        self.displacements = dp
        self.base = base

    def signature(self) -> Tuple[Hashable, ...]:
        return (
            "indexed",
            self.blocklengths.tobytes(),
            self.displacements.tobytes(),
            self.base.signature(),
        )

    def _flatten(self) -> DataLayout:
        base_flat = self.base.flatten()
        ext = self.base.extent
        parts_off = []
        parts_len = []
        if _dense_run(self.base):
            # Fast path (all paper workloads): each indexed block is one
            # dense run of blocklength * size bytes.
            keep = self.blocklengths > 0
            parts_off.append(self.displacements[keep] * ext)
            parts_len.append(self.blocklengths[keep] * self.base.size)
        else:
            for blen, disp in zip(self.blocklengths, self.displacements):
                if blen == 0:
                    continue
                rep = base_flat.replicate(int(blen))
                parts_off.append(rep.offsets + int(disp) * ext)
                parts_len.append(rep.lengths)
        if parts_off:
            offsets = np.concatenate(parts_off)
            lengths = np.concatenate(parts_len)
            order = np.argsort(offsets, kind="stable")
            offsets, lengths = offsets[order], lengths[order]
        else:
            offsets = np.empty(0, dtype=np.int64)
            lengths = np.empty(0, dtype=np.int64)
        self._extent = _extent_from_blocks(offsets, lengths)
        return DataLayout(offsets, lengths, extent=self._extent)

    @property
    def extent(self) -> int:
        if self._extent == 0 and self._size:
            self.flatten()
        return self._extent


class HIndexed(Indexed):
    """``MPI_Type_create_hindexed``: displacements in **bytes**."""

    __slots__ = ()

    def signature(self) -> Tuple[Hashable, ...]:
        return (
            "hindexed",
            self.blocklengths.tobytes(),
            self.displacements.tobytes(),
            self.base.signature(),
        )

    def _flatten(self) -> DataLayout:
        base_flat = self.base.flatten()
        parts_off = []
        parts_len = []
        if _dense_run(self.base):
            keep = self.blocklengths > 0
            parts_off.append(self.displacements[keep])
            parts_len.append(self.blocklengths[keep] * self.base.size)
        else:
            for blen, disp in zip(self.blocklengths, self.displacements):
                if blen == 0:
                    continue
                rep = base_flat.replicate(int(blen))
                parts_off.append(rep.offsets + int(disp))
                parts_len.append(rep.lengths)
        if parts_off:
            offsets = np.concatenate(parts_off)
            lengths = np.concatenate(parts_len)
            order = np.argsort(offsets, kind="stable")
            offsets, lengths = offsets[order], lengths[order]
        else:
            offsets = np.empty(0, dtype=np.int64)
            lengths = np.empty(0, dtype=np.int64)
        self._extent = _extent_from_blocks(offsets, lengths)
        return DataLayout(offsets, lengths, extent=self._extent)


class IndexedBlock(Indexed):
    """``MPI_Type_create_indexed_block``: one shared block length."""

    __slots__ = ()

    def __init__(self, blocklength: int, displacements: Sequence[int], base: Datatype):
        dp = np.asarray(displacements, dtype=np.int64)
        super().__init__(np.full(len(dp), blocklength, dtype=np.int64), dp, base)

    def signature(self) -> Tuple[Hashable, ...]:
        blen = int(self.blocklengths[0]) if len(self.blocklengths) else 0
        return ("indexed_block", blen, self.displacements.tobytes(), self.base.signature())


class Struct(_Derived):
    """``MPI_Type_create_struct``: heterogeneous children at byte
    displacements (specfem3D_cm's struct-on-indexed layout)."""

    __slots__ = ("blocklengths", "displacements", "types")

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        types: Sequence[Datatype],
    ):
        if not (len(blocklengths) == len(displacements) == len(types)):
            raise DatatypeError("struct argument lists must have equal length")
        if any(b < 0 for b in blocklengths):
            raise DatatypeError("blocklengths must be non-negative")
        size = sum(b * t.size for b, t in zip(blocklengths, types))
        super().__init__(size, 0)
        self.blocklengths = tuple(int(b) for b in blocklengths)
        self.displacements = tuple(int(d) for d in displacements)
        self.types = tuple(types)

    def signature(self) -> Tuple[Hashable, ...]:
        return (
            "struct",
            self.blocklengths,
            self.displacements,
            tuple(t.signature() for t in self.types),
        )

    def _flatten(self) -> DataLayout:
        parts_off = []
        parts_len = []
        for blen, disp, child in zip(self.blocklengths, self.displacements, self.types):
            if blen == 0:
                continue
            rep = child.flatten().replicate(blen)
            if rep.num_blocks == 0:
                continue
            parts_off.append(rep.offsets + disp)
            parts_len.append(rep.lengths)
        if parts_off:
            offsets = np.concatenate(parts_off)
            lengths = np.concatenate(parts_len)
            order = np.argsort(offsets, kind="stable")
            offsets, lengths = offsets[order], lengths[order]
        else:
            offsets = np.empty(0, dtype=np.int64)
            lengths = np.empty(0, dtype=np.int64)
        self._extent = _extent_from_blocks(offsets, lengths)
        return DataLayout(offsets, lengths, extent=self._extent)

    @property
    def extent(self) -> int:
        if self._extent == 0 and self._size:
            self.flatten()
        return self._extent


class Subarray(_Derived):
    """``MPI_Type_create_subarray``: an n-D sub-box of an n-D array.

    The canonical halo-face datatype.  ``order`` is ``"C"`` (row-major,
    last dimension contiguous — the MPI default for C programs) or
    ``"F"``.  Extent is the whole array, as the MPI standard requires.
    """

    __slots__ = ("sizes", "subsizes", "starts", "order", "base")

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        base: Datatype,
        order: str = "C",
    ):
        if not (len(sizes) == len(subsizes) == len(starts)) or not sizes:
            raise DatatypeError("sizes/subsizes/starts must be equal-length, non-empty")
        for d, (n, s, o) in enumerate(zip(sizes, subsizes, starts)):
            if n <= 0 or s < 0 or o < 0 or o + s > n:
                raise DatatypeError(
                    f"dimension {d}: invalid sub-box ({s} at {o} within {n})"
                )
        if order not in ("C", "F"):
            raise DatatypeError(f"order must be 'C' or 'F', got {order!r}")
        nelems = int(np.prod([s for s in subsizes])) if subsizes else 0
        super().__init__(nelems * base.size, int(np.prod(sizes)) * base.extent)
        self.sizes = tuple(int(x) for x in sizes)
        self.subsizes = tuple(int(x) for x in subsizes)
        self.starts = tuple(int(x) for x in starts)
        self.order = order
        self.base = base

    def signature(self) -> Tuple[Hashable, ...]:
        return (
            "subarray",
            self.sizes,
            self.subsizes,
            self.starts,
            self.order,
            self.base.signature(),
        )

    def _flatten(self) -> DataLayout:
        # Work in the canonical C layout (last dim contiguous); F order
        # is the same problem with dimensions reversed.
        sizes = self.sizes if self.order == "C" else self.sizes[::-1]
        subsizes = self.subsizes if self.order == "C" else self.subsizes[::-1]
        starts = self.starts if self.order == "C" else self.starts[::-1]
        ext = self.base.extent
        if 0 in subsizes:
            return DataLayout([], [], extent=self._extent, validate=False)

        # Element strides per dimension (in elements of base).
        strides = np.ones(len(sizes), dtype=np.int64)
        for d in range(len(sizes) - 2, -1, -1):
            strides[d] = strides[d + 1] * sizes[d + 1]

        # One contiguous run per combination of the outer dimensions.
        outer_axes = [
            np.arange(starts[d], starts[d] + subsizes[d], dtype=np.int64)
            for d in range(len(sizes) - 1)
        ]
        if outer_axes:
            grids = np.meshgrid(*outer_axes, indexing="ij")
            elem_offsets = sum(
                g.ravel() * strides[d] for d, g in enumerate(grids)
            ) + starts[-1] * strides[-1]
        else:
            elem_offsets = np.array([starts[-1]], dtype=np.int64)
        elem_offsets = np.sort(np.asarray(elem_offsets, dtype=np.int64))
        run_elems = subsizes[-1]

        if _dense_run(self.base):
            offsets = elem_offsets * ext
            lengths = np.full(len(offsets), run_elems * self.base.size, dtype=np.int64)
            return DataLayout(offsets, lengths, extent=self._extent)
        child = self.base.flatten().replicate(run_elems)
        return _tile(child, elem_offsets * ext, extent=self._extent)


class Resized(_Derived):
    """``MPI_Type_create_resized``: override lb/extent of ``base``.

    Used to build nested-vector MILC layouts where the inner vector must
    repeat at a stride different from its natural extent.
    """

    __slots__ = ("base", "lb")

    def __init__(self, base: Datatype, lb: int, extent: int):
        if extent < 0:
            raise DatatypeError(f"extent must be non-negative, got {extent}")
        super().__init__(base.size, extent)
        self.base = base
        self.lb = int(lb)

    def signature(self) -> Tuple[Hashable, ...]:
        return ("resized", self.lb, self._extent, self.base.signature())

    def _flatten(self) -> DataLayout:
        # MPI semantics: resizing moves the lb/ub markers only; the
        # typemap displacements are untouched.  Only the extent (the
        # replication stride) changes.
        flat = self.base.flatten()
        return DataLayout(flat.offsets, flat.lengths, extent=self._extent, validate=False)
