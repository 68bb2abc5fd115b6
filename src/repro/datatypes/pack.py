"""Reference pack/unpack: the functional data plane.

These are the byte-exact operations every packing scheme in the
reproduction ultimately performs — the simulated GPU kernels, the
hybrid scheme's host copy loops, and the naive per-block copies all
funnel through these two functions, so a single correctness property
("pack then unpack is the identity on the selected bytes") covers the
entire data plane.

Buffers are 1-D ``uint8`` NumPy arrays (raw device or host memory).
Each call costs in proportion to the payload, never the buffer extent.
The copy path is chosen from the layout alone:

* a *uniform* layout (one block length, one stride — see
  :attr:`DataLayout.strided_form`) is copied as one ``(count, length)``
  strided view of the buffer, with no index array at all;
* any other layout falls back to one fancy-indexing gather/scatter
  through the layout's cached flat byte index.

Both are single vectorized NumPy copies; neither loops over blocks in
Python.  Bounds are checked against the layout before any view is built.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .layout import DataLayout

__all__ = ["pack_bytes", "unpack_bytes", "as_byte_view"]


def as_byte_view(array: np.ndarray) -> np.ndarray:
    """Reinterpret any contiguous array as a flat ``uint8`` view."""
    if not array.flags["C_CONTIGUOUS"]:
        raise ValueError("buffer must be C-contiguous to view as bytes")
    return array.view(np.uint8).reshape(-1)


def _check(buffer: np.ndarray, layout: DataLayout, base_offset: int, what: str) -> None:
    if buffer.dtype != np.uint8 or buffer.ndim != 1:
        raise TypeError(f"{what} buffer must be a 1-D uint8 array")
    if layout.num_blocks == 0:
        return
    lo = int(layout.offsets[0]) + base_offset
    hi = int(layout.offsets[-1] + layout.lengths[-1]) + base_offset
    if lo < 0 or hi > len(buffer):
        raise IndexError(
            f"layout [{lo}, {hi}) exceeds {what} buffer of {len(buffer)} bytes"
        )


def _rows(buffer: np.ndarray, start: int, count: int, stride: int, length: int) -> np.ndarray:
    """``(count, length)`` view of ``buffer``: row ``i`` starts at byte
    ``start + i * stride``.  Unchecked — callers bound it first."""
    step = buffer.strides[0]
    return as_strided(
        buffer[start:], shape=(count, length), strides=(stride * step, step)
    )


def pack_bytes(
    source: np.ndarray,
    layout: DataLayout,
    packed: np.ndarray | None = None,
    base_offset: int = 0,
) -> np.ndarray:
    """Gather the layout's bytes from ``source`` into a dense buffer.

    ``packed`` may be a preallocated output (its first ``layout.size``
    bytes are written); otherwise a new array is returned.
    ``base_offset`` shifts the layout within ``source`` (the buffer
    argument of ``MPI_Pack``).
    """
    _check(source, layout, base_offset, "source")
    if packed is None:
        packed = np.empty(layout.size, dtype=np.uint8)
    elif packed.dtype != np.uint8 or packed.ndim != 1:
        raise TypeError("packed buffer must be a 1-D uint8 array")
    elif len(packed) < layout.size:
        raise IndexError(
            f"packed buffer of {len(packed)} bytes cannot hold {layout.size}"
        )
    form = layout.strided_form
    if form is None:
        np.take(source, layout.gather_index(base_offset), out=packed[: layout.size])
    else:
        first, count, stride, length = form
        _rows(packed, 0, count, length, length)[...] = _rows(
            source, first + base_offset, count, stride, length
        )
    return packed


def unpack_bytes(
    packed: np.ndarray,
    layout: DataLayout,
    dest: np.ndarray,
    base_offset: int = 0,
) -> np.ndarray:
    """Scatter a dense buffer back into ``dest`` at the layout's blocks.

    Inverse of :func:`pack_bytes`; returns ``dest``.
    """
    _check(dest, layout, base_offset, "dest")
    if packed.dtype != np.uint8 or packed.ndim != 1:
        raise TypeError("packed buffer must be a 1-D uint8 array")
    if len(packed) < layout.size:
        raise IndexError(
            f"packed buffer of {len(packed)} bytes is shorter than {layout.size}"
        )
    form = layout.strided_form
    if form is None:
        dest[layout.gather_index(base_offset)] = packed[: layout.size]
    else:
        first, count, stride, length = form
        _rows(dest, first + base_offset, count, stride, length)[...] = _rows(
            packed, 0, count, length, length
        )
    return dest
