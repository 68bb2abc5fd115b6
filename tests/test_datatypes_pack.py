"""Unit tests for the reference pack/unpack data plane."""

import numpy as np
import pytest

from repro.datatypes import (
    DOUBLE,
    DataLayout,
    Indexed,
    Vector,
    as_byte_view,
    pack_bytes,
    unpack_bytes,
)


def _buffer(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, n, dtype=np.uint8)


def test_pack_gathers_expected_bytes():
    lay = DataLayout([2, 10], [3, 2])
    src = np.arange(20, dtype=np.uint8)
    packed = pack_bytes(src, lay)
    assert list(packed) == [2, 3, 4, 10, 11]


def test_unpack_inverts_pack():
    lay = Vector(5, 3, 7, DOUBLE).flatten()
    src = _buffer(lay.span + 32)
    packed = pack_bytes(src, lay)
    dst = np.zeros_like(src)
    unpack_bytes(packed, lay, dst)
    idx = lay.gather_index()
    assert np.array_equal(dst[idx], src[idx])
    # Bytes outside the layout untouched (still zero).
    mask = np.ones(len(dst), dtype=bool)
    mask[idx] = False
    assert not dst[mask].any()


def test_pack_into_preallocated_buffer():
    lay = DataLayout([0, 8], [4, 4])
    src = np.arange(16, dtype=np.uint8)
    out = np.zeros(32, dtype=np.uint8)
    ret = pack_bytes(src, lay, out)
    assert ret is out
    assert list(out[:8]) == [0, 1, 2, 3, 8, 9, 10, 11]


def test_pack_base_offset():
    lay = DataLayout([0], [4])
    src = np.arange(16, dtype=np.uint8)
    assert list(pack_bytes(src, lay, base_offset=8)) == [8, 9, 10, 11]


def test_unpack_base_offset():
    lay = DataLayout([0], [4])
    dst = np.zeros(16, dtype=np.uint8)
    unpack_bytes(np.array([9, 9, 9, 9], dtype=np.uint8), lay, dst, base_offset=12)
    assert list(dst[12:]) == [9, 9, 9, 9]


def test_pack_bounds_checked():
    lay = DataLayout([0], [32])
    with pytest.raises(IndexError):
        pack_bytes(np.zeros(16, dtype=np.uint8), lay)
    with pytest.raises(IndexError):
        pack_bytes(np.zeros(64, dtype=np.uint8), lay, base_offset=40)


def test_pack_output_too_small():
    lay = DataLayout([0], [16])
    with pytest.raises(IndexError):
        pack_bytes(np.zeros(32, dtype=np.uint8), lay, np.zeros(8, dtype=np.uint8))


def test_unpack_short_packed_rejected():
    lay = DataLayout([0], [16])
    with pytest.raises(IndexError):
        unpack_bytes(np.zeros(8, dtype=np.uint8), lay, np.zeros(32, dtype=np.uint8))


def test_type_checks():
    lay = DataLayout([0], [4])
    with pytest.raises(TypeError):
        pack_bytes(np.zeros(8, dtype=np.float32), lay)
    with pytest.raises(TypeError):
        unpack_bytes(np.zeros(8, dtype=np.uint8), lay, np.zeros(8, dtype=np.int32))
    with pytest.raises(TypeError):
        pack_bytes(np.zeros(8, dtype=np.uint8), lay, np.zeros(8, dtype=np.int16))


def test_as_byte_view():
    arr = np.arange(4, dtype=np.float64)
    view = as_byte_view(arr)
    assert view.dtype == np.uint8 and len(view) == 32
    view[0] = 0xFF  # shared memory
    assert arr[0] != 0.0


def test_as_byte_view_requires_contiguous():
    arr = np.zeros((4, 4))[:, ::2]
    with pytest.raises(ValueError):
        as_byte_view(arr)


def test_indexed_roundtrip_typed_data():
    """Pack floats through an indexed type and read them back typed."""
    t = Indexed([2, 2, 2], [0, 10, 20], DOUBLE).commit()
    field = np.zeros(30, dtype=np.float64)
    field[[0, 1, 10, 11, 20, 21]] = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    lay = t.flatten()
    packed = pack_bytes(as_byte_view(field), lay)
    assert np.array_equal(
        packed.view(np.float64), [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    )
    out = np.zeros_like(field)
    unpack_bytes(packed, lay, as_byte_view(out))
    assert np.array_equal(out, field)
