"""Unit tests for the derived-datatype constructors."""

import numpy as np
import pytest

from repro.datatypes import (
    BYTE,
    DOUBLE,
    FLOAT,
    INT,
    Contiguous,
    DatatypeError,
    HIndexed,
    Hvector,
    Indexed,
    IndexedBlock,
    Resized,
    Struct,
    Subarray,
    Vector,
)


# -- primitives ----------------------------------------------------------------


def test_primitive_sizes():
    assert BYTE.size == 1 and BYTE.extent == 1
    assert INT.size == 4
    assert FLOAT.size == 4
    assert DOUBLE.size == 8


def test_primitive_flatten_contiguous():
    lay = DOUBLE.flatten()
    assert lay.is_contiguous and lay.size == 8


def test_primitive_equality_via_signature():
    assert DOUBLE == DOUBLE
    assert DOUBLE != FLOAT


# -- contiguous -------------------------------------------------------------------


def test_contiguous_merges_to_one_block():
    t = Contiguous(10, DOUBLE).commit()
    assert t.size == 80 and t.extent == 80
    lay = t.flatten()
    assert lay.num_blocks == 1 and lay.size == 80


def test_contiguous_of_vector():
    inner = Vector(2, 1, 4, DOUBLE)
    t = Contiguous(3, inner).commit()
    assert t.size == 3 * inner.size


def test_contiguous_negative_count_rejected():
    with pytest.raises(DatatypeError):
        Contiguous(-1, DOUBLE)


# -- vector / hvector ------------------------------------------------------------------


def test_vector_layout():
    # 3 blocks of 2 doubles, stride 5 doubles.
    t = Vector(3, 2, 5, DOUBLE).commit()
    lay = t.flatten()
    assert t.size == 48
    assert list(lay.offsets) == [0, 40, 80]
    assert list(lay.lengths) == [16, 16, 16]
    assert t.extent == 96  # (2*5 + 2) * 8


def test_vector_blocklength_equals_stride_coalesces():
    t = Vector(4, 3, 3, FLOAT).commit()
    lay = t.flatten()
    assert lay.num_blocks == 1
    assert lay.size == 48


def test_hvector_byte_stride():
    t = Hvector(3, 1, 100, DOUBLE).commit()
    lay = t.flatten()
    assert list(lay.offsets) == [0, 100, 200]
    assert t.extent == 208


def test_vector_matches_equivalent_hvector():
    v = Vector(4, 2, 6, DOUBLE).commit()
    h = Hvector(4, 2, 48, DOUBLE).commit()
    assert v.flatten() == h.flatten()


def test_vector_zero_count():
    t = Vector(0, 2, 5, DOUBLE).commit()
    assert t.size == 0
    assert t.flatten().num_blocks == 0


# -- indexed family ----------------------------------------------------------------------


def test_indexed_layout():
    t = Indexed([2, 1], [0, 5], DOUBLE).commit()
    lay = t.flatten()
    assert t.size == 24
    assert list(lay.offsets) == [0, 40]
    assert list(lay.lengths) == [16, 8]


def test_indexed_unsorted_displacements_sorted_in_layout():
    t = Indexed([1, 1], [7, 0], INT).commit()
    lay = t.flatten()
    assert list(lay.offsets) == [0, 28]


def test_indexed_zero_length_blocks_skipped():
    t = Indexed([1, 0, 1], [0, 3, 6], INT).commit()
    assert t.flatten().num_blocks == 2


def test_indexed_validation():
    with pytest.raises(DatatypeError):
        Indexed([1, 2], [0], INT)
    with pytest.raises(DatatypeError):
        Indexed([-1], [0], INT)


def test_hindexed_byte_displacements():
    t = HIndexed([2, 2], [0, 100], FLOAT).commit()
    lay = t.flatten()
    assert list(lay.offsets) == [0, 100]
    assert list(lay.lengths) == [8, 8]


def test_indexed_block_shared_length():
    t = IndexedBlock(3, [0, 10, 20], FLOAT).commit()
    lay = t.flatten()
    assert t.size == 36
    assert list(lay.lengths) == [12, 12, 12]


def test_indexed_on_noncontiguous_base():
    base = Vector(2, 1, 3, INT)  # two ints, 3-int stride
    t = Indexed([1, 1], [0, 10], base).commit()
    lay = t.flatten()
    # Each instance contributes two 4-byte blocks.
    assert lay.num_blocks == 4
    assert t.size == 16


# -- struct ------------------------------------------------------------------------------


def test_struct_mixed_members():
    t = Struct([2, 1], [0, 64], [INT, DOUBLE]).commit()
    lay = t.flatten()
    assert t.size == 16
    assert list(lay.offsets) == [0, 64]
    assert list(lay.lengths) == [8, 8]


def test_struct_on_indexed_is_sparse():
    """The specfem3D_cm shape: struct of indexed components."""
    comp = Indexed([1, 1, 1], [0, 1, 2], FLOAT)
    t = Struct([1, 1], [0, 1024], [comp, comp]).commit()
    lay = t.flatten()
    # Each indexed component coalesces (adjacent displacements) to one
    # block; two struct members at different displacements -> 2 blocks.
    assert lay.num_blocks == 2
    assert t.size == 24


def test_struct_validation():
    with pytest.raises(DatatypeError):
        Struct([1], [0, 8], [INT, INT])
    with pytest.raises(DatatypeError):
        Struct([-1], [0], [INT])


# -- subarray -------------------------------------------------------------------------------


def test_subarray_2d_column():
    # 4x4 doubles, taking the last column: 4 blocks of 8 bytes.
    t = Subarray((4, 4), (4, 1), (0, 3), DOUBLE).commit()
    lay = t.flatten()
    assert t.size == 32
    assert lay.num_blocks == 4
    assert list(lay.offsets) == [24, 56, 88, 120]
    assert t.extent == 16 * 8  # whole array, per MPI


def test_subarray_2d_row_contiguous():
    t = Subarray((4, 4), (1, 4), (2, 0), DOUBLE).commit()
    lay = t.flatten()
    assert lay.num_blocks == 1
    assert list(lay.offsets) == [64]


def test_subarray_full_box_is_contiguous():
    t = Subarray((2, 3), (2, 3), (0, 0), DOUBLE).commit()
    assert t.flatten().is_contiguous


@pytest.mark.parametrize("make", [
    lambda base: Indexed([2, 1], [0, 3], base),
    lambda base: HIndexed([2, 1], [0, 24], base),
    lambda base: Subarray((4,), (2,), (1,), base),
], ids=["indexed", "hindexed", "subarray"])
def test_empty_base_flattens_to_an_empty_layout(make):
    """An empty base is contiguous, but its instances are not one dense
    run each: every constructor's layout of it is empty."""
    lay = make(Contiguous(0, DOUBLE)).commit().flatten()
    assert lay.num_blocks == 0 and lay.size == 0


def test_subarray_f_order_swaps_contiguity():
    # In F order the FIRST dimension is contiguous.
    c = Subarray((4, 4), (4, 1), (0, 1), DOUBLE, order="C").commit()
    f = Subarray((4, 4), (1, 4), (1, 0), DOUBLE, order="F").commit()
    assert c.flatten() == f.flatten()


def test_subarray_3d_matches_numpy():
    shape, sub, start = (5, 6, 7), (2, 3, 4), (1, 2, 3)
    t = Subarray(shape, sub, start, BYTE).commit()
    arr = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
    expected = arr[
        start[0] : start[0] + sub[0],
        start[1] : start[1] + sub[1],
        start[2] : start[2] + sub[2],
    ].ravel()
    got = t.flatten().gather_index()
    assert np.array_equal(np.sort(got), np.sort(expected))


def test_subarray_validation():
    with pytest.raises(DatatypeError):
        Subarray((4,), (5,), (0,), DOUBLE)  # sub larger than size
    with pytest.raises(DatatypeError):
        Subarray((4,), (2,), (3,), DOUBLE)  # start+sub out of range
    with pytest.raises(DatatypeError):
        Subarray((4,), (2,), (0,), DOUBLE, order="X")
    with pytest.raises(DatatypeError):
        Subarray((), (), (), DOUBLE)


def test_subarray_zero_subsize():
    t = Subarray((4, 4), (0, 4), (0, 0), DOUBLE).commit()
    assert t.size == 0
    assert t.flatten().num_blocks == 0


# -- resized -----------------------------------------------------------------------------------


def test_resized_changes_replication_stride():
    base = Contiguous(2, DOUBLE)  # 16 bytes, extent 16
    padded = Resized(base, 0, 32).commit()
    lay = padded.flatten().replicate(3)
    assert list(lay.offsets) == [0, 32, 64]
    assert padded.extent == 32


def test_resized_keeps_typemap():
    base = Vector(2, 1, 3, INT)
    r = Resized(base, 0, 64).commit()
    assert np.array_equal(r.flatten().offsets, base.flatten().offsets)


def test_resized_validation():
    with pytest.raises(DatatypeError):
        Resized(INT, 0, -4)


# -- nesting / commit ----------------------------------------------------------------------------


def test_deeply_nested_type():
    t = Vector(2, 1, 4, Contiguous(3, Vector(2, 1, 2, FLOAT)))
    t.commit()
    lay = t.flatten()
    assert lay.size == t.size == 2 * 3 * 2 * 4


def test_commit_idempotent():
    t = Vector(2, 2, 4, DOUBLE)
    assert not t.committed
    t.commit().commit()
    assert t.committed


def test_signatures_distinguish_structure():
    assert Vector(2, 2, 4, DOUBLE).signature() != Vector(2, 2, 5, DOUBLE).signature()
    assert Vector(2, 2, 4, DOUBLE) == Vector(2, 2, 4, DOUBLE)
    assert Indexed([1], [0], INT).signature() != HIndexed([1], [0], INT).signature()


def test_layout_count_replication():
    t = Vector(2, 1, 2, DOUBLE).commit()
    assert t.layout(3).size == 3 * t.size
    with pytest.raises(DatatypeError):
        t.layout(-1)


# -- immutability and hashing ----------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda bl, dp: Indexed(bl, dp, DOUBLE),
        lambda bl, dp: HIndexed(bl, dp * 8, DOUBLE),
        lambda bl, dp: IndexedBlock(2, dp, DOUBLE),
    ],
    ids=["Indexed", "HIndexed", "IndexedBlock"],
)
def test_committed_indexed_type_is_immutable(make):
    bl = np.array([2, 2, 2], dtype=np.int64)
    dp = np.array([0, 5, 9], dtype=np.int64)
    dt = make(bl, dp).commit()
    for arr in (dt.blocklengths, dt.displacements):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7
    # The type holds private copies: the caller's arrays stay writable
    # and editing them does not reach the committed type.
    sig = dt.signature()
    bl[0] = dp[0] = 1
    assert dt.signature() == sig


def test_hash_is_memoised_and_stable():
    dt = Indexed([3, 1, 2], [0, 6, 10], FLOAT)
    h = hash(dt)
    assert h == hash(dt.signature())
    dt.commit()
    dt.flatten()
    assert hash(dt) == h
    twin = Indexed([3, 1, 2], [0, 6, 10], FLOAT)
    assert twin is not dt and twin == dt and hash(twin) == h
    for prim in (BYTE, INT, FLOAT, DOUBLE):
        assert hash(prim) == hash(prim.signature())
