"""Unit tests for DataLayout."""

import numpy as np
import pytest

from repro.datatypes import DataLayout, coalesce_blocks


def test_empty_layout():
    lay = DataLayout([], [])
    assert lay.num_blocks == 0
    assert lay.size == 0
    assert lay.span == 0
    assert lay.min_block == 0 and lay.max_block == 0 and lay.mean_block == 0.0
    assert len(lay.gather_index()) == 0


def test_single_block_properties():
    lay = DataLayout([4], [16])
    assert lay.num_blocks == 1
    assert lay.size == 16
    assert lay.span == 16
    assert not lay.is_contiguous  # starts at 4, not 0


def test_contiguous_factory():
    lay = DataLayout.contiguous(64)
    assert lay.is_contiguous
    assert lay.size == 64 and lay.extent == 64
    assert np.array_equal(lay.gather_index(), np.arange(64))


def test_contiguous_zero():
    empty = DataLayout.contiguous(0)
    assert empty.num_blocks == 0
    assert empty.is_contiguous  # moves no bytes, so needs no packing
    with pytest.raises(ValueError):
        DataLayout.contiguous(-1)


def test_validation_rejects_overlap():
    with pytest.raises(ValueError):
        DataLayout([0, 4], [8, 4])  # first block ends at 8 > 4


def test_validation_rejects_unsorted():
    with pytest.raises(ValueError):
        DataLayout([8, 0], [2, 2])


def test_validation_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        DataLayout([0, 8], [4, 0])


def test_validation_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        DataLayout([0, 8], [4])


def test_coalesce_adjacent_blocks():
    lay = DataLayout([0, 4, 8, 20], [4, 4, 4, 4])
    assert lay.num_blocks == 2
    assert list(lay.offsets) == [0, 20]
    assert list(lay.lengths) == [12, 4]


def test_coalesce_blocks_function_empty():
    off, lng = coalesce_blocks(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert len(off) == 0 and len(lng) == 0


def test_no_coalesce_option():
    lay = DataLayout([0, 4], [4, 4], coalesce=False)
    assert lay.num_blocks == 2


def test_gather_index_values():
    lay = DataLayout([2, 10], [3, 2])
    assert list(lay.gather_index()) == [2, 3, 4, 10, 11]


def test_gather_index_cached():
    lay = DataLayout([0, 10], [4, 4])
    assert lay.gather_index() is lay.gather_index()


def test_replicate_identity_and_zero():
    lay = DataLayout([0, 10], [4, 2], extent=16)
    assert lay.replicate(1) is lay
    rep0 = lay.replicate(0)
    assert rep0.num_blocks == 0
    with pytest.raises(ValueError):
        lay.replicate(-1)


def test_replicate_strides_by_extent():
    lay = DataLayout([0], [4], extent=16)
    rep = lay.replicate(3)
    assert list(rep.offsets) == [0, 16, 32]
    assert rep.extent == 48
    assert rep.size == 12


def test_replicate_coalesces_touching_instances():
    # extent equals the block size: instances tile densely.
    lay = DataLayout([0], [8], extent=8)
    rep = lay.replicate(4)
    assert rep.num_blocks == 1
    assert rep.size == 32


def test_shifted():
    lay = DataLayout([0, 10], [4, 2])
    sh = lay.shifted(100)
    assert list(sh.offsets) == [100, 110]
    assert sh.size == lay.size


def test_slice_blocks():
    lay = DataLayout([0, 10, 20], [4, 4, 4])
    sub = lay.slice_blocks(1, 3)
    assert list(sub.offsets) == [10, 20]


def test_prefix_cuts_the_last_block_short():
    lay = DataLayout([0, 4, 10], [2, 3, 2])
    assert lay.prefix(lay.size) is lay
    assert lay.prefix(0) == DataLayout.contiguous(0)
    cut = lay.prefix(4)
    assert cut.offsets.tolist() == [0, 4] and cut.lengths.tolist() == [2, 2]
    assert lay.prefix(5).lengths.tolist() == [2, 3]


def test_density():
    dense = DataLayout([0], [64])
    sparse = DataLayout([0, 100], [4, 4])
    assert dense.density == 1.0
    assert sparse.density == pytest.approx(8 / 104)


def test_equality_and_hash():
    a = DataLayout([0, 10], [4, 2], extent=16)
    b = DataLayout([0, 10], [4, 2], extent=16)
    c = DataLayout([0, 10], [4, 2], extent=20)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "not a layout"


def test_from_blocks_sorts():
    lay = DataLayout.from_blocks([(10, 2), (0, 4)])
    assert list(lay.offsets) == [0, 10]


def test_block_stats():
    lay = DataLayout([0, 10, 30], [4, 8, 12])
    assert lay.min_block == 4
    assert lay.max_block == 12
    assert lay.mean_block == pytest.approx(8.0)
