"""Property-based tests (hypothesis) for the datatype engine.

The invariants DESIGN.md §6 promises:

* flattening produces sorted, non-overlapping blocks whose total length
  equals the datatype size;
* ``pack ∘ unpack`` is the identity on the selected bytes and touches
  nothing else;
* replication scales size linearly and preserves validity;
* coalescing is idempotent and conserves bytes;
* the strided path (uniform layouts) and the gather path (irregular
  ones) both equal fancy indexing with ``gather_index``, and bounds are
  checked before any strided view is built.

Datatype trees are generated recursively over all constructors with
parameters chosen to keep typemaps non-overlapping (the class this
reproduction supports, and the class halo workloads occupy).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datatypes.pack as pack_mod
from repro.datatypes import (
    DOUBLE,
    FLOAT,
    INT,
    Contiguous,
    DataLayout,
    Hvector,
    Indexed,
    Struct,
    Subarray,
    Vector,
    coalesce_blocks,
    pack_bytes,
    unpack_bytes,
)

PRIMITIVES = st.sampled_from([INT, FLOAT, DOUBLE])


def _vectors(children):
    return st.builds(
        lambda c, b, extra, base: Vector(c, b, b + extra, base),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 6),
        children,
    )


def _hvectors(children):
    # Byte stride at least the child's span so copies never overlap.
    return children.flatmap(
        lambda base: st.builds(
            lambda c, pad: Hvector(c, 1, max(1, base.flatten().span) + pad, base),
            st.integers(1, 5),
            st.integers(0, 32),
        )
    )


def _contiguous(children):
    return st.builds(Contiguous, st.integers(1, 5), children)


def _indexed(children):
    def build(base, lengths, gaps):
        disps = []
        cursor = 0
        for length, gap in zip(lengths, gaps):
            disps.append(cursor)
            cursor += length + gap
        return Indexed(lengths, disps, base)

    return children.flatmap(
        lambda base: st.builds(
            build,
            st.just(base),
            st.lists(st.integers(1, 4), min_size=1, max_size=5),
            st.lists(st.integers(1, 8), min_size=5, max_size=5),
        )
    )


def _structs(children):
    def build(members):
        disps = []
        cursor = 0
        for member in members:
            disps.append(cursor)
            flat = member.flatten()
            ub = int(flat.offsets[-1] + flat.lengths[-1]) if flat.num_blocks else 0
            cursor += max(ub, 1) + 8
        return Struct([1] * len(members), disps, members)

    return st.lists(children, min_size=1, max_size=3).map(build)


def _subarrays(_children):
    def build(sizes, fractions):
        subs, starts = [], []
        for n, frac in zip(sizes, fractions):
            sub = max(1, int(n * frac))
            subs.append(sub)
            starts.append((n - sub) // 2)
        return Subarray(sizes, subs, starts, DOUBLE)

    return st.builds(
        build,
        st.lists(st.integers(2, 6), min_size=1, max_size=3),
        st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    )


DATATYPES = st.recursive(
    PRIMITIVES,
    lambda children: st.one_of(
        _vectors(children),
        _contiguous(children),
        _indexed(children),
        _hvectors(children),
        _structs(children),
        _subarrays(children),
    ),
    max_leaves=6,
)


@settings(max_examples=120, deadline=None)
@given(DATATYPES)
def test_flatten_blocks_sorted_nonoverlapping_and_sized(dt):
    lay = dt.commit().flatten()
    assert lay.size == dt.size
    if lay.num_blocks > 1:
        ends = lay.offsets[:-1] + lay.lengths[:-1]
        assert np.all(lay.offsets[1:] >= ends)
        # Coalesced: no two adjacent blocks touch.
        assert np.all(lay.offsets[1:] > ends)
    assert np.all(lay.lengths > 0) or lay.num_blocks == 0


@settings(max_examples=120, deadline=None)
@given(DATATYPES, st.integers(0, 1000))
def test_pack_unpack_roundtrip(dt, seed):
    lay = dt.commit().flatten()
    if lay.size == 0:
        return
    rng = np.random.default_rng(seed)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    src = rng.integers(0, 256, hi + 16, dtype=np.uint8)
    packed = pack_bytes(src, lay)
    assert len(packed) == lay.size
    dst = np.zeros_like(src)
    unpack_bytes(packed, lay, dst)
    idx = lay.gather_index()
    assert np.array_equal(dst[idx], src[idx])
    untouched = np.ones(len(dst), dtype=bool)
    untouched[idx] = False
    assert not dst[untouched].any()


@settings(max_examples=80, deadline=None)
@given(DATATYPES, st.integers(0, 4))
def test_replicate_scales_size(dt, count):
    lay = dt.commit().flatten()
    rep = lay.replicate(count)
    assert rep.size == count * lay.size


@settings(max_examples=80, deadline=None)
@given(DATATYPES, st.integers(2, 4), st.integers(0, 99))
def test_replicated_roundtrip(dt, count, seed):
    """Packing `count` instances equals the per-instance gather."""
    lay = dt.commit().flatten().replicate(count)
    if lay.size == 0:
        return
    rng = np.random.default_rng(seed)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    src = rng.integers(0, 256, hi + 16, dtype=np.uint8)
    packed = pack_bytes(src, lay)
    dst = np.zeros_like(src)
    unpack_bytes(packed, lay, dst)
    idx = lay.gather_index()
    assert np.array_equal(dst[idx], src[idx])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 16)), min_size=0, max_size=20
    )
)
def test_coalesce_idempotent_and_conserving(raw):
    # Make blocks sorted and non-overlapping.
    offsets, lengths = [], []
    cursor = 0
    for gap, length in raw:
        start = cursor + gap
        offsets.append(start)
        lengths.append(length)
        cursor = start + length
    off = np.array(offsets, dtype=np.int64)
    lng = np.array(lengths, dtype=np.int64)
    o1, l1 = coalesce_blocks(off, lng)
    o2, l2 = coalesce_blocks(o1, l1)
    assert np.array_equal(o1, o2) and np.array_equal(l1, l2)
    assert l1.sum() == lng.sum()
    # Expansion to byte sets is identical.
    lay_a = DataLayout(off, lng, coalesce=False)
    lay_b = DataLayout(o1, l1, coalesce=False)
    assert np.array_equal(lay_a.gather_index(), lay_b.gather_index())


@settings(max_examples=60, deadline=None)
@given(DATATYPES)
def test_signature_stable_and_equality_consistent(dt):
    assert dt.signature() == dt.signature()
    assert hash(dt) == hash(dt)
    lay1 = dt.flatten()
    lay2 = dt.flatten()
    assert lay1 is lay2  # cached on the handle


# -- strided and gather paths agree with the gather-index reference ----------------


def _check_against_reference(lay, base_offset, seed):
    """pack/unpack through whichever path the layout selects must equal
    fancy indexing with ``gather_index`` (the irregular path's index)."""
    rng = np.random.default_rng(seed)
    hi = int(lay.offsets[-1] + lay.lengths[-1]) if lay.num_blocks else 0
    src = rng.integers(0, 256, hi + base_offset + 7, dtype=np.uint8)
    idx = lay.gather_index(base_offset)

    packed = pack_bytes(src, lay, base_offset=base_offset)
    assert np.array_equal(packed, src[idx])
    out = np.full(lay.size + 3, 0xAB, dtype=np.uint8)
    pack_bytes(src, lay, out, base_offset=base_offset)
    assert np.array_equal(out[: lay.size], src[idx])
    assert (out[lay.size :] == 0xAB).all()

    dst = rng.integers(0, 256, len(src), dtype=np.uint8)
    expected = dst.copy()
    expected[idx] = packed
    unpack_bytes(packed, lay, dst, base_offset=base_offset)
    assert np.array_equal(dst, expected)


@st.composite
def _uniform(draw):
    first, count = draw(st.integers(0, 20)), draw(st.integers(1, 8))
    length, gap = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    offsets = [first + i * (length + gap) for i in range(count)]
    return DataLayout(offsets, [length] * count), (first, count, length, gap)


@settings(max_examples=120, deadline=None)
@given(_uniform(), st.integers(0, 16), st.integers(0, 99))
def test_uniform_layouts_take_strided_form(case, base_offset, seed):
    lay, (first, count, length, gap) = case
    if gap and count > 1:
        assert lay.strided_form == (first, count, length + gap, length)
    else:
        # stride == length coalesces to one block; a single block is its
        # own (count 1) form
        assert lay.num_blocks == 1
        assert lay.strided_form == (first, 1, count * length, count * length)
    _check_against_reference(lay, base_offset, seed)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(1, 9)), min_size=0, max_size=12),
    st.integers(0, 16),
    st.integers(0, 99),
)
def test_any_block_list_matches_reference(raw, base_offset, seed):
    offsets, lengths, cursor = [], [], 0
    for gap, length in raw:
        offsets.append(cursor + gap)
        lengths.append(length)
        cursor += gap + length
    lay = DataLayout(offsets, lengths)
    uniform = lay.num_blocks > 0 and len(set(lay.lengths.tolist())) == 1 and (
        len(set(np.diff(lay.offsets).tolist())) <= 1
    )
    assert (lay.strided_form is not None) == uniform
    _check_against_reference(lay, base_offset, seed)


@settings(max_examples=80, deadline=None)
@given(DATATYPES, st.integers(1, 4), st.integers(0, 16), st.integers(0, 99))
def test_replicated_datatypes_match_reference(dt, count, base_offset, seed):
    lay = dt.commit().flatten().replicate(count)
    _check_against_reference(lay, base_offset, seed)


def test_irregular_layouts_fall_back_to_gather():
    for lay in (
        DataLayout([0, 10], [4, 6]),  # two lengths
        DataLayout([0, 8, 20], [4, 4, 4]),  # two strides
        DataLayout([], []),
    ):
        assert lay.strided_form is None
        if lay.size:
            _check_against_reference(lay, 3, 0)


def test_replicated_vector_stays_uniform_only_on_a_stride_multiple():
    block = DataLayout([0, 16], [4, 4], extent=32)
    assert block.replicate(3).strided_form == (0, 6, 16, 4)
    assert DataLayout([0, 16], [4, 4], extent=40).replicate(3).strided_form is None


@pytest.mark.parametrize(
    "lay", [DataLayout([2, 10, 18], [4, 4, 4]), DataLayout([2, 10, 30], [4, 6, 4])]
)
@pytest.mark.parametrize("base_offset", [-3, 1, 100])
def test_out_of_bounds_raises_before_any_view(monkeypatch, lay, base_offset):
    def no_view(*args, **kwargs):
        raise AssertionError("strided view built before the bounds check")

    monkeypatch.setattr(pack_mod, "as_strided", no_view)
    # the buffer ends exactly at the layout's last byte
    buf = np.zeros(int(lay.offsets[-1] + lay.lengths[-1]), dtype=np.uint8)
    packed = np.zeros(lay.size, dtype=np.uint8)
    with pytest.raises(IndexError, match="exceeds"):
        pack_bytes(buf, lay, base_offset=base_offset)
    with pytest.raises(IndexError, match="exceeds"):
        unpack_bytes(packed, lay, buf, base_offset=base_offset)
