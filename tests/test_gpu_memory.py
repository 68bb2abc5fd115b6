"""Unit tests for simulated device memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import DataLayout, pack_bytes, unpack_bytes
from repro.gpu import DeviceMemory, GPUBuffer, OutOfMemoryError, host_alloc
from repro.gpu.memory import GAP_BYTES

GUARD = GAP_BYTES // 2


def test_alloc_tracks_usage():
    mem = DeviceMemory(1024)
    buf = mem.alloc(256)
    assert mem.allocated == 256
    assert mem.available == 768
    assert buf.nbytes == 256
    assert buf.on_device


def test_alloc_zeroed_by_default():
    mem = DeviceMemory(1024)
    assert not mem.alloc(64).data.any()


def test_alloc_with_fill():
    mem = DeviceMemory(1024)
    buf = mem.alloc(16, fill=0xAB)
    assert (buf.data == 0xAB).all()


def test_oom_raised():
    mem = DeviceMemory(100)
    mem.alloc(80)
    with pytest.raises(OutOfMemoryError):
        mem.alloc(21)


def test_free_returns_capacity():
    mem = DeviceMemory(100)
    buf = mem.alloc(80)
    buf.free()
    assert mem.allocated == 0
    mem.alloc(100)  # fits again


def test_double_free_harmless():
    mem = DeviceMemory(100)
    buf = mem.alloc(10)
    buf.free()
    buf.free()
    assert mem.allocated == 0


@pytest.mark.parametrize("backing", [None, DataLayout([0, 512], [8, 8])])
def test_freed_buffer_drops_its_store_and_refuses_access(backing):
    """free() releases the bytes themselves, not just the ledger entry,
    and a later access fails by name instead of handing out new zeros."""
    import weakref

    buf = DeviceMemory(1024).alloc(1024, fill=3, layout=backing)
    layout = DataLayout([0], [8])
    store = weakref.ref(buf.address(layout)[0])
    buf.free()
    assert store() is None
    for access in (lambda: buf.data, lambda: buf.address(layout)):
        with pytest.raises(ValueError, match="was freed"):
            access()
    host = host_alloc(16)
    host.data[:] = 1
    host.free()
    with pytest.raises(ValueError, match="was freed"):
        host.data


def test_peak_tracking():
    mem = DeviceMemory(100)
    a = mem.alloc(60)
    a.free()
    mem.alloc(30)
    assert mem.peak == 60
    assert mem.allocation_count == 2


def test_typed_view_shares_bytes():
    buf = GPUBuffer(32)
    view = buf.view(np.float64)
    view[0] = 3.25
    assert buf.data[:8].any()


def test_host_alloc():
    buf = host_alloc(64)
    assert not buf.on_device
    assert buf.space == "host"


def test_invalid_sizes():
    with pytest.raises(ValueError):
        DeviceMemory(0)
    with pytest.raises(ValueError):
        GPUBuffer(-1)


def test_buffer_ids_unique():
    a, b = GPUBuffer(1), GPUBuffer(1)
    assert a.buffer_id != b.buffer_id


# -- BufferPool -----------------------------------------------------------------


def test_pool_bucket_rounding():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    buf = pool.acquire(100)
    assert buf.nbytes == 128
    assert pool.misses == 1


def test_pool_reuse_hits():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    a = pool.acquire(1000)
    pool.release(a)
    b = pool.acquire(900)  # same 1024 bucket
    assert b is a
    assert pool.hits == 1 and pool.misses == 1
    assert pool.hit_rate == pytest.approx(0.5)


def test_pool_reused_buffer_zeroed():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    for first, second in [(64, 64), (1000, 600)]:  # same bucket, then a smaller request
        a = pool.acquire(first)
        a.data[:] = 9
        pool.release(a)
        b = pool.acquire(second)
        assert b is a
        assert not b.data[:second].any()
        pool.release(b)


def test_pool_dry_mode_skips_zeroing_and_marks_buffers():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20), functional=False)
    a = pool.acquire(64)
    assert a.functional is False


def test_pool_cap_frees_extras(monkeypatch):
    from repro.gpu import BufferPool, memory

    monkeypatch.setattr(memory, "MAX_CACHED_PER_BUCKET", 1)
    mem = DeviceMemory(1 << 20)
    pool = BufferPool(mem)
    a, b = pool.acquire(64), pool.acquire(64)
    pool.release(a)
    allocated = mem.allocated
    pool.release(b)  # bucket full: freed outright
    assert mem.allocated == allocated - 64


def test_pool_trim():
    from repro.gpu import BufferPool

    mem = DeviceMemory(1 << 20)
    pool = BufferPool(mem)
    pool.release(pool.acquire(64))
    pool.release(pool.acquire(256))
    assert pool.cached_bytes == 64 + 256
    assert pool.trim() == 2
    assert pool.cached_bytes == 0
    assert mem.allocated == 0


def test_pool_rejects_foreign_buffer():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    with pytest.raises(ValueError):
        pool.release(GPUBuffer(100))  # not a power-of-two bucket
    with pytest.raises(ValueError):
        pool.acquire(0)


def test_pool_host_mode():
    from repro.gpu import BufferPool

    pool = BufferPool(None)
    buf = pool.acquire(64)
    assert not buf.on_device


# -- guard-gap stores ---------------------------------------------------------------


def test_guard_gap_store_keeps_guards_around_each_block():
    layout = DataLayout([100, 300], [10, 10], extent=400)
    buf = GPUBuffer(400, layout=layout)
    store, store_layout, offset = buf.address(layout)
    # [68, 142) and [268, 342): 32 guard bytes on each side of each block
    assert len(store) == 2 * (GUARD + 10 + GUARD)
    assert store_layout.offsets.tolist() == [GUARD, GUARD + 10 + 2 * GUARD]
    assert offset == 0
    assert buf.nbytes == 400


def test_guard_gap_store_is_the_extent_when_nothing_is_cut():
    layout = DataLayout([10, 80], [40, 40], extent=130)
    buf = GPUBuffer(130, layout=layout)
    store, store_layout, offset = buf.address(layout)
    assert store is buf.data and len(store) == 130
    assert store_layout is layout and offset == 0


def test_guard_gap_store_hides_its_compact_bytes():
    layout = DataLayout([0, 1000], [8, 8], extent=1008)
    buf = GPUBuffer(1008, layout=layout)
    with pytest.raises(ValueError, match="guard-gap"):
        buf.data
    with pytest.raises(ValueError, match="guard-gap"):
        buf.view(np.float64)


def test_guard_gap_store_rejects_unbacked_access():
    layout = DataLayout([0, 1000], [8, 8], extent=1008)
    buf = GPUBuffer(1008, name="halo", layout=layout)
    with pytest.raises(IndexError, match="halo"):
        buf.address(DataLayout.contiguous(1), 8 + GUARD)
    with pytest.raises(IndexError, match="halo"):
        buf.address(layout, -1)


def test_guard_gap_store_keeps_the_shape_class():
    uniform = DataLayout([0, 200, 400], [8, 8, 8], extent=408)
    # Equal blocks, every gap cut: the store image would be uniform.
    irregular = DataLayout([0, 200, 500], [8, 8, 8], extent=508)
    for layout in (uniform, irregular):
        store_layout = GPUBuffer(layout.extent, layout=layout).address(layout)[1]
        assert (store_layout.strided_form is None) == (layout.strided_form is None)
        assert store_layout.num_blocks == layout.num_blocks


def test_guard_gap_store_must_fit_the_extent():
    with pytest.raises(ValueError, match="does not fit"):
        GPUBuffer(16, layout=DataLayout([8], [16]))


def test_ledger_charges_the_extent_of_a_guard_gap_buffer():
    mem = DeviceMemory(1 << 20)
    layout = DataLayout([0, 60_000], [8, 8], extent=60_008)
    buf = mem.alloc(60_008, layout=layout)
    assert mem.allocated == mem.peak == 60_008
    assert len(buf.address(layout)[0]) < 200
    buf.free()
    assert mem.allocated == 0


_GAPS = st.one_of(st.integers(1, GAP_BYTES), st.integers(GAP_BYTES + 1, 3 * GAP_BYTES))


@st.composite
def _layouts(draw):
    """Sorted layouts with gaps on both sides of ``GAP_BYTES``, some uniform."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        lengths = [draw(st.integers(1, 48))] * n
        gaps = [draw(_GAPS)] * (n - 1)
    else:
        lengths = draw(st.lists(st.integers(1, 48), min_size=n, max_size=n))
        gaps = draw(st.lists(_GAPS, min_size=n - 1, max_size=n - 1))
    lead = draw(st.integers(0, 2 * GAP_BYTES))
    tail = draw(st.integers(0, 2 * GAP_BYTES))
    offsets = lead + np.concatenate(([0], np.cumsum(np.add(lengths[:-1], gaps))))
    return DataLayout(offsets, lengths, extent=int(offsets[-1]) + lengths[-1] + tail)


def _backed(layout, nbytes):
    """Bytes of the extent within ``GUARD`` of the payload."""
    mask = np.zeros(nbytes, dtype=bool)
    for start, length in zip(layout.offsets, layout.lengths):
        mask[max(0, start - GUARD) : start + length + GUARD] = True
    return mask


@settings(max_examples=150, deadline=None)
@given(layout=_layouts(), data=st.data())
def test_guard_gap_store_moves_the_bytes_an_extent_store_moves(layout, data):
    nbytes = layout.extent
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    extent = GPUBuffer(nbytes)
    guarded = GPUBuffer(nbytes, layout=layout)
    backed = _backed(layout, nbytes)
    store = guarded.address(layout)[0]
    assert len(store) == backed.sum()
    extent.data[:] = rng.integers(0, 256, nbytes, dtype=np.uint8)
    store[:] = extent.data[backed]  # the store keeps the backed bytes in order

    starts = [data.draw(st.integers(0, n - 1)) for n in layout.lengths]
    stops = [data.draw(st.integers(a + 1, n)) for a, n in zip(starts, layout.lengths)]
    window = data.draw(st.integers(0, nbytes - 1))
    accesses = [
        (layout, data.draw(st.integers(-GUARD, GUARD))),
        (DataLayout(layout.offsets + starts, np.subtract(stops, starts)), 0),
        (DataLayout.contiguous(data.draw(st.integers(1, nbytes - window))), window),
    ]
    for access, offset in accesses:
        lo = access.offsets + offset
        hi = lo + access.lengths
        in_extent = lo[0] >= 0 and hi[-1] <= nbytes
        if not (in_extent and all(backed[a:b].all() for a, b in zip(lo, hi))):
            # A whole-extent store leaves the bounds check to the copy.
            with pytest.raises(IndexError):
                s, s_layout, s_offset = guarded.address(access, offset)
                pack_bytes(s, s_layout, base_offset=s_offset)
            continue
        s, s_layout, s_offset = guarded.address(access, offset)
        assert np.array_equal(
            pack_bytes(s, s_layout, base_offset=s_offset),
            pack_bytes(extent.data, access, base_offset=offset),
        )
        payload = rng.integers(0, 256, access.size, dtype=np.uint8)
        unpack_bytes(payload, access, extent.data, base_offset=offset)
        unpack_bytes(payload, s_layout, s, base_offset=s_offset)
        assert np.array_equal(store, extent.data[backed])

    far = np.flatnonzero(~backed)  # more than GUARD bytes from the payload
    if len(far):
        with pytest.raises(IndexError):
            guarded.address(DataLayout.contiguous(1), int(data.draw(st.sampled_from(far))))
