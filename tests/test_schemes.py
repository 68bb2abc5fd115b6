"""Unit tests for the baseline packing schemes and the scheme contract."""

import numpy as np
import pytest

from repro.config import FusionCfg, SchemeCfg
from repro.core import FusionPolicy, KernelFusionScheme
from repro.datatypes import DOUBLE, DataLayout, Vector
from repro.mpi import Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import (
    CPUGPUHybridScheme,
    GPUAsyncScheme,
    GPUSyncScheme,
    MVAPICHAdaptiveScheme,
    NaiveCopyScheme,
    SCHEME_REGISTRY,
    make_scheme_factory,
)
from repro.sim import Category, Simulator, Trace, us


@pytest.fixture()
def env():
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1)
    return sim, cluster.site(0)


def _sparse_op(site, nbytes=16384, blocks=512, seed=0):
    dev = site.device
    step = 2 * (nbytes // blocks)
    lay = DataLayout(
        np.arange(blocks, dtype=np.int64) * step,
        np.full(blocks, nbytes // blocks, dtype=np.int64),
    )
    src = dev.alloc(int(lay.offsets[-1] + lay.lengths[-1]) + 8)
    src.data[:] = np.random.default_rng(seed).integers(0, 256, src.nbytes)
    dst = dev.alloc(lay.size)
    return dev.pack_op(src, lay, dst), src, dst, lay


def _dense_op(site, nbytes=8192):
    dev = site.device
    lay = DataLayout([0, nbytes], [nbytes // 2, nbytes // 2])
    src = dev.alloc(2 * nbytes, fill=4)
    dst = dev.alloc(lay.size)
    return dev.pack_op(src, lay, dst), src, dst, lay


def _submit(sim, scheme, op):
    out = {}

    def proc():
        handle = yield from scheme.submit(op)
        out["handle"] = handle
        yield from scheme.flush()
        yield from scheme.wait([handle])

    sim.run(sim.process(proc()))
    return out["handle"]


# -- GPU-Sync ---------------------------------------------------------------------


def test_gpu_sync_blocking_and_buckets(env):
    sim, site = env
    trace = Trace(sim)
    scheme = GPUSyncScheme(site, trace)
    op, src, dst, lay = _sparse_op(site)
    handle = _submit(sim, scheme, op)
    assert handle.done
    arch = site.device.arch
    assert trace.total(Category.LAUNCH) == pytest.approx(arch.kernel_launch_overhead)
    assert trace.total(Category.SYNC) == pytest.approx(arch.stream_sync_overhead)
    assert trace.total(Category.PACK) == pytest.approx(op.duration)
    assert np.array_equal(dst.data[: lay.size], src.data[lay.gather_index()])


def test_gpu_sync_serializes_submissions(env):
    sim, site = env
    scheme = GPUSyncScheme(site, Trace(sim))
    ops = [_sparse_op(site, seed=i)[0] for i in range(4)]

    def proc():
        for op in ops:
            yield from scheme.submit(op)

    sim.run(sim.process(proc()))
    arch = site.device.arch
    expected_min = 4 * (arch.kernel_launch_overhead + arch.stream_sync_overhead)
    assert sim.now >= expected_min


# -- GPU-Async --------------------------------------------------------------------------


def test_gpu_async_nonblocking_submit(env):
    sim, site = env
    scheme = GPUAsyncScheme(site, Trace(sim))
    op, *_ = _sparse_op(site)
    out = {}

    def proc():
        handle = yield from scheme.submit(op)
        out["t_submit"] = sim.now
        out["done_at_submit"] = handle.done
        yield from scheme.wait([handle])
        out["handle"] = handle

    sim.run(sim.process(proc()))
    assert not out["done_at_submit"]  # returned before completion
    assert out["handle"].done
    arch = site.device.arch
    # Submit cost: chunked launches + records only.
    chunks = scheme.pipeline_chunks
    expected = chunks * (arch.kernel_launch_overhead + arch.event_record_overhead)
    assert out["t_submit"] == pytest.approx(expected)


def test_gpu_async_discovery_requires_progress(env):
    """Completion is invisible until a query sweep runs."""
    sim, site = env
    scheme = GPUAsyncScheme(site, Trace(sim))
    op, *_ = _sparse_op(site)
    out = {}

    def proc():
        handle = yield from scheme.submit(op)
        yield sim.timeout(us(500))  # kernel long done, nobody queried
        out["visible_before_sweep"] = handle.done
        yield from scheme.progress_tick()
        yield sim.timeout(0)
        out["visible_after_sweep"] = handle.done

    sim.run(sim.process(proc()))
    assert not out["visible_before_sweep"]
    assert out["visible_after_sweep"]


def test_gpu_async_query_costs_scale_with_outstanding(env):
    sim, site = env
    trace = Trace(sim)
    scheme = GPUAsyncScheme(site, trace)
    ops = [_sparse_op(site, seed=i)[0] for i in range(4)]

    def proc():
        handles = []
        for op in ops:
            h = yield from scheme.submit(op)
            handles.append(h)
        yield from scheme.progress_tick()

    sim.run(sim.process(proc()))
    arch = site.device.arch
    assert trace.total(Category.SYNC) == pytest.approx(4 * arch.event_query_overhead)


def test_gpu_async_pipeline_chunk_validation(env):
    _sim, site = env
    with pytest.raises(ValueError):
        GPUAsyncScheme(site, pipeline_chunks=0)


def test_gpu_async_moves_bytes(env):
    sim, site = env
    scheme = GPUAsyncScheme(site, Trace(sim))
    op, src, dst, lay = _sparse_op(site)
    _submit(sim, scheme, op)
    assert np.array_equal(dst.data[: lay.size], src.data[lay.gather_index()])


# -- CPU-GPU-Hybrid ---------------------------------------------------------------------------


def test_hybrid_cpu_path_for_small_dense(env):
    sim, site = env
    trace = Trace(sim)
    scheme = CPUGPUHybridScheme(site, trace)
    op, src, dst, lay = _dense_op(site, nbytes=8192)
    handle = _submit(sim, scheme, op)
    assert scheme.cpu_path_count == 1 and scheme.gpu_path_count == 0
    assert trace.total(Category.LAUNCH) == 0.0  # zero GPU driver involvement
    assert handle.done
    assert (dst.data == 4).all()


def test_hybrid_gpu_path_for_sparse(env):
    sim, site = env
    scheme = CPUGPUHybridScheme(site, Trace(sim))
    op, *_ = _sparse_op(site, nbytes=16384, blocks=512)  # blocks > limit
    _submit(sim, scheme, op)
    assert scheme.gpu_path_count == 1 and scheme.cpu_path_count == 0


def test_hybrid_without_gdrcopy_always_gpu(env):
    sim, site = env
    scheme = CPUGPUHybridScheme(site, Trace(sim), gdrcopy_available=False)
    op, *_ = _dense_op(site)
    _submit(sim, scheme, op)
    assert scheme.gpu_path_count == 1


def test_hybrid_host_copy_time_formula(env):
    _sim, site = env
    scheme = CPUGPUHybridScheme(site, Trace(site.device.sim))
    op, *_ = _dense_op(site, nbytes=8192)
    arch = site.device.arch
    expected = op.num_blocks * arch.host_block_cost + op.nbytes / arch.host_mapped_bandwidth
    assert scheme.host_copy_time(op) == pytest.approx(expected)


def test_mvapich_has_extra_software_overhead(env):
    sim, site = env
    t1, t2 = Trace(sim), Trace(sim)
    plain = CPUGPUHybridScheme(site, t1)
    prod = MVAPICHAdaptiveScheme(site, t2)
    assert prod.software_overhead > plain.software_overhead
    assert prod.name == "MVAPICH2-GDR"


# -- Naive (production) ----------------------------------------------------------------------------


def test_naive_cost_scales_with_block_count(env):
    _sim, site = env
    scheme = NaiveCopyScheme(site, Trace(site.device.sim))
    few, *_ = _dense_op(site)
    many, *_ = _sparse_op(site, blocks=512)
    assert scheme.copy_issue_time(many) > 100 * scheme.copy_issue_time(few)


def test_naive_moves_bytes_and_charges_launch(env):
    sim, site = env
    trace = Trace(sim)
    scheme = NaiveCopyScheme(site, trace)
    op, src, dst, lay = _sparse_op(site, blocks=64)
    _submit(sim, scheme, op)
    arch = site.device.arch
    assert trace.total(Category.LAUNCH) == pytest.approx(64 * arch.memcpy_async_overhead)
    assert np.array_equal(dst.data[: lay.size], src.data[lay.gather_index()])


def test_naive_per_copy_factor(env):
    _sim, site = env
    spectrum = NaiveCopyScheme(site, per_copy_factor=1.0)
    openmpi = NaiveCopyScheme(site, per_copy_factor=0.85)
    op, *_ = _sparse_op(site)
    assert openmpi.copy_issue_time(op) < spectrum.copy_issue_time(op)


# -- Proposed (fusion) --------------------------------------------------------------------------------


def test_fusion_submit_is_cheap_and_deferred(env):
    sim, site = env
    trace = Trace(sim)
    scheme = KernelFusionScheme(site, trace, policy=FusionPolicy(threshold_bytes=1 << 30))
    op, *_ = _sparse_op(site)
    out = {}

    def proc():
        handle = yield from scheme.submit(op)
        out["t"] = sim.now
        out["done"] = handle.done
        yield from scheme.wait([handle])

    sim.run(sim.process(proc()))
    assert not out["done"]
    assert out["t"] == pytest.approx(scheme.scheduler.enqueue_overhead)
    assert trace.total(Category.LAUNCH) == pytest.approx(
        site.device.arch.kernel_launch_overhead
    )


def test_fusion_fallback_on_full_list(env):
    sim, site = env
    scheme = KernelFusionScheme(
        site, Trace(sim), policy=FusionPolicy(threshold_bytes=1 << 30), capacity=1
    )
    ops = [_sparse_op(site, seed=i)[0] for i in range(2)]
    out = {}

    def proc():
        h1 = yield from scheme.submit(ops[0])
        h2 = yield from scheme.submit(ops[1])  # full -> fallback
        out["uids"] = (h1.uid, h2.uid)
        yield from scheme.flush()
        yield from scheme.wait([h1, h2])

    sim.run(sim.process(proc()))
    assert out["uids"][0] >= 0
    assert out["uids"][1] == -1  # negative UID fallback (§IV-A2)
    assert scheme.fallback_count == 1


def test_fusion_moves_bytes_for_all_requests(env):
    sim, site = env
    scheme = KernelFusionScheme(site, Trace(sim))
    triples = [_sparse_op(site, seed=i) for i in range(6)]

    def proc():
        handles = []
        for op, *_ in triples:
            h = yield from scheme.submit(op)
            handles.append(h)
        yield from scheme.flush()
        yield from scheme.wait(handles)

    sim.run(sim.process(proc()))
    for op, src, dst, lay in triples:
        assert np.array_equal(dst.data[: lay.size], src.data[lay.gather_index()])


def test_fusion_scheduler_overhead_about_2us_per_message(env):
    """§V-B: 'scheduling overhead ... as low as 2 us per message'."""
    sim, site = env
    trace = Trace(sim)
    scheme = KernelFusionScheme(site, trace)
    ops = [_sparse_op(site, seed=i)[0] for i in range(8)]

    def proc():
        handles = []
        for op in ops:
            h = yield from scheme.submit(op)
            handles.append(h)
        yield from scheme.flush()
        yield from scheme.wait(handles)

    sim.run(sim.process(proc()))
    per_message = trace.total(Category.SCHED) / 8
    assert us(0.5) < per_message < us(3.0)


# -- registry ------------------------------------------------------------------------------------------


def test_registry_contains_all_schemes():
    assert set(SCHEME_REGISTRY) == {
        "GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "MVAPICH2-GDR",
        "SpectrumMPI", "OpenMPI", "Proposed",
    }


def test_make_scheme_factory_with_overrides(env):
    _sim, site = env
    factory = make_scheme_factory(SchemeCfg(name="GPU-Async", options={"num_streams": 2}))
    scheme = factory(site, Trace(site.device.sim))
    assert len(scheme.streams) == 2


def test_make_scheme_factory_fusion_override_builds_fusion_scheme(env):
    """A fusion knob on 'Proposed' routes to KernelFusionScheme (the
    same rule the sweep engine's config blocks follow), instead of the
    old alias-override rejection."""
    from repro.core.framework import KernelFusionScheme

    _sim, site = env
    factory = make_scheme_factory(
        SchemeCfg(name="Proposed", fusion=FusionCfg(capacity=4))
    )
    scheme = factory(site, Trace(site.device.sim))
    assert isinstance(scheme, KernelFusionScheme)
    assert scheme.scheduler.request_list.capacity == 4


def test_make_scheme_factory_proposed_options_build_fusion_scheme(env):
    """Constructor options on 'Proposed' name a fusion variant too."""
    _sim, site = env
    cfg = SchemeCfg(name="Proposed", options={"idle_linger": 0.0})
    scheme = make_scheme_factory(cfg)(site, Trace(site.device.sim))
    assert scheme.idle_linger == 0.0
    assert scheme.name == "Proposed"
    assert make_scheme_factory(SchemeCfg()) is SCHEME_REGISTRY["Proposed"]


def test_make_scheme_factory_rejects_alias_overrides():
    # Eager rejection, at factory-build time — not at first call.
    with pytest.raises(ValueError, match="aliased scheme 'SpectrumMPI'"):
        make_scheme_factory(
            SchemeCfg(name="SpectrumMPI", options={"per_copy_factor": 0.5})
        )


def test_make_scheme_factory_rejects_unknown_option():
    with pytest.raises(ValueError, match="'num_streamz' for scheme 'GPU-Async'"):
        make_scheme_factory(SchemeCfg(name="GPU-Async", options={"num_streamz": 2}))


def test_capabilities_table1_rows():
    """Table I: the proposed row is the only low-overhead + cached +
    high-overlap combination."""
    from repro.core.framework import KernelFusionScheme as KF

    assert KF.capabilities.layout_cache
    assert KF.capabilities.driver_overhead == "low"
    assert KF.capabilities.overlap == "high"
    assert GPUSyncScheme.capabilities.driver_overhead == "high"
    assert GPUAsyncScheme.capabilities.overlap == "high"
    assert CPUGPUHybridScheme.capabilities.requires_gdrcopy


def _poll_state(scheme):
    """Everything a progress poll may touch on ``scheme``."""
    scheduler = getattr(scheme, "scheduler", None)
    return (
        list(scheme.outstanding),
        list(getattr(scheme, "_undiscovered", ())),
        scheduler.request_list.pending() if scheduler is not None else None,
        scheme.trace.breakdown(),
    )


@pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
def test_quiescent_poll_charges_nothing_and_changes_nothing(name):
    """Whenever ``quiescent()`` holds, a real ``flush()`` then
    ``progress_tick()`` yields no event (so advances no time) and
    leaves the scheme's polled state as it was: the contract the
    progress loop relies on to skip idle polls."""
    sim = Simulator()
    rt = Runtime(sim, Cluster(sim, LASSEN, nodes=2), SCHEME_REGISTRY[name])
    ranks = [rt.rank(0), rt.rank(1)]
    dt = Vector(64, 32, 64, DOUBLE).commit()  # 16 KiB: rendezvous
    lay = ranks[0].resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])

    def exchange(rank, peer, nbuf=4):
        reqs = [
            rank.irecv(rank.device.alloc(hi), dt, 1, source=peer, tag=i)
            for i in range(nbuf)
        ]
        for i in range(nbuf):
            req = yield from rank.isend(rank.device.alloc(hi), dt, 1, dest=peer, tag=i)
            reqs.append(req)
        yield from rank.waitall(reqs)

    procs = [sim.process(exchange(r, 1 - r.rank_id)) for r in ranks]
    seen = {True: 0, False: 0}

    def probe():
        while not all(p.triggered for p in procs):
            for rank in ranks:
                scheme = rank.scheme
                quiet = scheme.quiescent()
                seen[quiet] += 1
                if quiet:
                    before = _poll_state(scheme)
                    assert next(scheme.flush(), None) is None
                    assert next(scheme.progress_tick(), None) is None
                    assert _poll_state(scheme) == before
            yield sim.timeout(us(0.25))

    sim.process(probe())
    sim.run(sim.all_of(procs))
    assert seen[True] > 0
    if name in ("GPU-Async", "Proposed"):
        assert seen[False] > 0  # the probe also saw the scheme busy
