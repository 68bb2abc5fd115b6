"""Unit tests for the fusion scheduler and fused-kernel launch."""

import numpy as np
import pytest

from repro.core import FusionPolicy, FusionScheduler, ModelBasedPolicy, launch_fused_kernel
from repro.core import fusion_policy
from repro.core.request_list import CircularRequestList
from repro.core.scheduler import ENQUEUE_OVERHEAD
from repro.datatypes import DataLayout
from repro.gpu import TESLA_V100
from repro.net import Cluster, LASSEN
from repro.sim import Category, Simulator, Trace


@pytest.fixture()
def env():
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1)
    site = cluster.site(0)
    return sim, site


def _op(site, nbytes=8192, blocks=32, seed=0):
    dev = site.device
    step = max(2, 2 * (nbytes // blocks))
    lay = DataLayout(
        np.arange(blocks, dtype=np.int64) * step,
        np.full(blocks, nbytes // blocks, dtype=np.int64),
    )
    src = dev.alloc(int(lay.offsets[-1] + lay.lengths[-1]) + 8)
    src.data[:] = np.random.default_rng(seed).integers(0, 256, src.nbytes)
    return dev.pack_op(src, lay, dev.alloc(lay.size)), src, lay


def _drive(sim, gen):
    """Run a scheduler generator inside a process, return its value."""
    result = {}

    def proc():
        result["value"] = yield from gen

    p = sim.process(proc())
    sim.run(p)
    return result["value"]


# -- policy ----------------------------------------------------------------------


def test_policy_threshold_bytes(env, monkeypatch):
    _sim, site = env
    monkeypatch.setattr(fusion_policy, "MIN_BATCH_REQUESTS", 2)
    policy = FusionPolicy(threshold_bytes=16 * 1024)
    small = [_op(site, nbytes=4096)[0] for _ in range(2)]
    assert not policy.should_launch(small)
    big = [_op(site, nbytes=12 * 1024)[0] for _ in range(2)]
    assert policy.should_launch(big)


def test_policy_min_batch(env, monkeypatch):
    _sim, site = env
    monkeypatch.setattr(fusion_policy, "MIN_BATCH_REQUESTS", 2)
    policy = FusionPolicy(threshold_bytes=1)
    assert not policy.should_launch([_op(site)[0]])


def test_policy_max_batch(env, monkeypatch):
    _sim, site = env
    monkeypatch.setattr(fusion_policy, "MAX_BATCH_REQUESTS", 4)
    policy = FusionPolicy(threshold_bytes=1 << 30)
    ops = [_op(site, nbytes=64, blocks=1)[0] for _ in range(4)]
    assert policy.should_launch(ops)


def test_model_based_policy(env):
    _sim, site = env
    policy = ModelBasedPolicy(arch=TESLA_V100, threshold_bytes=1 << 30)
    tiny = [_op(site, nbytes=256, blocks=2)[0] for _ in range(2)]
    assert not policy.should_launch(tiny)
    # A megabyte of sparse work out-runs one launch overhead easily.
    big = [_op(site, nbytes=1 << 20, blocks=4096)[0] for _ in range(4)]
    assert policy.should_launch(big)


def test_model_based_policy_requires_arch(env):
    _sim, site = env
    with pytest.raises(TypeError, match="arch"):
        ModelBasedPolicy()


# -- fused kernel launch -------------------------------------------------------------


def test_launch_fused_kernel_applies_and_signals(env):
    sim, site = env
    rl = CircularRequestList(sim, capacity=8)
    ops = []
    for i in range(4):
        op, src, lay = _op(site, seed=i)
        ops.append((op, src, lay))
        rl.enqueue(op)
    reqs = rl.pending()
    rl.mark_busy(reqs)
    plan = launch_fused_kernel(sim, site.device.default_stream, site.device.arch, reqs)
    sim.run()
    assert all(r.complete for r in reqs)
    for (op, src, lay), req in zip(ops, reqs):
        assert req.completed_at <= plan.total_duration + 1e-12
    # Byte-exactness of every fused request.
    for op, src, lay in ops:
        pass  # applied via op closures; verified through dst below


def test_launch_fused_kernel_byte_exact(env):
    sim, site = env
    dev = site.device
    lay = DataLayout([0, 64], [16, 16])
    srcs, dsts, reqs = [], [], []
    rl = CircularRequestList(sim, capacity=8)
    for i in range(3):
        src = dev.alloc(96, fill=i + 1)
        dst = dev.alloc(32)
        rl.enqueue(dev.pack_op(src, lay, dst))
        srcs.append(src)
        dsts.append(dst)
    pending = rl.pending()
    rl.mark_busy(pending)
    launch_fused_kernel(sim, dev.default_stream, dev.arch, pending)
    sim.run()
    for i, dst in enumerate(dsts):
        assert (dst.data == i + 1).all()


def test_launch_fused_empty_rejected(env):
    sim, site = env
    with pytest.raises(ValueError):
        launch_fused_kernel(sim, site.device.default_stream, site.device.arch, [])


def test_fused_kernel_occupies_stream(env):
    sim, site = env
    rl = CircularRequestList(sim, capacity=8)
    for _ in range(4):
        rl.enqueue(_op(site)[0])
    reqs = rl.pending()
    rl.mark_busy(reqs)
    plan = launch_fused_kernel(sim, site.device.default_stream, site.device.arch, reqs)
    assert site.device.default_stream.tail == pytest.approx(plan.total_duration)


# -- scheduler -------------------------------------------------------------------------


def test_scheduler_enqueue_returns_request(env):
    sim, site = env
    sched = FusionScheduler(site, Trace(sim), FusionPolicy(threshold_bytes=1 << 30))
    req = _drive(sim, sched.enqueue(_op(site)[0]))
    assert req is not None and req.uid == 0
    assert sched.pending_count == 1
    assert sched.stats.enqueued == 1


def test_scheduler_enqueue_charges_sched_bucket(env):
    sim, site = env
    trace = Trace(sim)
    sched = FusionScheduler(site, trace, FusionPolicy(threshold_bytes=1 << 30))
    _drive(sim, sched.enqueue(_op(site)[0]))
    assert trace.total(Category.SCHED) == pytest.approx(ENQUEUE_OVERHEAD)


def test_scheduler_threshold_triggers_launch(env, monkeypatch):
    sim, site = env
    monkeypatch.setattr(fusion_policy, "MIN_BATCH_REQUESTS", 2)
    sched = FusionScheduler(site, Trace(sim), FusionPolicy(threshold_bytes=12 * 1024))
    _drive(sim, sched.enqueue(_op(site, nbytes=8 * 1024)[0]))
    assert sched.stats.launches == 0
    _drive(sim, sched.enqueue(_op(site, nbytes=8 * 1024)[0]))
    assert sched.stats.launches == 1
    assert sched.stats.threshold_launches == 1
    assert sched.stats.batch_sizes == [2]
    assert sched.pending_count == 0


def test_scheduler_flush_launches_pending(env):
    sim, site = env
    sched = FusionScheduler(site, Trace(sim), FusionPolicy(threshold_bytes=1 << 30))
    _drive(sim, sched.enqueue(_op(site)[0]))
    _drive(sim, sched.flush())
    assert sched.stats.flush_launches == 1
    assert sched.pending_count == 0


def test_scheduler_flush_empty_noop(env):
    sim, site = env
    sched = FusionScheduler(site, Trace(sim), FusionPolicy())
    _drive(sim, sched.flush())
    assert sched.stats.launches == 0


def test_scheduler_launch_charges_single_launch_overhead(env):
    sim, site = env
    trace = Trace(sim)
    sched = FusionScheduler(site, trace, FusionPolicy(threshold_bytes=1 << 30))
    for _ in range(6):
        _drive(sim, sched.enqueue(_op(site)[0]))
    _drive(sim, sched.flush())
    assert trace.total(Category.LAUNCH) == pytest.approx(
        site.device.arch.kernel_launch_overhead
    )
    assert sched.stats.mean_batch == 6


def test_scheduler_query_by_uid(env):
    sim, site = env
    sched = FusionScheduler(site, Trace(sim), FusionPolicy(threshold_bytes=1 << 30))
    req = _drive(sim, sched.enqueue(_op(site)[0]))
    assert not sched.query(req.uid)
    _drive(sim, sched.flush())
    sim.run()
    assert sched.query(req.uid)
    # After reaping, queries for old UIDs still answer True.
    sched.request_list.reap()
    assert sched.query(req.uid)


def test_scheduler_fallback_when_full(env):
    sim, site = env
    sched = FusionScheduler(
        site, Trace(sim), FusionPolicy(threshold_bytes=1 << 30), capacity=2
    )
    assert _drive(sim, sched.enqueue(_op(site)[0])) is not None
    assert _drive(sim, sched.enqueue(_op(site)[0])) is not None
    assert _drive(sim, sched.enqueue(_op(site)[0])) is None
    assert sched.stats.fallbacks == 1
