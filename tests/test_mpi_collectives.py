"""Tests for datatype-typed collectives over the pt2pt runtime."""

import numpy as np
import pytest

from repro.datatypes import DOUBLE, Contiguous, Vector
from repro.mpi import Runtime, alltoall, neighbor_alltoall
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator
from repro.workloads import halo_2d


def _runtime(size=4, scheme="Proposed", ranks_per_node=2):
    sim = Simulator()
    nodes = size // ranks_per_node
    cluster = Cluster(sim, LASSEN, nodes=nodes, ranks_per_node=ranks_per_node)
    return sim, Runtime(sim, cluster, SCHEME_REGISTRY[scheme])


def _run_all(sim, programs):
    procs = [sim.process(p) for p in programs]
    sim.run(sim.all_of(procs))


@pytest.mark.parametrize("scheme", ["GPU-Sync", "Proposed"])
def test_alltoall_contiguous(scheme):
    sim, rt = _runtime(scheme=scheme)
    size = rt.size
    slot = Contiguous(64, DOUBLE).commit()  # 512 B per peer slot
    ext = slot.extent
    bufs = {}
    for r in range(size):
        rank = rt.rank(r)
        send = rank.device.alloc(size * ext)
        # Slot for peer p holds the value 10*r + p.
        view = send.view(np.float64)
        for p in range(size):
            view[p * 64 : (p + 1) * 64] = 10 * r + p
        recv = rank.device.alloc(size * ext)
        bufs[r] = (send, recv)

    def prog(r):
        yield from alltoall(rt.rank(r), bufs[r][0], slot, bufs[r][1], slot)

    _run_all(sim, [prog(r) for r in range(size)])
    for r in range(size):
        view = bufs[r][1].view(np.float64)
        for p in range(size):
            # Slot p of rank r's recv = what p sent toward r.
            assert (view[p * 64 : (p + 1) * 64] == 10 * p + r).all()


def test_alltoall_noncontiguous_types():
    """The FFT-transpose shape: strided columns out, rows back in."""
    from repro.datatypes import Resized

    sim, rt = _runtime(size=2, ranks_per_node=1)
    n = 8  # local matrix is n x n doubles, 2 ranks -> column blocks of 4
    # Canonical MPI transpose idiom: resize the column block so peer
    # slices interleave at (n/2)-double spacing instead of full extent.
    col = Resized(
        Vector(n, n // 2, n, DOUBLE), 0, (n // 2) * 8
    ).commit()                                            # column block
    row = Contiguous(n * (n // 2), DOUBLE).commit()       # packed rows
    bufs = {}
    for r in range(2):
        rank = rt.rank(r)
        send = rank.device.alloc(n * n * 8)
        send.view(np.float64)[:] = np.arange(n * n) + 1000 * r
        recv = rank.device.alloc(n * n * 8)
        bufs[r] = (send, recv)

    def prog(r):
        yield from alltoall(rt.rank(r), bufs[r][0], col, bufs[r][1], row)

    _run_all(sim, [prog(r) for r in range(2)])
    for me in (0, 1):
        for peer in (0, 1):
            got = bufs[me][1].view(np.float64)[
                peer * n * (n // 2) : (peer + 1) * n * (n // 2)
            ]
            src = bufs[peer][0].view(np.float64)
            # One double per 8 byte-indices of the gather index.
            idx = (col.flatten().gather_index()[::8] // 8) + me * (n // 2)
            assert np.array_equal(got, src[idx])


def test_alltoall_size_mismatch_rejected():
    sim, rt = _runtime(size=2, ranks_per_node=1)
    a = Contiguous(4, DOUBLE).commit()
    b = Contiguous(8, DOUBLE).commit()
    rank = rt.rank(0)
    buf = rank.device.alloc(1024)

    def prog():
        yield from alltoall(rank, buf, a, buf, b)

    p = sim.process(prog())
    with pytest.raises(ValueError):
        sim.run(p)


def test_neighbor_alltoall_halo_pair():
    """Symmetric 2-rank halo via the neighborhood collective."""
    sim, rt = _runtime(size=2, ranks_per_node=1)
    sched = halo_2d((12, 12))
    arrays = {}
    for r in (0, 1):
        buf = rt.rank(r).device.alloc(sched.array_bytes)
        buf.data[:] = np.random.default_rng(r).integers(0, 256, buf.nbytes)
        arrays[r] = buf

    by_dir = {n.direction: n for n in sched.neighbors}
    order = sorted(by_dir)  # identical order on both ranks

    def exchanges(_r, peer):
        out = []
        for d in order:
            send_t = by_dir[d].send_type
            # Entry i receives what the peer's entry i sends: the
            # peer's d-direction boundary fills my (-d) ghost.
            recv_t = by_dir[tuple(-x for x in d)].recv_type
            out.append((peer, send_t, recv_t))
        return out

    def prog(r, peer):
        yield from neighbor_alltoall(rt.rank(r), arrays[r], exchanges(r, peer))

    snapshots = {r: arrays[r].data.copy() for r in (0, 1)}
    _run_all(sim, [prog(0, 1), prog(1, 0)])
    for me, peer in ((0, 1), (1, 0)):
        for d in order:
            ghost = by_dir[tuple(-x for x in d)].recv_type
            sent = by_dir[d].send_type
            got = arrays[me].data[ghost.flatten().gather_index()]
            want = snapshots[peer][sent.flatten().gather_index()]
            assert np.array_equal(got, want), d


def test_collectives_fuse_under_proposed():
    """An alltoall's P-1 packs/unpacks per rank batch into few fused
    kernels — the bulk scenario a collective naturally generates."""
    sim, rt = _runtime(size=4, scheme="Proposed", ranks_per_node=2)
    col = Vector(32, 8, 32, DOUBLE).commit()
    bufs = {}
    for r in range(4):
        rank = rt.rank(r)
        bufs[r] = (
            rank.device.alloc(4 * col.extent + 8),
            rank.device.alloc(4 * col.extent + 8),
        )

    def prog(r):
        yield from alltoall(rt.rank(r), bufs[r][0], col, bufs[r][1], col)

    _run_all(sim, [prog(r) for r in range(4)])
    stats = rt.rank(0).scheme.scheduler.stats
    assert stats.enqueued >= 6  # 3 packs + 3 unpacks
    assert stats.launches < stats.enqueued


@pytest.mark.parametrize("size", [2, 3, 4, 5])
@pytest.mark.parametrize("op,expected_fn", [
    ("sum", lambda vals: sum(vals)),
    ("max", lambda vals: max(vals)),
    ("min", lambda vals: min(vals)),
])
def test_allreduce(size, op, expected_fn):
    from repro.mpi import allreduce

    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=size, ranks_per_node=1)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY["GPU-Sync"])
    results = {}

    def prog(r):
        contribution = np.array([float(r + 1), float(10 * (r + 1))])
        results[r] = yield from allreduce(rt.rank(r), contribution, op=op)

    procs = [sim.process(prog(r)) for r in range(size)]
    sim.run(sim.all_of(procs))
    want0 = expected_fn([r + 1 for r in range(size)])
    want1 = expected_fn([10 * (r + 1) for r in range(size)])
    for r in range(size):
        assert results[r][0] == pytest.approx(want0), (r, op)
        assert results[r][1] == pytest.approx(want1), (r, op)


def test_allreduce_single_rank():
    from repro.mpi import allreduce

    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1, ranks_per_node=1)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY["GPU-Sync"])
    out = {}

    def prog():
        out["v"] = yield from allreduce(rt.rank(0), np.array([4.0]))

    sim.run(sim.process(prog()))
    assert out["v"][0] == 4.0


def test_allreduce_rejects_unknown_op():
    from repro.mpi import allreduce

    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1, ranks_per_node=2)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY["GPU-Sync"])

    def prog():
        yield from allreduce(rt.rank(0), np.array([1.0]), op="xor")

    p = sim.process(prog())
    with pytest.raises(ValueError):
        sim.run(p)
