"""Tests for the allreduce collective over the pt2pt runtime."""

import numpy as np
import pytest

from repro.mpi import Runtime, allreduce
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator


@pytest.mark.parametrize("size", [2, 3, 4, 5])
@pytest.mark.parametrize("op,expected_fn", [
    ("sum", lambda vals: sum(vals)),
    ("max", lambda vals: max(vals)),
    ("min", lambda vals: min(vals)),
])
def test_allreduce(size, op, expected_fn):
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
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1, ranks_per_node=1)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY["GPU-Sync"])
    out = {}

    def prog():
        out["v"] = yield from allreduce(rt.rank(0), np.array([4.0]))

    sim.run(sim.process(prog()))
    assert out["v"][0] == 4.0


def test_allreduce_rejects_unknown_op():
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1, ranks_per_node=2)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY["GPU-Sync"])

    def prog():
        yield from allreduce(rt.rank(0), np.array([1.0]), op="xor")

    p = sim.process(prog())
    with pytest.raises(ValueError):
        sim.run(p)
