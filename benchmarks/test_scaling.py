"""Extension — rank-count scaling of the bulk exchange.

Not a paper figure: the paper runs two ranks on two nodes; this bench
scales the same bulk pattern to larger jobs (2–8 ranks over 2 nodes,
ring neighbors, mixed intra-/inter-node traffic) and checks that the
fusion advantage *persists* as the job grows — per-rank request lists
and schedulers are independent, so nothing serializes globally.
"""


from repro.mpi import Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator
from repro.workloads import WORKLOADS

NBUF = 8


def _ring_latency(scheme_factory, ranks_per_node):
    sim = Simulator()
    cluster = Cluster(
        sim, LASSEN, nodes=2, ranks_per_node=ranks_per_node, functional=False
    )
    rt = Runtime(sim, cluster, scheme_factory)
    size = rt.size
    spec = WORKLOADS["specfem3D_cm"](1000)

    bufs = {}
    for r in range(size):
        rank = rt.rank(r)
        bufs[r] = (
            rank.device.alloc(spec.buffer_bytes()),
            rank.device.alloc(spec.buffer_bytes()),
            rank.device.alloc(spec.buffer_bytes()),
        )

    def program(r):
        rank = rt.rank(r)
        left, right = (r - 1) % size, (r + 1) % size
        send, from_left, from_right = bufs[r]
        reqs = []
        for i in range(NBUF):
            reqs.append(rank.irecv(from_left, spec.datatype, 1, left, tag=i))
            reqs.append(rank.irecv(from_right, spec.datatype, 1, right, tag=NBUF + i))
        for i in range(NBUF):
            sreq = yield from rank.isend(send, spec.datatype, 1, right, tag=i)
            reqs.append(sreq)
            sreq = yield from rank.isend(send, spec.datatype, 1, left, tag=NBUF + i)
            reqs.append(sreq)
        yield from rank.waitall(reqs)

    procs = [sim.process(program(r)) for r in range(size)]
    sim.run(sim.all_of(procs))
    return sim.now


def test_scaling_ring(benchmark, report):
    rows = []
    speedups = {}
    for rpn in (1, 2, 4):
        sync = _ring_latency(SCHEME_REGISTRY["GPU-Sync"], rpn)
        prop = _ring_latency(SCHEME_REGISTRY["Proposed"], rpn)
        speedups[rpn] = sync / prop
        rows.append(
            f"  {2 * rpn} ranks (2 nodes x {rpn} GPUs): "
            f"GPU-Sync={sync * 1e6:9.1f}us  Proposed={prop * 1e6:9.1f}us  "
            f"({speedups[rpn]:.2f}x)"
        )
    report(
        "scaling_ring",
        "Extension — ring bulk exchange vs job size "
        f"(specfem3D_cm dim=1000, {2 * NBUF} ops/rank)\n" + "\n".join(rows),
    )
    # The fusion win persists at every job size.
    for rpn, factor in speedups.items():
        assert factor > 2.0, (rpn, factor)

    benchmark.pedantic(lambda: _ring_latency(SCHEME_REGISTRY["Proposed"], 2), rounds=1)
