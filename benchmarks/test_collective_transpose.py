"""Extension — datatype-typed alltoall (FFT transpose) under fusion.

Not a paper figure: the paper's bulk scenario ("multiple non-contiguous
data transfers to multiple neighbors") arises most naturally from
collectives, so this bench runs a matrix-transpose ``MPI_Alltoall`` of
resized column-block datatypes across 4 ranks (2 nodes × 2 GPUs) and
compares schemes.  Every rank packs P-1 strided column blocks and
unpacks P-1 row blocks per call — 6 fusable kernels per rank here,
which the proposed framework batches into a handful of launches.
"""


from repro.datatypes import DOUBLE, Contiguous, Resized, Vector
from repro.mpi import Runtime, alltoall
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator

SIZE = 4
N = 256  # local matrix N x N doubles


def _transpose_latency(scheme_factory) -> tuple:
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2, ranks_per_node=2, functional=False)
    rt = Runtime(sim, cluster, scheme_factory)
    colw = N // SIZE
    col = Resized(Vector(N, colw, N, DOUBLE), 0, colw * 8).commit()
    row = Contiguous(N * colw, DOUBLE).commit()
    bufs = {
        r: (rt.rank(r).device.alloc(N * N * 8), rt.rank(r).device.alloc(N * N * 8))
        for r in range(SIZE)
    }

    def prog(r):
        yield from alltoall(rt.rank(r), bufs[r][0], col, bufs[r][1], row)

    procs = [sim.process(prog(r)) for r in range(SIZE)]
    sim.run(sim.all_of(procs))
    scheme0 = rt.rank(0).scheme
    stats = getattr(scheme0, "scheduler", None)
    return sim.now, stats.stats if stats else None


def test_transpose_alltoall(report):
    schemes = {
        name: SCHEME_REGISTRY[name]
        for name in ("GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed")
    }
    rows = []
    latency = {}
    for name, factory in schemes.items():
        lat, stats = _transpose_latency(factory)
        latency[name] = lat
        extra = (
            f"  ({stats.launches} fused kernels, mean batch {stats.mean_batch:.1f})"
            if stats
            else ""
        )
        rows.append(f"  {name:<16}{lat * 1e6:>10.2f}us{extra}")
    report(
        "collective_transpose",
        f"Extension — {N}x{N} transpose alltoall, {SIZE} ranks "
        "(2 nodes x 2 GPUs, Lassen)\n" + "\n".join(rows),
    )

    assert latency["Proposed"] == min(latency.values())
    assert latency["GPU-Sync"] / latency["Proposed"] > 1.5
