#!/usr/bin/env python3
"""One-sided halo exchange: Put + fence instead of send/recv.

The zero-copy datatype literature the paper builds on (Santhanaraman et
al.'s send-gather/receive-scatter [40], FALCON-X [25]) frames halo
exchange as *one-sided* access: expose the local array in a window and
let each neighbor ``MPI_Put`` its boundary straight into your ghost
cells.  With derived datatypes on both sides there is no intermediate
representation the application ever sees.

This example runs the Fig. 3 exchange three ways on the same data:

1. two-sided isend/irecv (the paper's main path),
2. one-sided Put/fence over GPUDirect between nodes,
3. one-sided Put/fence **intra-node with DirectIPC** — each Put becomes
   a single fused load-store kernel: true zero-copy.

All three must (and do) deliver identical ghost cells.

Run:  python examples/one_sided_halo.py
"""

import numpy as np

from repro.config import ProtocolCfg
from repro.mpi import Runtime, create_windows, neighbor_alltoall
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator
from repro.workloads import halo_2d

INTERIOR = (48, 48)


def _setup(nodes, ranks_per_node, protocol=ProtocolCfg()):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=nodes, ranks_per_node=ranks_per_node)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY["Proposed"], protocol=protocol)
    sched = halo_2d(INTERIOR)
    arrays = {}
    for r in (0, 1):
        buf = rt.rank(r).device.alloc(sched.array_bytes)
        buf.data[:] = np.random.default_rng(r).integers(0, 256, buf.nbytes)
        arrays[r] = buf
    return sim, rt, sched, arrays


def _verify(sched, arrays, snapshots):
    for me, peer in ((0, 1), (1, 0)):
        for n in sched.neighbors:
            opp = next(
                x for x in sched.neighbors
                if x.direction == tuple(-d for d in n.direction)
            )
            got = arrays[me].data[n.recv_type.flatten().gather_index()]
            want = snapshots[peer][opp.send_type.flatten().gather_index()]
            assert np.array_equal(got, want), n.direction


def two_sided():
    sim, rt, sched, arrays = _setup(nodes=2, ranks_per_node=1)
    by_dir = {n.direction: n for n in sched.neighbors}
    order = sorted(by_dir)

    def prog(me, peer):
        exchanges = [
            (peer, by_dir[d].send_type, by_dir[tuple(-x for x in d)].recv_type)
            for d in order
        ]
        yield from neighbor_alltoall(rt.rank(me), arrays[me], exchanges)

    snapshots = {r: arrays[r].data.copy() for r in (0, 1)}
    procs = [sim.process(prog(0, 1)), sim.process(prog(1, 0))]
    sim.run(sim.all_of(procs))
    _verify(sched, arrays, snapshots)
    return sim.now * 1e6


def one_sided(nodes, ranks_per_node, protocol=ProtocolCfg()):
    sim, rt, sched, arrays = _setup(nodes, ranks_per_node, protocol)
    wins = create_windows(rt, arrays)
    by_dir = {n.direction: n for n in sched.neighbors}
    order = sorted(by_dir)

    def prog(me, peer):
        # Put my boundary for direction d straight into the peer's
        # ghost shell facing back at me (-d) — no receives anywhere.
        for d in order:
            opposite = tuple(-x for x in d)
            yield from wins[me].put(
                arrays[me], by_dir[d].send_type, 1, peer,
                target_type=by_dir[opposite].recv_type,
            )
        yield from wins[me].fence()

    snapshots = {r: arrays[r].data.copy() for r in (0, 1)}
    procs = [sim.process(prog(0, 1)), sim.process(prog(1, 0))]
    sim.run(sim.all_of(procs))
    _verify(sched, arrays, snapshots)
    return sim.now * 1e6


def main() -> None:
    print(f"2-D halo exchange ({INTERIOR[0]}x{INTERIOR[1]} doubles, "
          "4 neighbors, proposed scheme)\n")
    t = two_sided()
    print(f"  two-sided isend/irecv (inter-node)      : {t:8.1f} us")
    t = one_sided(nodes=2, ranks_per_node=1)
    print(f"  one-sided Put + fence (inter-node)      : {t:8.1f} us")
    t = one_sided(nodes=1, ranks_per_node=2, protocol=ProtocolCfg(enable_direct_ipc=True))
    print(f"  one-sided Put + fence (NVLink DirectIPC): {t:8.1f} us")
    print("\nSame ghost cells all three ways; the DirectIPC path never "
          "materializes a packed buffer at all.")


if __name__ == "__main__":
    main()
