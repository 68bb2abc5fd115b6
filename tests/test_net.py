"""Unit tests for links, topology, systems, and transfers."""

import pytest

from repro.net import (
    ABCI,
    LASSEN,
    SYSTEMS,
    Cluster,
    Link,
    LinkSpec,
    rdma_read,
    rdma_write,
)
from repro.sim import FaultPlan, Simulator, us

GB = 1e9


# -- LinkSpec / Link ------------------------------------------------------------


def test_transfer_time_formula():
    spec = LinkSpec("test", bandwidth=10 * GB, latency=us(2))
    assert spec.transfer_time(0) == pytest.approx(us(2))
    assert spec.transfer_time(10_000_000) == pytest.approx(us(2) + 1e-3)
    with pytest.raises(ValueError):
        spec.transfer_time(-1)


def test_link_serializes_same_direction():
    sim = Simulator()
    link = Link(sim, LinkSpec("l", bandwidth=1 * GB, latency=0.0))
    times = []

    def xfer():
        t = yield from link.transmit(1_000_000, "fwd")  # 1 ms each
        times.append((sim.now, t))

    sim.process(xfer())
    sim.process(xfer())
    sim.run()
    assert times[0][0] == pytest.approx(1e-3)
    assert times[1][0] == pytest.approx(2e-3)
    assert times[1][1] == pytest.approx(2e-3)  # includes queueing
    assert link.bytes_carried == 2_000_000
    assert link.transfer_count == 2


def _transmit_trace(faults):
    sim = Simulator()
    sim.faults = faults
    link = Link(sim, LinkSpec("test", bandwidth=10 * GB, latency=us(1)))
    times = []

    def proc():
        for nbytes in (1_000, 1_000_000, 64):
            spent = yield from link.transmit(nbytes)
            times.append((sim.now, spent))

    sim.process(proc())
    sim.run()
    return times, link.bytes_carried, link.transfer_count, sim.events_processed


def test_link_closed_form_matches_fault_loop():
    """An all-zero plan costs nothing: ``transmit`` emits the same
    timeline with it as with no plan attached."""
    closed = _transmit_trace(None)
    looped = _transmit_trace(FaultPlan(seed=0))
    assert closed == looped
    assert closed[1:3] == (1_001_064, 3)


def test_link_duplex_directions_independent():
    sim = Simulator()
    link = Link(sim, LinkSpec("l", bandwidth=1 * GB, latency=0.0))
    done = []

    def xfer(direction):
        yield from link.transmit(1_000_000, direction)
        done.append(sim.now)

    sim.process(xfer("fwd"))
    sim.process(xfer("rev"))
    sim.run()
    assert done == [pytest.approx(1e-3), pytest.approx(1e-3)]


# -- systems (Table II) ------------------------------------------------------------


def test_table2_lassen_numbers():
    assert LASSEN.cpu_gpu.bandwidth == pytest.approx(75 * GB)
    assert LASSEN.gpu_gpu.bandwidth == pytest.approx(75 * GB)
    assert LASSEN.gpus_per_node == 4
    assert LASSEN.gpu_arch.name == "Tesla V100"


def test_table2_abci_numbers():
    assert ABCI.cpu_gpu.bandwidth == pytest.approx(32 * GB)
    assert ABCI.gpu_gpu.bandwidth == pytest.approx(50 * GB)
    assert ABCI.gpus_per_node == 4
    # ABCI's PCIe attachment inflates driver costs vs Lassen.
    assert (
        ABCI.gpu_arch.kernel_launch_overhead
        > LASSEN.gpu_arch.kernel_launch_overhead
    )


def test_systems_registry_and_describe():
    assert set(SYSTEMS) == {"Lassen", "ABCI"}
    assert "Lassen" in LASSEN.describe()


# -- cluster topology ----------------------------------------------------------------


def test_cluster_rank_placement():
    sim = Simulator()
    c = Cluster(sim, LASSEN, nodes=2, ranks_per_node=2)
    assert c.size == 4
    assert c.site(0).node == 0 and c.site(3).node == 1
    assert c.same_node(0, 1) and not c.same_node(1, 2)
    assert c.device(0) is not c.device(1)


def test_cluster_link_selection():
    sim = Simulator()
    c = Cluster(sim, LASSEN, nodes=2, ranks_per_node=2)
    intra, _ = c.data_link(0, 1)
    inter, _ = c.data_link(0, 2)
    assert intra.spec.bandwidth == LASSEN.gpu_gpu.bandwidth
    assert inter.spec.bandwidth == LASSEN.internode.bandwidth
    # Same node pair shares a fabric link object.
    again, _ = c.data_link(1, 3)
    assert again is inter


def test_cluster_self_link_rejected():
    c = Cluster(Simulator(), LASSEN)
    with pytest.raises(ValueError):
        c.data_link(0, 0)


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(Simulator(), LASSEN, nodes=0)
    with pytest.raises(ValueError):
        Cluster(Simulator(), LASSEN, ranks_per_node=5)  # only 4 GPUs


# -- transfers ----------------------------------------------------------------------------


def test_rdma_write_time():
    sim = Simulator()
    c = Cluster(sim, LASSEN, nodes=2)
    out = []

    def proc():
        t = yield from rdma_write(c, 0, 1, 1 << 20)
        out.append(t)

    sim.run(sim.process(proc()))
    expected = LASSEN.net_post_overhead + LASSEN.internode.transfer_time(1 << 20)
    assert out[0] == pytest.approx(expected)


def test_rdma_read_pays_request_latency():
    sim = Simulator()
    c = Cluster(sim, LASSEN, nodes=2)
    out = {}

    def reader():
        out["read"] = yield from rdma_read(c, 0, 1, 1 << 20)

    def writer():
        out["write"] = yield from rdma_write(c, 0, 1, 1 << 20)

    sim.run(sim.process(reader()))
    sim2 = Simulator()
    c2 = Cluster(sim2, LASSEN, nodes=2)

    def writer2():
        out["write"] = yield from rdma_write(c2, 0, 1, 1 << 20)

    sim2.run(sim2.process(writer2()))
    assert out["read"] > out["write"]

