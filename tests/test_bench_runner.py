"""Tests for the benchmark harness (runner + reports)."""

import numpy as np
import pytest

from repro.bench import (
    ExperimentResult,
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
    run_bulk_exchange,
    speedup_matrix,
)
from repro.config import ExperimentConfig
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Category

NAS_MG = ExperimentConfig().with_overrides(
    {"scheme.name": "GPU-Sync", "workload.name": "NAS_MG", "workload.dim": 32}
)


@pytest.fixture(scope="module")
def results():
    return {
        name: run_bulk_exchange(
            NAS_MG.with_overrides(
                {"scheme.name": name, "workload.nbuffers": 4, "harness.iterations": 3}
            )
        )
        for name in ("GPU-Sync", "Proposed")
    }


def test_result_latencies_recorded(results):
    r = results["GPU-Sync"]
    assert len(r.latencies) == 3
    assert r.mean_latency > 0
    assert r.min_latency <= r.mean_latency
    assert r.scheme == "GPU-Sync"
    assert r.workload == "NAS_MG"
    assert r.system == "Lassen"
    assert r.message_bytes == 32 * 32 * 8


def test_iterations_are_deterministic(results):
    """The simulation is noise-free: steady-state iterations agree."""
    for r in results.values():
        assert max(r.latencies) - min(r.latencies) < 1e-9


def test_breakdown_sums_to_latency(results):
    for r in results.values():
        total = sum(r.breakdown.values())
        assert total == pytest.approx(r.mean_latency, rel=0.05)


def test_proposed_beats_sync(results):
    assert results["Proposed"].speedup_over(results["GPU-Sync"]) > 1.5


def test_proposed_lower_launch_and_sync(results):
    sync_bd = results["GPU-Sync"].breakdown
    prop_bd = results["Proposed"].breakdown
    assert prop_bd[Category.LAUNCH] < sync_bd[Category.LAUNCH]
    assert prop_bd[Category.SYNC] < sync_bd[Category.SYNC]


def test_scheduler_stats_captured(results):
    stats = results["Proposed"].scheduler_stats
    assert stats is not None
    assert stats.enqueued > 0


def test_work_counts_per_op_and_fused_launches(results):
    sync, fused = results["GPU-Sync"].work, results["Proposed"].work
    assert set(sync) == {"events", "kernel_launches", "link_transfers", "link_bytes"}
    # Proposed launches only through its scheduler, GPU-Sync only per op.
    assert 0 < fused["kernel_launches"] < sync["kernel_launches"]
    assert fused["link_bytes"] == sync["link_bytes"] > 0
    assert fused["events"] > 0 and fused["link_transfers"] > 0


def test_data_plane_off_matches_timing():
    wet_cfg = NAS_MG.with_overrides({"workload.nbuffers": 2, "harness.iterations": 2})
    wet = run_bulk_exchange(wet_cfg)
    dry = run_bulk_exchange(wet_cfg.with_overrides({"harness.data_plane": False}))
    assert dry.mean_latency == pytest.approx(wet.mean_latency, rel=1e-9)


def test_runner_validation():
    with pytest.raises(ValueError):
        NAS_MG.with_overrides({"harness.iterations": 0})


def test_live_fault_plan_and_configured_faults_are_exclusive():
    from repro.sim import FaultPlan

    cfg = NAS_MG.with_overrides({"faults.preset": "light"})
    with pytest.raises(TypeError, match="faults"):
        run_bulk_exchange(cfg, faults=FaultPlan(seed=1))


def test_verification_detects_dropped_bytes(monkeypatch):
    """verify=True really checks: sabotage the data plane — drop every
    byte, pack from one byte off the layout, or pack the right bytes
    rotated one place — and the harness must raise its corruption
    error, although fill and verification touch only the layout's
    bytes."""
    import repro.bench.runner as runner_mod
    import repro.gpu.kernels as kernels_mod
    from repro.net.topology import Cluster as RealCluster

    def assert_corruption_caught(workload):
        cfg = NAS_MG.with_overrides(
            {
                "workload.name": workload,
                "workload.dim": 16,
                "workload.nbuffers": 2,
                "harness.iterations": 1,
                "harness.warmup": 0,
            }
        )
        with pytest.raises(AssertionError, match="corruption"):
            run_bulk_exchange(cfg)

    class SabotagedCluster(RealCluster):
        def __init__(self, sim, system, functional=True):
            # Devices silently drop all byte movement while the harness
            # believes the data plane is live.
            super().__init__(sim, system, functional=False)

    with monkeypatch.context() as m:
        m.setattr(runner_mod, "Cluster", SabotagedCluster)
        assert_corruption_caught("NAS_MG")

    real_pack = kernels_mod.pack_bytes

    def off_by_one_pack(source, layout, packed=None, base_offset=0):
        # Every block is read one byte early: the gap byte before each
        # block is sent and the block's last payload byte is missed.
        return real_pack(source, layout, packed, base_offset=base_offset - 1)

    with monkeypatch.context() as m:
        m.setattr(kernels_mod, "pack_bytes", off_by_one_pack)
        # specfem3D_cm starts past byte 0, so the shifted read stays in
        # bounds; it takes the gather path.
        assert_corruption_caught("specfem3D_cm")

    def rotated_pack(source, layout, packed=None, base_offset=0):
        # The right bytes in the wrong places: the packed payload is
        # rotated one byte, which stays in bounds on any layout.
        out = real_pack(source, layout, packed, base_offset=base_offset)
        out[: layout.size] = np.roll(out[: layout.size], 1)
        return out

    monkeypatch.setattr(kernels_mod, "pack_bytes", rotated_pack)
    # NAS_MG takes the strided path.
    assert_corruption_caught("NAS_MG")


MILC_32 = NAS_MG.with_overrides(
    {
        "workload.name": "MILC",
        "workload.dim": 32,
        "workload.nbuffers": 2,
        "harness.iterations": 1,
        "harness.warmup": 0,
    }
)


def test_wet_milc_buffers_back_their_layout_not_their_extent(monkeypatch):
    """MILC at dim 32 moves 786 KB per buffer out of a 25.1 MB extent;
    each user buffer's store holds the payload plus its guard bytes
    (measured as the run frees it)."""
    from repro.gpu.device import GPUDevice
    from repro.gpu.memory import GPUBuffer

    backed = {}
    stored = []
    real_alloc, real_free = GPUDevice.alloc, GPUBuffer.free

    def recording_alloc(device, nbytes, *args, layout=None, **kwargs):
        buf = real_alloc(device, nbytes, *args, layout=layout, **kwargs)
        if layout is not None:
            backed[buf] = layout
        return buf

    def recording_free(buf):
        if buf in backed:
            stored.append(len(buf.address(backed[buf])[0]))
        real_free(buf)

    monkeypatch.setattr(GPUDevice, "alloc", recording_alloc)
    monkeypatch.setattr(GPUBuffer, "free", recording_free)
    run_bulk_exchange(MILC_32)  # verified: the stores carried every byte
    assert len(backed) == 8  # 2 ranks x 2 buffers x (send, receive)
    assert all(buf.nbytes == 25_142_016 for buf in backed)
    assert len(stored) == 8 and max(stored) <= 900_000


def test_wet_milc_rendezvous_records_never_hold_a_payload(monkeypatch):
    """An RPUT message's bytes go from send staging straight into
    receive staging when the write ends: no rendezvous record ever
    holds a packed copy, matched or not."""
    import repro.mpi.communicator as communicator
    from repro.mpi.matching import MessageRecord

    records, held = [], []

    class WatchedRecord(MessageRecord):
        def __post_init__(self):
            super().__post_init__()
            records.append(self)

        def __setattr__(self, name, value):
            if name == "payload" and value is not None and self.protocol != "eager":
                held.append(self.seq)
            super().__setattr__(name, value)

    monkeypatch.setattr(communicator, "MessageRecord", WatchedRecord)
    run_bulk_exchange(MILC_32)
    # 2 ranks x 2 buffers, plus the eager barrier tokens
    assert sum(r.protocol == "rput" for r in records) == 4
    assert held == []


def test_finished_exchange_frees_its_stores_without_the_cyclic_collector(monkeypatch):
    """Every store a wet run materialises is dead when it returns, with
    the cyclic garbage collector off: the run frees its buffers and
    trims its staging pools instead of leaving them to reference
    cycles between its finished objects."""
    import gc
    import weakref

    import repro.gpu.memory as memory

    stores = []
    real_zeroed = memory._zeroed

    def recording_zeroed(nbytes, fill):
        store = real_zeroed(nbytes, fill)
        stores.append(weakref.ref(store))
        return store

    monkeypatch.setattr(memory, "_zeroed", recording_zeroed)
    cfg = NAS_MG.with_overrides(
        {"workload.dim": 64, "workload.nbuffers": 2, "harness.iterations": 1}
    )
    gc.collect()
    gc.disable()
    try:
        run_bulk_exchange(cfg)
        alive = sum(ref() is not None for ref in stores)
    finally:
        gc.enable()
    assert len(stores) > 8  # user buffers, staging and barrier tokens
    assert alive == 0


# -- report formatting -------------------------------------------------------------


def _fake(scheme, latency):
    r = ExperimentResult(
        scheme=scheme, workload="w", system="s", nbuffers=4, dim=32
    )
    r.latencies = [latency]
    r.breakdown = {c: 0.0 for c in Category}
    r.breakdown[Category.PACK] = latency / 2
    r.breakdown[Category.COMM] = latency / 2
    return r


def test_format_latency_table():
    grid = {
        "A": {32: _fake("A", 1e-4), 64: _fake("A", 2e-4)},
        "B": {32: _fake("B", 2e-4)},
    }
    text = format_latency_table(grid, title="t", baseline="B")
    assert "100.00us" in text
    assert "speedup over B" in text
    assert "--" in text  # missing cell for B/64


def test_format_breakdown_table():
    text = format_breakdown_table([_fake("A", 1e-4)], title="bd")
    assert "pack" in text and "comm" in text
    assert "50.00us" in text


def test_speedup_matrix_and_table():
    grid = {
        "ref": {32: _fake("ref", 4e-4)},
        "fast": {32: _fake("fast", 1e-4)},
    }
    m = speedup_matrix(grid, "ref")
    assert m["fast"][32] == pytest.approx(4.0)
    assert m["ref"][32] == pytest.approx(1.0)
    text = format_speedup_table(grid, "ref", title="sp")
    assert "4.00x" in text


def test_quick_compare_smoke():
    from repro import quick_compare

    text = quick_compare(dim=64, nbuffers=2)
    assert text.splitlines()[0] == "specfem3D_cm (dim=64, 2 buffers) on Lassen"
    for name in SCHEME_REGISTRY:
        assert name in text
    assert "Proposed        speedup over GPU-Sync" in text
