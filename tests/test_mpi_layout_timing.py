"""Tests for timed datatype handling and the layout cache's effect."""

import pytest

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, ProtocolCfg
from repro.datatypes import DOUBLE, DataLayout, Indexed, LayoutCache, Vector
from repro.mpi import Runtime, communicator
from repro.net import Cluster, LASSEN
from repro.obs import Observer, Recorder
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Category, Simulator, Trace


def _runtime(**protocol):
    sim = Simulator()
    sim.obs = Observer(recorder=Recorder())
    cluster = Cluster(sim, LASSEN, nodes=2)
    return sim, Runtime(
        sim, cluster, SCHEME_REGISTRY["GPU-Sync"], protocol=ProtocolCfg(**protocol)
    )


#: a timing-only GPU-Sync exchange; tests set the workload axes
DRY_SYNC = ExperimentConfig().with_overrides(
    {"scheme.name": "GPU-Sync", "harness.iterations": 2, "harness.data_plane": False}
)


def _flattens(sim) -> int:
    """Flatten charges recorded so far."""
    return sum(1 for e in sim.obs.recorder.events if e.name == "flatten")


def _drive(sim, gen):
    box = {}

    def proc():
        box["v"] = yield from gen

    sim.run(sim.process(proc()))
    return box["v"]


def test_first_use_charges_flatten_cost():
    sim, rt = _runtime()
    rank = rt.rank(0)
    dt = Vector(128, 2, 5, DOUBLE).commit()
    t0 = sim.now
    lay = _drive(sim, rank.resolve_layout_timed(dt, 1))
    expected = rt.flatten_base_cost + lay.num_blocks * rt.flatten_block_cost
    assert sim.now - t0 == pytest.approx(expected)
    assert _flattens(sim) == 1


def test_cache_hit_is_free():
    sim, rt = _runtime()
    rank = rt.rank(0)
    dt = Vector(128, 2, 5, DOUBLE).commit()
    _drive(sim, rank.resolve_layout_timed(dt, 1))
    t1 = sim.now
    _drive(sim, rank.resolve_layout_timed(Vector(128, 2, 5, DOUBLE).commit(), 1))
    assert sim.now == t1  # structural twin: hit, no charge


def test_equal_distinct_types_share_one_memo_entry():
    """The rank's layout store keys on the type itself; structurally
    equal handles still resolve to one entry and pay one flatten."""
    sim, rt = _runtime()
    rank = rt.rank(0)
    a = Indexed([4, 1, 3], [0, 10, 20], DOUBLE).commit()
    b = Indexed([4, 1, 3], [0, 10, 20], DOUBLE).commit()
    assert a is not b
    lay_a = _drive(sim, rank.resolve_layout_timed(a, 2))
    lay_b = _drive(sim, rank.resolve_layout_timed(b, 2))
    assert lay_a is lay_b is rank.resolve_layout(b, 2)
    assert len(rank.layout_cache) == 1
    assert _flattens(sim) == 1


def test_cache_disabled_charges_every_time():
    sim, rt = _runtime(layout_cache_enabled=False)
    rank = rt.rank(0)
    dt = Vector(128, 2, 5, DOUBLE).commit()
    _drive(sim, rank.resolve_layout_timed(dt, 1))
    t1 = sim.now
    _drive(sim, rank.resolve_layout_timed(dt, 1))
    assert sim.now > t1


def test_raw_layout_never_charged():
    sim, rt = _runtime(layout_cache_enabled=False)
    rank = rt.rank(0)
    lay = Vector(128, 2, 5, DOUBLE).commit().flatten()
    _drive(sim, rank.resolve_layout_timed(lay, 1))
    assert sim.now == 0.0


def test_flatten_cost_scales_with_blocks():
    sim, rt = _runtime()
    rank = rt.rank(0)
    small = Vector(8, 2, 5, DOUBLE).commit()
    big = Vector(8192, 2, 5, DOUBLE).commit()
    t0 = sim.now
    _drive(sim, rank.resolve_layout_timed(small, 1))
    small_cost = sim.now - t0
    t1 = sim.now
    _drive(sim, rank.resolve_layout_timed(big, 1))
    big_cost = sim.now - t1
    assert big_cost > small_cost


def test_end_to_end_cache_effect_on_sparse_exchange():
    """Disabling the cache slows a sparse bulk exchange measurably and
    shows up in the SCHED bucket (flatten charges)."""
    cfg = DRY_SYNC.with_overrides(
        {"workload.name": "specfem3D_cm", "workload.dim": 2000, "workload.nbuffers": 8}
    )
    on = run_bulk_exchange(cfg)
    off = run_bulk_exchange(cfg.with_overrides({"protocol.layout_cache_enabled": False}))
    assert off.mean_latency > on.mean_latency * 1.05
    assert off.breakdown[Category.SCHED] > on.breakdown[Category.SCHED]


def test_warmup_absorbs_the_one_time_flatten():
    """With the cache on, steady-state iterations pay nothing: the
    post-warm-up latencies are iteration-identical."""
    r = run_bulk_exchange(
        DRY_SYNC.with_overrides(
            {
                "workload.name": "MILC",
                "workload.dim": 16,
                "workload.nbuffers": 4,
                "harness.iterations": 3,
            }
        )
    )
    assert max(r.latencies) - min(r.latencies) < 1e-9


@pytest.mark.parametrize("enabled", [True, False])
def test_cache_hits_are_the_uncharged_timed_resolutions(monkeypatch, enabled):
    """In a default bulk exchange the store's statistics are the cost
    model's: every hit is a timed resolution that paid no flatten, and
    a disabled cache never hits."""
    caches, counts = [], {"timed": 0, "flatten": 0}

    class Store(LayoutCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    resolve, charge = communicator.Rank.resolve_layout_timed, Trace.charge

    def resolve_layout_timed(rank, datatype, count=1):
        counts["timed"] += not isinstance(datatype, DataLayout)
        return resolve(rank, datatype, count)

    def record_charge(trace, category, start, end, label=""):
        counts["flatten"] += label == "flatten"
        charge(trace, category, start, end, label)

    monkeypatch.setattr(communicator, "LayoutCache", Store)
    monkeypatch.setattr(communicator.Rank, "resolve_layout_timed", resolve_layout_timed)
    monkeypatch.setattr(Trace, "charge", record_charge)
    run_bulk_exchange(
        ExperimentConfig().with_overrides({"protocol.layout_cache_enabled": enabled})
    )
    hits = sum(c.stats.hits for c in caches)
    assert len(caches) == 2
    assert sum(c.stats.misses for c in caches) == counts["flatten"] > 0
    assert hits == counts["timed"] - counts["flatten"]
    assert (hits > 0) is enabled
