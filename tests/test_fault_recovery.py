"""Integration tests: every transfer path survives injected faults.

Each layer's recovery mechanism is exercised in isolation with forced
(deterministic) fault decisions, then end-to-end through the bulk
exchange.  The invariant throughout: faults cost time, never
correctness.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig
from repro.core import FusionPolicy, FusionScheduler
from repro.core import scheduler as fusion_scheduler
from repro.datatypes import DataLayout
from repro.net import Cluster, LASSEN, Link, LinkSpec
from repro.schemes import SCHEME_REGISTRY
from repro.sim import FAULT_PRESETS, FaultPlan, FaultSpec, Simulator, Trace


class ForcedFaults(FaultPlan):
    """A plan whose decisions are scripted instead of drawn."""

    def __init__(self, **scripts):
        super().__init__(seed=0)
        # each script is a list of booleans consumed in call order
        self._scripts = {k: list(v) for k, v in scripts.items()}

    def _pop(self, kind):
        script = self._scripts.get(kind)
        return bool(script.pop(0)) if script else False

    def transfer_fails(self, link):
        if self._pop("transfer"):
            self.stats.transfer_failures += 1
            return True
        return False

    def drop_control(self, kind):
        if self._pop(kind):
            self.stats.control_drops += 1
            return True
        return False

    def launch_fails(self):
        if self._pop("launch"):
            self.stats.launch_failures += 1
            return True
        return False

    def straggler_multiplier(self):
        if self._pop("straggler"):
            self.stats.stragglers += 1
            return 1000.0
        return 1.0

    def ring_rejects(self):
        if self._pop("ring"):
            self.stats.ring_rejections += 1
            return True
        return False


def _drive(sim, gen):
    result = {}

    def proc():
        result["value"] = yield from gen

    p = sim.process(proc())
    sim.run(p)
    return result["value"]


# -- LinkSpec validation (satellite) -------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"bandwidth": 0.0, "latency": 1e-6},
    {"bandwidth": -1e9, "latency": 1e-6},
    {"bandwidth": float("nan"), "latency": 1e-6},
    {"bandwidth": 1e9, "latency": -1e-6},
])
def test_linkspec_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        LinkSpec(name="bad", **kwargs)


def test_linkspec_accepts_zero_latency():
    LinkSpec(name="ideal", bandwidth=1e9, latency=0.0)


# -- link retransmission ---------------------------------------------------------


def test_link_retransmits_until_success():
    sim = Simulator()
    sim.faults = ForcedFaults(transfer=[True, True, False])
    link = Link(sim, LinkSpec("ib", bandwidth=10e9, latency=1e-6))
    elapsed = _drive(sim, link.transmit(1 << 20))
    clean = link.spec.transfer_time(1 << 20)
    assert link.retransmits == 2
    assert link.transfer_count == 1
    # Two lost attempts + two backoffs + the successful attempt.
    assert elapsed == pytest.approx(3 * clean + (1e-6 + 2e-6))
    assert link.fault_delay == pytest.approx(2 * clean + (1e-6 + 2e-6))


def test_link_backoff_is_capped():
    from repro.net.link import BACKOFF_CAP_FACTOR

    sim = Simulator()
    nfail = 12
    sim.faults = ForcedFaults(transfer=[True] * nfail + [False])
    link = Link(sim, LinkSpec("ib", bandwidth=10e9, latency=1e-6))
    _drive(sim, link.transmit(4096))
    assert link.retransmits == nfail
    clean = link.spec.transfer_time(4096)
    backoffs = 0.0
    b = link.spec.latency
    for _ in range(nfail):
        backoffs += b
        b = min(2 * b, BACKOFF_CAP_FACTOR * link.spec.latency)
    assert link.fault_delay == pytest.approx(nfail * clean + backoffs)


def test_link_flap_holds_the_port():
    spec = FaultSpec(link_flap=1.0, flap_downtime=123e-6)
    sim = Simulator()
    sim.faults = FaultPlan(seed=0, spec=spec)
    link = Link(sim, LinkSpec("ib", bandwidth=10e9, latency=1e-6))
    elapsed = _drive(sim, link.transmit(4096))
    assert elapsed == pytest.approx(123e-6 + link.spec.transfer_time(4096))
    assert sim.faults.stats.link_flaps == 1


def test_fault_free_transmit_unchanged():
    sim = Simulator()
    link = Link(sim, LinkSpec("ib", bandwidth=10e9, latency=1e-6))
    elapsed = _drive(sim, link.transmit(1 << 16))
    assert elapsed == pytest.approx(link.spec.transfer_time(1 << 16))
    assert link.retransmits == 0 and link.fault_delay == 0.0


# -- control-plane watchdogs -------------------------------------------------------


#: a small specfem3D_cm exchange; tests override the axes they vary
EXCHANGE = ExperimentConfig().with_overrides(
    {
        "workload.name": "specfem3D_cm",
        "workload.dim": 200,
        "workload.nbuffers": 2,
        "harness.iterations": 2,
    }
)


def _exchange(faults, *, protocol="rput", nbuffers=2):
    cfg = EXCHANGE.with_overrides(
        {
            "workload.nbuffers": nbuffers,
            "protocol.eager_threshold": 0,
            "protocol.rendezvous": protocol,
        }
    )
    return run_bulk_exchange(cfg, faults=faults)


@pytest.mark.parametrize("protocol", ["rput", "rget"])
def test_rts_drop_recovered_by_watchdog(protocol):
    # Drop the first two RTS packets; the sender watchdogs re-send.
    faults = ForcedFaults(rts=[True, True])
    result = _exchange(faults, protocol=protocol)
    assert result.recovery.rts_retransmits >= 2
    assert faults.stats.control_drops == 2
    # run_bulk_exchange verified every delivered byte already.


def test_cts_drop_recovered_by_duplicate_rts():
    # Lose the first CTS; the sender's RTS watchdog fires, the duplicate
    # RTS reaches the matched record, and the receiver re-offers CTS.
    faults = ForcedFaults(cts=[True])
    result = _exchange(faults, protocol="rput")
    assert result.recovery.cts_resends >= 1
    assert result.recovery.rts_retransmits >= 1


def test_control_drops_under_preset_all_protocols():
    for protocol in ("rput", "rget"):
        plan = FaultPlan(seed=11, spec=FaultSpec(control_drop=0.5))
        result = _exchange(plan, protocol=protocol, nbuffers=4)
        assert plan.stats.control_drops > 0
        assert result.recovery.rts_retransmits > 0


# -- scheduler degradation ladder ---------------------------------------------------


@pytest.fixture()
def env():
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1)
    return sim, cluster.site(0)


def _op(site, nbytes=8192, blocks=32, seed=0):
    dev = site.device
    step = max(2, 2 * (nbytes // blocks))
    lay = DataLayout(
        np.arange(blocks, dtype=np.int64) * step,
        np.full(blocks, nbytes // blocks, dtype=np.int64),
    )
    src = dev.alloc(int(lay.offsets[-1] + lay.lengths[-1]) + 8)
    src.data[:] = np.random.default_rng(seed).integers(0, 256, src.nbytes)
    return dev.pack_op(src, lay, dev.alloc(lay.size))


def _recoveries(stats):
    """Recovery actions of any kind: ladder rungs, deadline relaunches
    and ring-full fallbacks."""
    return (
        stats.relaunches
        + stats.batch_splits
        + stats.sync_fallbacks
        + stats.deadline_relaunches
        + stats.fallbacks
    )


def _sched(site):
    return FusionScheduler(
        site, Trace(site.device.sim), FusionPolicy(threshold_bytes=1 << 30)
    )


def test_ladder_rung1_relaunch(env):
    sim, site = env
    sim.faults = ForcedFaults(launch=[True, False])
    sched = _sched(site)
    reqs = []
    for _ in range(4):
        reqs.append(_drive(sim, sched.enqueue(_op(site))))
    _drive(sim, sched.flush())
    sim.run()
    assert sched.stats.launch_failures == 1
    assert sched.stats.relaunches == 1
    assert sched.stats.batch_splits == 0
    assert sched.stats.launches == 1
    assert sched.stats.batch_sizes == [4]
    assert all(r.complete for r in reqs)


def test_ladder_rung2_split(env):
    sim, site = env
    # First launch fails, relaunch fails -> split; both halves succeed.
    sim.faults = ForcedFaults(launch=[True, True, False, False])
    sched = _sched(site)
    reqs = []
    for _ in range(4):
        reqs.append(_drive(sim, sched.enqueue(_op(site))))
    _drive(sim, sched.flush())
    sim.run()
    assert sched.stats.relaunches == 1
    assert sched.stats.batch_splits == 1
    assert sched.stats.launches == 2
    assert sorted(sched.stats.batch_sizes) == [2, 2]
    assert all(r.complete for r in reqs)


def test_ladder_rung3_degraded_single(env):
    sim, site = env
    # Batch fails twice -> split; each half fails twice -> degraded;
    # each degraded launch then sticks on its first attempt.
    sim.faults = ForcedFaults(
        launch=[True, True, True, True, False, True, True, False]
    )
    sched = _sched(site)
    reqs = [_drive(sim, sched.enqueue(_op(site))) for _ in range(2)]
    _drive(sim, sched.flush())
    sim.run()
    assert sched.stats.batch_splits == 1
    assert sched.stats.relaunches == 3  # batch + each half
    assert sched.stats.sync_fallbacks == 2
    assert sched.stats.launch_failures == 6
    assert all(r.complete for r in reqs)
    assert _recoveries(sched.stats) >= 4


def test_ladder_byte_exact_under_failures(env):
    sim, site = env
    dev = site.device
    sim.faults = ForcedFaults(launch=[True, True, True, False])
    sched = _sched(site)
    lay = DataLayout([0, 64], [16, 16])
    srcs, dsts = [], []
    for i in range(3):
        src = dev.alloc(96, fill=i + 1)
        dst = dev.alloc(32)
        srcs.append(src)
        dsts.append(dst)
        _drive(sim, sched.enqueue(dev.pack_op(src, lay, dst)))
    _drive(sim, sched.flush())
    sim.run()
    for i, dst in enumerate(dsts):
        assert (dst.data == i + 1).all()


def test_forced_ring_pressure_takes_fallback_path(env):
    sim, site = env
    sim.faults = ForcedFaults(ring=[False, True, False])
    sched = _sched(site)
    assert _drive(sim, sched.enqueue(_op(site))) is not None
    assert _drive(sim, sched.enqueue(_op(site))) is None  # forced reject
    assert _drive(sim, sched.enqueue(_op(site))) is not None
    assert sched.stats.fallbacks == 1
    assert sched.stats.enqueued == 2


def test_scheme_launch_retry_on_driver_failure(env):
    """Per-operation launches in the baseline schemes also survive
    injected driver failures (not just fused launches)."""
    from repro.sim import Category

    sim, site = env
    sim.faults = ForcedFaults(launch=[True, True, False])
    scheme = SCHEME_REGISTRY["GPU-Sync"](site, Trace(sim))
    op = _op(site)

    def proc():
        yield from scheme.submit(op)

    sim.run(sim.process(proc()))
    assert scheme.launch_retries == 2
    launch_oh = site.device.arch.kernel_launch_overhead
    # Three launch attempts charged to LAUNCH, two backoffs to SYNC.
    assert scheme.trace.total(Category.LAUNCH) == pytest.approx(3 * launch_oh)


def test_scheme_launch_clean_path_single_charge(env):
    from repro.sim import Category

    sim, site = env
    scheme = SCHEME_REGISTRY["GPU-Sync"](site, Trace(sim))
    op = _op(site)

    def proc():
        yield from scheme.submit(op)

    sim.run(sim.process(proc()))
    assert scheme.launch_retries == 0
    assert scheme.trace.total(Category.LAUNCH) == pytest.approx(
        site.device.arch.kernel_launch_overhead
    )


# -- deadline watchdog ---------------------------------------------------------------


def test_straggler_hits_deadline_and_relaunches(env, monkeypatch):
    sim, site = env
    sim.faults = ForcedFaults(straggler=[True])
    monkeypatch.setattr(fusion_scheduler, "DEADLINE_SLACK", 0.0)
    sched = _sched(site)
    reqs = [_drive(sim, sched.enqueue(_op(site, seed=i))) for i in range(3)]
    _drive(sim, sched.flush())
    sim.run()
    assert sim.faults.stats.stragglers == 1
    assert sched.stats.deadline_hits >= 1
    assert sched.stats.deadline_relaunches >= 1
    assert all(r.complete for r in reqs)


def test_duplicate_completion_suppressed(env, monkeypatch):
    """The relaunched copy and the straggler both finish; the second
    completion must not re-apply the op (staging may be reused)."""
    sim, site = env
    dev = site.device
    sim.faults = ForcedFaults(straggler=[True])
    monkeypatch.setattr(fusion_scheduler, "DEADLINE_SLACK", 0.0)
    sched = _sched(site)
    lay = DataLayout([0, 64], [16, 16])
    src = dev.alloc(96, fill=7)
    dst = dev.alloc(32)
    req = _drive(sim, sched.enqueue(dev.pack_op(src, lay, dst)))
    _drive(sim, sched.flush())
    sim.run()
    assert req.complete
    assert (dst.data == 7).all()
    # The straggling copy's late completion fired after the relaunch
    # finished; had it re-applied, a poisoned source would show here.
    src.data[:] = 0
    sim.run()
    assert (dst.data == 7).all()


def test_no_deadline_watchdog_without_faults(env):
    sim, site = env
    sched = _sched(site)
    _drive(sim, sched.enqueue(_op(site)))
    _drive(sim, sched.flush())
    sim.run()
    assert sched.stats.deadline_hits == 0
    assert _recoveries(sched.stats) == 0


# -- ring-full fallback recovery (satellite) ---------------------------------------


def test_ring_full_then_flush_and_reap_recovers(env):
    """The §IV-A2 fallback path: a full ring answers negative UID; after
    the pending batch launches, completes, and is reaped, the ring
    accepts work again."""
    sim, site = env
    sched = FusionScheduler(
        site, Trace(sim), FusionPolicy(threshold_bytes=1 << 30), capacity=2
    )
    first = [_drive(sim, sched.enqueue(_op(site, seed=i))) for i in range(2)]
    assert all(r is not None for r in first)
    # Ring full: the scheduler answers None (negative UID) — the engine
    # would take its GPU-Sync fallback for this op.
    assert _drive(sim, sched.enqueue(_op(site, seed=2))) is None
    assert sched.stats.fallbacks == 1

    _drive(sim, sched.flush())
    sim.run()  # batch completes
    assert all(r.complete for r in first)

    # reap() runs inside enqueue: the next enqueue must succeed.
    again = _drive(sim, sched.enqueue(_op(site, seed=3)))
    assert again is not None
    assert sched.stats.enqueued == 3
    _drive(sim, sched.flush())
    sim.run()
    assert again.complete


# -- end-to-end recovery report ------------------------------------------------------


def test_recovery_report_aggregates_all_layers():
    plan = FaultPlan(seed=3, spec=FAULT_PRESETS["heavy"])
    result = _exchange(plan, nbuffers=4)
    rec = result.recovery
    assert rec is not None
    assert rec.total_injected == plan.stats.total > 0
    assert rec.total_recoveries > 0
    assert "injected" in rec.describe()


def test_no_recovery_report_without_faults():
    result = run_bulk_exchange(
        EXCHANGE.with_overrides(
            {
                "workload.dim": 100,
                "harness.iterations": 1,
                "harness.warmup": 0,
                "harness.data_plane": False,
            }
        )
    )
    assert result.recovery is None


def test_inactive_plan_leaves_timeline_unchanged():
    """Attaching an all-zero plan arms the machinery but injects
    nothing — latencies must match the plan-free run exactly."""
    cfg = EXCHANGE.with_overrides(
        {"workload.dim": 100, "workload.nbuffers": 3, "harness.data_plane": False}
    )
    clean = run_bulk_exchange(cfg)
    armed = run_bulk_exchange(
        cfg.with_overrides({"faults.spec": asdict(FaultSpec()), "faults.seed": 1})
    )
    assert armed.latencies == clean.latencies
    assert armed.recovery.total_recoveries == 0
