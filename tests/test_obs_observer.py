"""sim.obs integration — no-op default, timing neutrality, one source of truth."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import run_bulk_exchange, runner
from repro.config import ExperimentConfig, FaultsCfg
from repro.obs import NULL_OBSERVER, METRIC_CATALOG, NullObserver, Observer
from repro.sim import Category, Simulator, Trace

#: event categories of the Fig.-11 cost spans
BUCKETS = {c.value for c in Category}

RUN = ExperimentConfig().with_overrides(
    {"workload.dim": 200, "workload.nbuffers": 4, "harness.iterations": 2}
)


def _run(scheme="Proposed", obs=None, faults=FaultsCfg(), iterations=2):
    """A dry exchange; fault runs go wet so every byte is verified."""
    cfg = RUN.with_overrides(
        {
            "scheme.name": scheme,
            "harness.iterations": iterations,
            "harness.data_plane": faults.enabled,
        }
    )
    return run_bulk_exchange(replace(cfg, faults=faults), obs=obs)


@pytest.fixture
def counted(monkeypatch):
    """The simulator and runtime each run hands its end-of-run counter read."""
    seen, read = {}, runner._read_counters

    def spy(sim, runtime, *args):
        seen.update(sim=sim, runtime=runtime)
        return read(sim, runtime, *args)

    monkeypatch.setattr(runner, "_read_counters", spy)
    return seen


# -- disabled telemetry is a strict no-op -----------------------------------


def test_simulator_defaults_to_the_null_observer():
    sim = Simulator()
    assert sim.obs is NULL_OBSERVER
    assert sim.obs.enabled is False


def test_null_observer_records_nothing():
    obs = NullObserver()
    obs.count("x_total")
    obs.gauge_set("g", 3)
    obs.observe("h", 0.5)
    obs.span("c", "s", 0.0, 1.0)
    obs.instant("c", "i", 0.5)
    assert obs.metrics.snapshot().names() == []
    assert len(obs.recorder) == 0


@pytest.mark.parametrize("scheme", ["GPU-Sync", "GPU-Async", "Proposed"])
def test_enabling_telemetry_does_not_change_simulated_time(scheme):
    """DESIGN.md §6: observation never touches the event calendar."""
    off = _run(scheme)
    on = _run(scheme, obs=Observer())
    assert on.latencies == off.latencies  # exact, not approx
    assert on.breakdown == off.breakdown


def test_telemetry_is_timing_neutral_under_faults():
    plan = FaultsCfg(preset="moderate", seed=7)
    default = _run(faults=plan)   # no observer at all
    recorded = _run(faults=plan, obs=Observer())
    assert recorded.latencies == default.latencies


# -- live observation -------------------------------------------------------


def test_observer_populates_the_catalog_metrics(counted):
    """Every counter series is read off the object that keeps it."""
    obs = Observer()
    cfg = RUN.with_overrides(
        {"protocol.eager_threshold": 0, "scheme.options.capacity": 2,
         "harness.data_plane": False}
    )
    result = run_bulk_exchange(cfg, obs=obs)
    snap, runtime = result.metrics, counted["runtime"]
    assert snap is not None
    # both ranks run identical symmetric programs
    assert snap.total("fusion_enqueued_total") == 2 * result.scheduler_stats.enqueued
    assert snap.total("fusion_launches_total") == 2 * result.scheduler_stats.launches
    assert snap.total("fusion_queue_latency_seconds") > 0
    assert snap.total("proto_rts_sent_total") == runtime.recovery.rts_sent > 0
    assert snap.total("fusion_ring_rejections_total") == sum(
        r.scheme.scheduler.request_list.rejections for r in runtime.ranks
    ) > 0
    assert snap.total("link_bytes_total") == sum(
        link.bytes_carried for link in runtime.cluster.links()
    ) > 0
    # every update hit a pre-declared family (catalog covers hot paths)
    for name in snap.names():
        assert name in METRIC_CATALOG, name


def test_observability_doc_lists_exactly_the_catalog():
    """The catalog table in docs/observability.md names every
    METRIC_CATALOG series with its kind, in catalog order, and no other."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "observability.md").read_text()
    section = doc.split("\n## Metric catalog\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)(?:\{[^}]*\})?` \| (\w+) \|", section, re.M)
    assert rows == [(name, entry[0]) for name, entry in METRIC_CATALOG.items()]


def test_unfused_schemes_count_raw_kernel_launches():
    obs = Observer()
    _run("GPU-Sync", obs=obs)
    # GPU-Sync launches one kernel per buffer; fused launches are separate
    assert obs.snapshot().total("kernel_launches_total") > 0


def test_recorder_captures_request_lifecycle_and_rank_traces():
    obs = Observer()
    result = _run(obs=obs)
    cats = {e.category for e in obs.recorder.events}
    assert "request" in cats      # uid lifecycle spans
    assert "fusion" in cats       # enqueue instants / queued spans
    assert "link" in cats         # transfer spans
    # each rank's cost charges land on that rank's own track
    tracks = obs.recorder.tracks()
    assert f"{result.scheme}/rank0" in tracks
    assert f"{result.scheme}/rank1" in tracks


def _heavy_rendezvous_run(obs):
    """A wet Proposed run under heavy faults, every message rendezvous."""
    cfg = RUN.with_overrides(
        {"protocol.eager_threshold": 0, "harness.iterations": 3,
         "harness.data_plane": True}
    )
    return run_bulk_exchange(
        replace(cfg, faults=FaultsCfg(preset="heavy", seed=11)), obs=obs
    )


def test_every_rank_event_sits_on_its_rank_track():
    """Under heavy faults every rank-side event family fires; each one
    is recorded on its rank's track, never on an empty one."""
    obs = Observer()
    result = _heavy_rendezvous_run(obs)
    events = obs.recorder.events
    assert result.recovery.rts_retransmits > 0
    assert {e.name for e in events} >= {"enqueue", "queued", "rts", "rts-retransmit"}
    assert all(e.track for e in events)
    ranks = {f"{result.scheme}/rank{n}" for n in (0, 1)}
    for category in ("fusion", "request", "proto", *BUCKETS - {"comm", "other"}):
        assert {e.track for e in events if e.category == category} == ranks, category


def test_recorder_holds_one_cost_event_per_charge(monkeypatch):
    """Each ``Trace.charge`` puts exactly one span on the stream, in
    charge order; nothing else adds or copies cost spans."""
    charges, charge = [], Trace.charge

    def counted(self, category, start, end, label=""):
        charges.append((self.track, str(category), start, end - start))
        charge(self, category, start, end, label)

    monkeypatch.setattr(Trace, "charge", counted)
    obs = Observer()
    _heavy_rendezvous_run(obs)
    recorded = [
        (e.track, e.category, e.ts, e.dur)
        for e in obs.recorder.events if e.category in BUCKETS
    ]
    assert len(charges) > 0
    assert recorded == charges


@pytest.mark.parametrize(
    "scheme", ["GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed"]
)
def test_breakdown_equals_the_recorded_cost_spans(scheme):
    """The Fig.-11 breakdown and the recorded cost spans are two views
    of the same charges: summed in record order per rank, averaged
    over ranks and iterations, they agree exactly."""
    obs = Observer()
    cfg = RUN.with_overrides({"scheme.name": scheme, "harness.warmup": 0})
    result = run_bulk_exchange(cfg, obs=obs)
    for cat in Category:
        if cat is Category.COMM:
            continue  # the residual of the latency, never charged
        per_rank = []
        for n in (0, 1):
            total = 0.0
            for e in obs.recorder.events:
                if e.track == f"{result.scheme}/rank{n}" and e.category == cat.value:
                    total += e.dur
            per_rank.append(total)
        expected = sum(per_rank) / len(per_rank) / cfg.harness.iterations
        assert expected == result.breakdown[cat], cat


def test_const_labels_tag_every_series():
    """Each label appears once per series, and ``scheme`` names the
    scheme that ran: a nested GPU-Sync fallback's launches count for
    the rank's own scheme."""
    for scheme in ("Proposed", "CPU-GPU-Hybrid"):
        obs = Observer(const_labels={"scheme": scheme})
        _run(scheme, obs=obs)
        snap = obs.snapshot()
        for line in snap.to_prometheus_text().splitlines():
            names = re.findall(r'(\w+)="', line)
            assert len(names) == len(set(names)), line
        for name in snap.names():
            assert all(dict(key)["scheme"] == scheme for key in snap.family(name)["series"])
    assert snap.total("kernel_launches_total") > 0  # the hybrid's GPU path ran


# -- one source of truth for recovery reporting -----------------------------


def test_recovery_report_is_built_from_the_metrics_snapshot():
    """The report (read off the objects) and the published snapshot
    are two views of the same counters: they must agree."""
    result = _run(
        faults=FaultsCfg(preset="heavy", seed=11), iterations=3, obs=Observer()
    )
    rec, snap = result.recovery, result.metrics
    assert rec is not None and snap is not None
    assert rec.total_recoveries > 0  # heavy preset injects plenty
    assert rec.link_retransmits == int(snap.total("link_retransmits_total"))
    assert rec.link_fault_delay == pytest.approx(
        snap.total("link_fault_delay_seconds_total")
    )
    assert rec.rts_retransmits == int(snap.total("rts_retransmits_total"))
    assert rec.cts_resends == int(snap.total("cts_resends_total"))
    assert rec.relaunches == int(snap.total("sched_relaunches_total"))
    assert rec.batch_splits == int(snap.total("sched_batch_splits_total"))
    assert rec.sync_fallbacks == int(snap.total("sched_sync_fallbacks_total"))
    assert rec.launch_retries == int(snap.total("scheme_launch_retries_total"))
    assert rec.ring_fallbacks == int(snap.total("sched_ring_fallbacks_total"))


def test_fault_runs_always_carry_metrics(counted):
    """With no telemetry requested a fault run builds no observer, yet
    still carries its recovery report."""
    result = _run(faults=FaultsCfg(preset="light", seed=3))
    assert result.metrics is None
    assert counted["sim"].obs is NULL_OBSERVER
    assert result.recovery is not None
