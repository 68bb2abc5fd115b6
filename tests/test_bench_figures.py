"""Tests for the figure plans (``repro.bench.figures``).

Shard expansion is pure planning — no simulation — so every figure's
grid shape, key uniqueness, and tuning logic can be checked cheaply.
Only the fig11/fig01 smoke tests actually run the simulator.
"""

import pytest

from repro.bench.figures import (
    FIG08_DIMS,
    FIG08_THRESHOLDS,
    FIG12_SWEEPS,
    FIGURES,
    TUNE_CANDIDATES,
    run_figure,
    tuned_thresholds,
)
from repro.bench.runner import ExperimentResult
from repro.bench.sweep import ResultCache


def _fake_view(mean_latency):
    return ExperimentResult("Proposed", "fake", "Lassen", 1, 1, latencies=[mean_latency])


def _fake_tuning(latency=1.0):
    """A complete tuning-phase views mapping with uniform latencies."""
    return {
        f"tune/{workload}/thr={thr // 1024}KB": _fake_view(latency)
        for workload in FIG12_SWEEPS
        for thr in TUNE_CANDIDATES
    }


EXPECTED_SHARDS = {
    "fig01": 1,   # one launch-overhead table
    "fig08": 24,  # 8 thresholds x 3 dims
    "fig09": 20,  # 4 schemes x 5 nbuffers
    "fig10": 40,  # 4 schemes x 5 nbuffers x 2 dims (big + small inset)
    "fig11": 3,   # 3 schemes
    "fig12": 95,  # 5 schemes x 19 workload/dim points
    "fig13": 101, # ABCI grid + 6 Lassen comparison shards
    "fig14": 16,  # 4 schemes x 2 workloads x 2 dims
}


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_expansion_keys_are_unique(figure):
    specs = FIGURES[figure].expand(_fake_tuning())
    keys = [s.key for s in specs]
    assert len(keys) == len(set(keys))
    assert all(s.experiment == FIGURES[figure].experiment for s in specs)


@pytest.mark.parametrize("figure, count", sorted(EXPECTED_SHARDS.items()))
def test_expansion_counts(figure, count):
    assert len(FIGURES[figure].expand(_fake_tuning())) == count


def test_fig08_grid_covers_every_threshold_dim_pair():
    keys = {s.key for s in FIGURES["fig08"].expand({})}
    for dim in FIG08_DIMS:
        for thr in FIG08_THRESHOLDS:
            assert f"thr={thr // 1024}KB/dim={dim}" in keys


def test_fig12_tuning_phase_shape():
    tuning = FIGURES["fig12"].tuning()
    # 4 workloads x 3 candidate thresholds, at the mid dim of each sweep
    assert len(tuning) == len(FIG12_SWEEPS) * len(TUNE_CANDIDATES)
    assert {t.key for t in tuning} == set(_fake_tuning())
    # candidates only vary the fusion threshold
    assert all(
        t.cfg.scheme.options["threshold_bytes"] in TUNE_CANDIDATES for t in tuning
    )


def test_tuned_thresholds_first_wins_tie_break():
    # All candidates equal -> the first candidate wins, so a re-run
    # cannot flip the tuned threshold on floating-point ties.
    thresholds = tuned_thresholds(_fake_tuning())
    assert set(thresholds) == set(FIG12_SWEEPS)
    assert all(thr == TUNE_CANDIDATES[0] for thr in thresholds.values())


def test_tuned_thresholds_picks_fastest():
    workload = next(iter(FIG12_SWEEPS))
    fake = _fake_tuning(latency=2.0)
    fake[f"tune/{workload}/thr={TUNE_CANDIDATES[-1] // 1024}KB"] = _fake_view(0.5)
    thresholds = tuned_thresholds(fake)
    assert thresholds[workload] == TUNE_CANDIDATES[-1]
    others = [w for w in FIG12_SWEEPS if w != workload]
    assert all(thresholds[w] == TUNE_CANDIDATES[0] for w in others)


def test_tuned_threshold_reaches_grid_specs():
    fake = _fake_tuning(latency=2.0)
    for workload in FIG12_SWEEPS:
        fake[f"tune/{workload}/thr={TUNE_CANDIDATES[-1] // 1024}KB"] = _fake_view(0.5)
    grid = FIGURES["fig12"].expand(fake)
    tuned = [s for s in grid if s.cfg.scheme.options.get("name") == "Proposed-Tuned"]
    assert tuned
    assert all(
        s.cfg.scheme.options["threshold_bytes"] == TUNE_CANDIDATES[-1] for s in tuned
    )


def test_fig13_includes_lassen_comparison_shards():
    specs = FIGURES["fig13"].expand(_fake_tuning())
    keys = {s.key for s in specs}
    assert "lassen_milc/GPU-Async/dim=16" in keys
    lassen = [s for s in specs if s.key.startswith("lassen")]
    assert lassen and all(s.cfg.system.name == "Lassen" for s in lassen)
    abci = [s for s in specs if not s.key.startswith("lassen")]
    assert abci and all(s.cfg.system.name == "ABCI" for s in abci)


def test_run_figure_smoke_and_artifact(tmp_path):
    cache = ResultCache(tmp_path)
    run = run_figure("fig11", cache=cache, salt="test")
    assert len(run.entries) == 3
    assert run.stats.ran == 3 and run.stats.hits == 0
    assert set(run.views) == {"GPU-Sync", "GPU-Async", "Proposed"}

    doc = run.artifact_doc()
    assert doc["experiment"] == run.experiment
    assert [e["key"] for e in doc["entries"]] == [e["key"] for e in run.entries]

    warm = run_figure("fig11", cache=cache, salt="test")
    assert warm.stats.hits == 3 and warm.stats.ran == 0
    assert warm.artifact_doc() == doc


def test_fig01_artifact_is_a_data_table():
    run = run_figure("fig01")
    doc = run.artifact_doc()
    assert doc["entries"] == []
    assert "Tesla V100" in doc["data"]


def test_fig01_row_order_survives_cache_round_trip():
    """The shard cache stores entries with ``sort_keys=True``; a fresh
    table must list its architectures in the order a cached one replays."""
    import json

    from repro.bench.figures import fig01_table

    data = fig01_table()
    cached = json.loads(json.dumps(data, sort_keys=True))
    assert list(data) == list(cached)
    assert list(data)[0] == "Quadro GV100"


def test_unknown_figure_rejected():
    with pytest.raises(KeyError):
        run_figure("fig99")
