"""Tests for the sharded sweep engine (``repro.bench.sweep``).

The engine's contract has three legs:

* **spec-by-value**: an :class:`ExperimentSpec` fully names a grid
  point with picklable scalars, so workers rebuild the simulation from
  registries instead of shipping live objects;
* **determinism**: a parallel sweep produces entries identical to a
  serial one, in spec order;
* **content-addressed caching**: a cached shard is served only when
  both the spec and the code-version salt match, and corruption is a
  miss, never an error.
"""

import json
import pickle

import pytest

from repro.bench.runner import ExperimentResult
from repro.bench.sweep import (
    ExperimentSpec,
    ResultCache,
    SweepError,
    code_salt,
    run_sweep,
)
from repro.config import ExperimentConfig, SchemeCfg
from repro.schemes import make_scheme_factory
from repro.sim import Category

#: a fast MILC exchange (sub-second even on the slowest runner)
SMALL = ExperimentConfig().with_overrides(
    {
        "workload.name": "MILC",
        "workload.dim": 2,
        "workload.nbuffers": 1,
        "harness.iterations": 1,
        "harness.data_plane": False,
    }
)


def small_spec(key="shard", scheme="GPU-Sync", overrides=None):
    """A fast MILC shard, with dotted-path config ``overrides``."""
    cfg = SMALL.with_overrides({"scheme.name": scheme, **(overrides or {})})
    return ExperimentSpec("test", key, cfg)


# -- ExperimentSpec ------------------------------------------------------------


def test_spec_dict_round_trip():
    spec = small_spec(
        overrides={"scheme.fusion.threshold_bytes": 1024, "scheme.label": "X"}
    )
    clone = ExperimentSpec.from_dict(spec.to_dict())
    assert clone == spec
    # to_dict is JSON-safe and stable
    assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()


def test_spec_pickle_round_trip():
    spec = small_spec(overrides={"scheme.fusion.threshold_bytes": 2048})
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.cache_key("s") == spec.cache_key("s")


def test_result_from_entry_inverts_run_entry():
    spec = small_spec(
        scheme="Proposed", overrides={"scheme.fusion.threshold_bytes": 512 * 1024}
    )
    entry = spec.run_entry()
    assert entry["config"] == {"threshold_bytes": 512 * 1024}
    rebuilt = ExperimentResult.from_entry(entry)
    assert rebuilt.to_entry(spec.key, entry["config"], spec.run_params()) == entry


def test_simulator_refuses_pickling():
    from repro.sim import Simulator

    with pytest.raises(TypeError, match="ExperimentSpec"):
        pickle.dumps(Simulator())


def test_table_spec_rejects_run_result():
    spec = ExperimentSpec("t", "table", kind="table")
    with pytest.raises(ValueError, match="kind"):
        spec.run_result()
    entry = spec.run_entry()
    assert entry["kind"] == "table"
    assert "Tesla V100" in entry["data"]


def test_scheme_factory_unknown_scheme_raises():
    with pytest.raises(KeyError, match="registry"):
        make_scheme_factory(SchemeCfg(name="NoSuchScheme"))


# -- cache keys ----------------------------------------------------------------


def test_cache_key_is_stable_and_spec_sensitive():
    spec = small_spec()
    assert spec.cache_key("salt") == spec.cache_key("salt")
    other_dim = small_spec(overrides={"workload.dim": 3})
    assert other_dim.cache_key("salt") != spec.cache_key("salt")
    assert (
        small_spec(overrides={"scheme.fusion.threshold_bytes": 1}).cache_key("salt")
        != spec.cache_key("salt")
    )


def test_cache_key_is_salt_sensitive():
    spec = small_spec()
    assert spec.cache_key("code-v1") != spec.cache_key("code-v2")


def test_code_salt_is_stable_hex():
    assert code_salt() == code_salt()
    assert len(code_salt()) == 16
    int(code_salt(), 16)  # hex digest prefix


# -- ResultCache ---------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = small_spec()
    digest = spec.cache_key("s")
    assert cache.get(spec, digest) is None
    cache.put(spec, digest, {"key": spec.key, "mean_latency": 1.0})
    assert cache.get(spec, digest) == {"key": spec.key, "mean_latency": 1.0}
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get(spec, digest) is None


def test_cache_corruption_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = small_spec()
    digest = spec.cache_key("s")
    cache.put(spec, digest, {"key": spec.key})
    (tmp_path / f"{digest}.json").write_text("{not json")
    assert cache.get(spec, digest) is None


def test_cache_spec_mismatch_is_a_miss(tmp_path):
    # A file stored under the right digest but carrying a different
    # spec (say, a hand-edited or colliding entry) must not be served.
    cache = ResultCache(tmp_path)
    spec = small_spec()
    other = small_spec(overrides={"workload.dim": 3})
    digest = spec.cache_key("s")
    cache.put(other, digest, {"key": other.key})
    assert cache.get(spec, digest) is None


# -- run_sweep -----------------------------------------------------------------


GRID = [
    small_spec("GPU-Sync/n=1", "GPU-Sync"),
    small_spec("GPU-Sync/n=2", "GPU-Sync", overrides={"workload.nbuffers": 2}),
    small_spec("Proposed/n=1", "Proposed"),
    small_spec("Proposed/n=2", "Proposed", overrides={"workload.nbuffers": 2}),
]


def test_parallel_sweep_equals_serial(tmp_path):
    serial = run_sweep(GRID, jobs=1)
    parallel = run_sweep(GRID, jobs=2)
    assert serial.entries == parallel.entries
    assert [e["key"] for e in serial.entries] == [s.key for s in GRID]
    assert parallel.stats.jobs == 2
    assert serial.stats.ran == parallel.stats.ran == len(GRID)


def test_warm_cache_runs_zero_shards(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_sweep(GRID[:2], cache=cache, salt="v1")
    assert (cold.stats.hits, cold.stats.ran) == (0, 2)
    warm = run_sweep(GRID[:2], cache=cache, salt="v1")
    assert (warm.stats.hits, warm.stats.ran) == (2, 0)
    assert warm.entries == cold.entries


def test_salt_change_invalidates_cache(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(GRID[:1], cache=cache, salt="v1")
    rerun = run_sweep(GRID[:1], cache=cache, salt="v2")
    assert rerun.stats.ran == 1 and rerun.stats.hits == 0


def test_spec_change_invalidates_cache(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep([small_spec("k")], cache=cache, salt="v1")
    changed = run_sweep(
        [small_spec("k", overrides={"workload.nbuffers": 2})], cache=cache, salt="v1"
    )
    assert changed.stats.ran == 1 and changed.stats.hits == 0


def test_worker_failure_surfaces_key_and_traceback():
    bad = small_spec("bad-shard", scheme="NoSuchScheme")
    with pytest.raises(SweepError) as excinfo:
        run_sweep([GRID[0], bad], jobs=2)
    assert "bad-shard" in str(excinfo.value)
    (key, tb), = excinfo.value.failures
    assert key == "bad-shard"
    assert "KeyError" in tb


def test_in_process_failure_surfaces_too():
    bad = small_spec("bad-shard", scheme="NoSuchScheme")
    with pytest.raises(SweepError):
        run_sweep([bad], jobs=1)


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep(
            [small_spec("same"), small_spec("same", overrides={"workload.nbuffers": 2})]
        )


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(GRID[:1], jobs=0)


# -- result views ----------------------------------------------------------------


def test_sweep_result_views():
    run = run_sweep(GRID[:2])
    views = run.views
    assert set(views) == {"GPU-Sync/n=1", "GPU-Sync/n=2"}
    view = views["GPU-Sync/n=1"]
    assert isinstance(view, ExperimentResult)
    assert view.scheme == "GPU-Sync"
    assert view.workload == "MILC"
    assert view.system == "Lassen"
    assert view.nbuffers == 1
    assert view.dim == 2
    assert view.mean_latency > 0
    assert view.min_latency > 0
    assert len(view.latencies) == 1
    assert view.work["events"] > 0
    bd = view.breakdown
    assert all(isinstance(k, Category) for k in bd)
    assert Category.COMM in bd


def test_table_entries_have_no_result_view():
    run = run_sweep([GRID[0], ExperimentSpec("test", "table", kind="table")])
    assert [e["key"] for e in run.entries] == [GRID[0].key, "table"]
    assert set(run.views) == {GRID[0].key}


def test_sweep_result_speedup_and_scheduler_stats():
    run = run_sweep([small_spec("sync", "GPU-Sync"), small_spec("prop", "Proposed")])
    views = run.views
    speedup = views["prop"].speedup_over(views["sync"])
    assert speedup == pytest.approx(
        views["sync"].mean_latency / views["prop"].mean_latency
    )
    stats = views["prop"].scheduler_stats
    assert stats is not None and stats.launches >= 1


def test_sweep_result_matches_live_run():
    """The view read back from an entry equals the live result."""
    spec = GRID[0]
    live = spec.run_result()
    view = ExperimentResult.from_entry(spec.run_entry())
    assert view.latencies == live.latencies
    assert view.breakdown == live.breakdown
    assert view.work == live.work


def test_metrics_survive_the_entry_round_trip():
    spec = small_spec(overrides={"obs.metrics": True})
    entry = spec.run_entry()
    view = ExperimentResult.from_entry(entry)
    assert view.metrics is not None
    assert view.metrics.total("link_transfers_total") == entry["work"]["link_transfers"]
    assert view.to_entry(spec.key, None, spec.run_params()) == entry
