"""The wall-clock microbench suite and its regression comparator."""

import copy
import json

import pytest

from repro.bench import wallclock
from repro.cli import main
from repro.obs.artifact import SCHEMA, load_bench_artifact


def _tiny_artifact():
    # Engine-only, minimal event counts: fast enough for unit tests.
    return wallclock.wallclock_artifact(scale=0.01, figures=())


def test_engine_benchmarks_report_throughput():
    suite = wallclock.bench_engine(scale=0.01)
    assert set(suite) == {"timeout_chain", "store_pingpong", "allof_fanin"}
    for name, m in suite.items():
        assert m["events"] > 0, name
        assert m["wall_seconds"] > 0, name
        assert m["events_per_second"] > 0, name


def test_timeout_chain_counts_all_events():
    m = wallclock.bench_timeout_chain(n=1_000)
    # n timeouts + the process bootstrap + process-completion events.
    assert m["events"] >= 1_000


def test_allocations_measured():
    m = wallclock.bench_allocations(n=1_000)
    assert m["events"] >= 1_000
    assert m["peak_bytes"] >= 0
    assert m["peak_bytes_per_event"] == pytest.approx(
        m["peak_bytes"] / m["events"]
    )


def test_artifact_schema_and_sections():
    artifact = _tiny_artifact()
    assert artifact["schema"] == SCHEMA
    assert artifact["experiment"] == wallclock.EXPERIMENT
    assert set(artifact["data"]) == {"engine", "figures", "allocations"}


def test_compare_identical_artifacts_pass():
    artifact = _tiny_artifact()
    assert wallclock.compare_wallclock(artifact, artifact) == []


def test_compare_detects_throughput_regression():
    baseline = _tiny_artifact()
    slow = copy.deepcopy(baseline)
    for m in slow["data"]["engine"].values():
        m["events_per_second"] *= 0.5  # 2x slowdown >> 30% tolerance
    problems = wallclock.compare_wallclock(baseline, slow, tolerance=0.30)
    assert len(problems) == len(baseline["data"]["engine"])
    assert all("events/s" in p for p in problems)
    # The same drop is fine under a huge tolerance.
    assert wallclock.compare_wallclock(baseline, slow, tolerance=0.60) == []


def test_compare_detects_figure_wall_regression():
    baseline = _tiny_artifact()
    baseline["data"]["figures"] = {"fig09": {"wall_seconds": 1.0, "shards": 20.0}}
    slow = copy.deepcopy(baseline)
    slow["data"]["figures"]["fig09"]["wall_seconds"] = 2.0
    problems = wallclock.compare_wallclock(baseline, slow)
    assert len(problems) == 1 and "fig09" in problems[0]
    # Getting faster is never a failure.
    assert wallclock.compare_wallclock(slow, baseline) == []


def test_compare_skips_sections_missing_from_candidate():
    baseline = _tiny_artifact()
    baseline["data"]["figures"] = {"fig13": {"wall_seconds": 5.0, "shards": 40.0}}
    # The baseline's own engine timings, so only the skip is under test.
    candidate = copy.deepcopy(baseline)
    candidate["data"]["figures"] = {}  # no figure timings at all
    assert wallclock.compare_wallclock(baseline, candidate) == []


# -- CLI ----------------------------------------------------------------------


def test_cli_wallclock_writes_and_checks(tmp_path, capsys):
    out = tmp_path / "BENCH_wallclock.json"
    assert main([
        "wallclock", "--scale", "0.01", "--no-figures", "--out", str(out)
    ]) == 0
    artifact = load_bench_artifact(str(out))
    assert artifact["experiment"] == "wallclock"
    # Deflate the baseline to a throughput any host clears: the pass
    # path is under test here, the 30% threshold in
    # test_compare_detects_throughput_regression.
    for m in artifact["data"]["engine"].values():
        m["events_per_second"] /= 1e6
    out.write_text(json.dumps(artifact))
    assert main([
        "wallclock", "--scale", "0.01", "--no-figures",
        "--baseline", str(out), "--check",
    ]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_wallclock_check_fails_on_regression(tmp_path, capsys):
    out = tmp_path / "BENCH_wallclock.json"
    assert main([
        "wallclock", "--scale", "0.01", "--no-figures", "--out", str(out)
    ]) == 0
    # Inflate the baseline to impossible throughput: the fresh run must
    # miss the floor and the gate must fail.
    artifact = load_bench_artifact(str(out))
    for m in artifact["data"]["engine"].values():
        m["events_per_second"] *= 1e6
    out.write_text(json.dumps(artifact))
    assert main([
        "wallclock", "--scale", "0.01", "--no-figures",
        "--baseline", str(out), "--check",
    ]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_profile_smoke(capsys):
    assert main([
        "profile", "--workload", "specfem3D_cm", "--dim", "200",
        "--nbuffers", "2", "--iterations", "1", "--top", "5",
    ]) == 0
    assert "function calls" in capsys.readouterr().out
