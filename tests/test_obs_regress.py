"""repro.obs.regress — the perf-regression gate, pass/fail pair + CLI."""

import copy
import dataclasses
import os

import pytest

from repro.bench import run_bulk_exchange
from repro.cli import main
from repro.config import ExperimentConfig, FusionCfg, SchemeCfg
from repro.mpi.communicator import Runtime
from repro.obs import (
    experiment_artifact,
    load_bench_artifact,
    write_bench_artifact,
)
from repro.obs import regress

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "results")

RUN = {
    "iterations": 2, "warmup": 1, "data_plane": False,
    "rendezvous_protocol": "rput", "seed": 42,
}


@pytest.fixture(scope="module")
def baseline():
    """A small two-entry artifact measured fresh in this process."""
    base = ExperimentConfig().with_overrides(
        {
            "workload.dim": 200,
            "workload.nbuffers": 4,
            "harness.iterations": RUN["iterations"],
            "harness.warmup": RUN["warmup"],
            "harness.data_plane": RUN["data_plane"],
            "harness.seed": RUN["seed"],
        }
    )
    entries = []
    for scheme in (
        SchemeCfg(name="GPU-Sync"),
        SchemeCfg(name="Proposed", fusion=FusionCfg(threshold_bytes=512 * 1024)),
    ):
        result = run_bulk_exchange(dataclasses.replace(base, scheme=scheme))
        config = scheme.overrides_dict() or None
        entries.append(result.to_entry(scheme.name, config, RUN))
    return experiment_artifact("unit_regress", entries, meta={"seed": 42})


def _slowed(artifact, factor=1.12):
    doc = copy.deepcopy(artifact)
    for entry in doc["entries"]:
        entry["mean_latency"] *= factor
        entry["latencies"] = [v * factor for v in entry["latencies"]]
    return doc


# -- compare_artifacts ------------------------------------------------------


def test_identical_artifacts_pass(baseline):
    report = regress.compare_artifacts(baseline, baseline)
    assert report.ok
    assert not report.regressions and not report.missing
    assert report.describe().endswith("verdict: PASS")
    assert all(c.ratio == pytest.approx(1.0) for c in report.checks)


def test_injected_slowdown_fails_the_gate(baseline):
    report = regress.compare_artifacts(baseline, _slowed(baseline))
    assert not report.ok
    assert len(report.regressions) == len(baseline["entries"])
    assert report.describe().endswith("verdict: FAIL")


def test_slowdown_within_tolerance_passes(baseline):
    report = regress.compare_artifacts(
        baseline, _slowed(baseline, 1.05), tolerance=0.10
    )
    assert report.ok


def test_improvement_never_fails(baseline):
    report = regress.compare_artifacts(baseline, _slowed(baseline, 0.5))
    assert report.ok
    assert len(report.improvements) == len(baseline["entries"])


def test_missing_entry_fails_extra_is_informational(baseline):
    candidate = copy.deepcopy(baseline)
    dropped = candidate["entries"].pop(0)
    candidate["entries"].append(dict(dropped, key="brand-new"))
    report = regress.compare_artifacts(baseline, candidate)
    assert not report.ok
    assert report.missing == [dropped["key"]]
    assert report.extra == ["brand-new"]


def test_per_metric_tolerances_and_breakdown_paths(baseline):
    report = regress.compare_artifacts(
        baseline,
        _slowed(baseline, 1.07),
        metrics=("mean_latency", "min_latency", "breakdown.pack"),
        tolerances={"mean_latency": 0.05},
    )
    by_metric = {}
    for check in report.checks:
        by_metric.setdefault(check.metric, []).append(check)
    # mean_latency gets the tight per-metric tolerance and regresses
    assert all(c.regressed for c in by_metric["mean_latency"])
    # min_latency keeps the default 10 % and passes
    assert not any(c.regressed for c in by_metric["min_latency"])
    # breakdown paths resolve (candidate breakdown unchanged -> ok)
    assert "breakdown.pack" in by_metric


def test_work_counts_are_exact_whatever_the_tolerance(baseline):
    candidate = copy.deepcopy(baseline)
    candidate["entries"][0]["work"]["link_bytes"] += 1
    report = regress.compare_artifacts(baseline, candidate, tolerance=10.0)
    assert not report.ok
    assert [(c.key, c.metric) for c in report.regressions] == [
        (baseline["entries"][0]["key"], "work.link_bytes")
    ]


def test_table_cells_are_checked(baseline):
    table = experiment_artifact("unit_table", data={"K80": {"launch": 1e-5}})
    assert regress.compare_artifacts(table, table).ok
    slow = experiment_artifact("unit_table", data={"K80": {"launch": 2e-5}})
    report = regress.compare_artifacts(table, slow)
    assert [(c.key, c.metric) for c in report.regressions] == [("data/K80", "launch")]


# -- failing closed ---------------------------------------------------------


def test_metric_in_no_baseline_entry_fails(baseline):
    report = regress.compare_artifacts(baseline, baseline, metrics=("mean_latncy",))
    assert not report.ok
    assert report.unwatched == ["mean_latncy"]
    assert "mean_latncy is in no baseline entry" in report.describe()


@pytest.mark.parametrize("damage", ["drop", "nan"])
def test_metric_missing_or_nan_in_candidate_fails(baseline, damage):
    candidate = copy.deepcopy(baseline)
    for entry in candidate["entries"]:
        if damage == "drop":
            del entry["mean_latency"]
        else:
            entry["mean_latency"] = float("nan")
    report = regress.compare_artifacts(baseline, candidate, metrics=("mean_latency",))
    assert not report.ok
    assert report.unreadable == [(e["key"], "mean_latency") for e in baseline["entries"]]
    assert report.describe().endswith("verdict: FAIL")


def test_zero_checks_fails():
    empty = experiment_artifact("unit_empty")
    report = regress.compare_artifacts(empty, empty)
    assert not report.checks and not report.ok
    assert "nothing was checked" in report.describe()


def test_describe_prints_counts_as_integers_and_latencies_in_us(baseline):
    entry = baseline["entries"][0]
    lines = regress.compare_artifacts(baseline, baseline).describe().splitlines()

    def values(metric):
        line = next(ln for ln in lines if ln.split()[:2] == [entry["key"], metric])
        return line.split(metric, 1)[1].split("(tol")[0].split()

    events = str(entry["work"]["events"])
    assert values("work.events") == [events, "->", events, "1.000x"]
    latency = f"{entry['mean_latency'] * 1e6:.2f}us"
    assert values("mean_latency") == [latency, "->", latency, "1.000x"]


# -- the work gate on a committed figure ------------------------------------


@pytest.fixture(scope="module")
def fig09_entry():
    doc = load_bench_artifact(os.path.join(RESULTS, "BENCH_fig09_bulk_sparse.json"))
    return dict(doc, entries=[doc["entries"][-1]])


def test_rerun_reproduces_committed_work(fig09_entry):
    candidate = regress.rerun_artifact(fig09_entry)
    (entry,) = fig09_entry["entries"]
    rerun = {e["key"]: e for e in candidate["entries"]}[entry["key"]]
    assert rerun["work"] == entry["work"]
    assert regress.compare_artifacts(fig09_entry, candidate).ok


def test_one_extra_event_per_message_fails_only_the_work_gate(
    fig09_entry, monkeypatch
):
    deliver = Runtime._deliver_envelope

    def with_extra_event(self, record, delay=None):
        deliver(self, record, delay)
        self.sim.event().succeed()

    monkeypatch.setattr(Runtime, "_deliver_envelope", with_extra_event)
    candidate = regress.rerun_artifact(fig09_entry)
    report = regress.compare_artifacts(fig09_entry, candidate)
    assert not report.ok
    assert [c.metric for c in report.regressions] == ["work.events"]
    latency = regress.compare_artifacts(
        fig09_entry, candidate, metrics=("mean_latency",)
    )
    assert latency.ok
    assert latency.checks[0].candidate == latency.checks[0].baseline


# -- re-running -------------------------------------------------------------


def test_rerun_reproduces_the_baseline_exactly():
    baseline = load_bench_artifact(os.path.join(RESULTS, "BENCH_fig11_breakdown.json"))
    candidate = regress.rerun_artifact(baseline)
    assert candidate["entries"] == baseline["entries"]
    report = regress.compare_artifacts(baseline, candidate)
    assert report.ok and not report.extra
    assert all(check.candidate == check.baseline for check in report.checks)


def test_rerun_rejects_an_artifact_no_figure_plan_writes(baseline):
    with pytest.raises(ValueError, match="--candidate"):
        regress.rerun_artifact(baseline)


# -- CLI gate ---------------------------------------------------------------


def test_cli_regress_pass_and_fail(tmp_path, baseline, capsys):
    base_path = str(tmp_path / "BENCH_base.json")
    write_bench_artifact(base_path, baseline)
    slow_path = str(tmp_path / "BENCH_slow.json")
    write_bench_artifact(slow_path, _slowed(baseline))

    assert main(["regress", "--baseline", base_path, "--candidate", base_path]) == 0
    assert "verdict: PASS" in capsys.readouterr().out

    assert main(["regress", "--baseline", base_path, "--candidate", slow_path]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out

    # 12 % slowdown inside a widened tolerance passes again
    assert main([
        "regress", "--baseline", base_path, "--candidate", slow_path,
        "--tolerance", "0.2",
    ]) == 0

    # no figure plan writes this artifact, so it needs a --candidate
    with pytest.raises(SystemExit, match="--candidate"):
        main(["regress", "--baseline", base_path])


def test_cli_regress_reruns_a_committed_figure(capsys):
    path = os.path.join(RESULTS, "BENCH_fig01_launch_overhead.json")
    assert main(["regress", "--baseline", path]) == 0
    out = capsys.readouterr().out
    assert "fig01_launch_overhead: 12 checks, 0 regressions" in out
    assert "verdict: PASS" in out
