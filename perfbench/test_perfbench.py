"""Self-tests of the benchmark: its checks, its profile fold, its names, its seed.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import cProfile
import json
import math
import os
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import harness, workloads
from perfbench.probes import Probes, fold_self_time
from perfbench.workloads import (
    ARTIFACTS,
    EXCHANGE_BASE,
    WORKLOADS,
    Item,
    exchange_record,
    figure_item,
    figure_reference,
)
from repro.bench import runner
from repro.bench.figures import FIGURES

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = EXCHANGE_BASE.with_overrides(
    {"workload.name": "NAS_MG", "workload.dim": 32, "workload.nbuffers": 2}
)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_figure_check_fails_on_a_perturbed_artifact_entry():
    item = figure_item(FIGURES["fig11"])
    doc = json.loads((ARTIFACTS / "BENCH_fig11_breakdown.json").read_text())
    records = item.run()

    clean = harness.Checker([item])
    clean.references[item.key] = figure_reference(doc)
    clean.check(item, records, "")
    assert clean.tally.failures == []
    assert clean.tally.attempted == len(doc["entries"])

    perturbed = copy.deepcopy(doc)
    entry = perturbed["entries"][1]
    entry["latencies"][0] *= 1 + 1e-12
    dirty = harness.Checker([item])
    dirty.references[item.key] = figure_reference(perturbed)
    dirty.check(item, records, "")
    assert dirty.tally.failures == [f"fig11/{entry['key']}: differs from its reference"]


def test_a_pass_that_differs_from_the_first_fails():
    outputs = iter([{"x": workloads.Record(1.0, 1)}, {"x": workloads.Record(1.0, 2)}])
    item = Item("it", lambda: next(outputs), lambda: None)
    checker = harness.Checker([item])
    harness.run_pass(checker, {})
    harness.run_pass(checker, {})
    assert checker.tally.attempted == 2
    assert checker.tally.failures == ["it/x: differs from the first pass"]


def test_self_times_by_package_sum_to_the_profile_total():
    profiler = cProfile.Profile()
    profiler.enable()
    exchange_record(SMALL)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    folded = fold_self_time(stats)
    total = sum(row[2] for row in stats.values())
    assert math.isclose(sum(folded.values()), total, rel_tol=1e-9)
    for layer in ("sim", "mpi", "core", "bench", "datatypes", "numpy"):
        assert folded.get(layer, 0.0) > 0.0, layer


def test_probes_restore_every_name():
    from repro.mpi.request import Request
    from repro.sim.engine import Simulator

    before = (runner.run_bulk_exchange, Simulator.run, vars(Request)["done"])
    with Probes() as probes:
        assert runner.run_bulk_exchange is not before[0]
        exchange_record(SMALL)
    assert (runner.run_bulk_exchange, Simulator.run, vars(Request)["done"]) == before
    assert probes.count["bench.shards"] == 1
    assert probes.count["sim.events"] > 0
    assert probes.count["mpi.done_polls"] >= probes.count["mpi.requests"] > 0


def test_every_metric_name_is_well_formed_and_declared(monkeypatch):
    declared = _declared()
    for group in ("end_to_end", "per_layer"):
        for metric in declared[group]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
    tiny = workloads.Workload(
        lambda seed: [Item("small", lambda: {"small": exchange_record(SMALL)}, lambda: None)],
        workloads.fault_configs,
    )
    monkeypatch.setitem(WORKLOADS, "faults_heavy", tiny)
    e2e, tally, notes = harness.measure("faults_heavy", 1, 0.0)
    assert not tally.failures
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert sorted(notes) == ["host_setup_s", "host_wall_s"]
    layers, tally, _ = harness.traced("faults_heavy", 1)
    assert not tally.failures, tally.failures
    assert sorted(layers) == sorted(m["name"] for m in declared["per_layer"])


@pytest.mark.parametrize("workload", ["wet_verified", "faults_heavy"])
def test_the_seed_reaches_the_experiments(workload, monkeypatch):
    seen: list = []

    def fake(cfg):
        seen.append(cfg.harness.seed)
        return SimpleNamespace(latencies=[1.0], mean_latency=1.0, recovery=None)

    monkeypatch.setattr(runner, "run_bulk_exchange", fake)
    per_seed = {}
    for seed in (1, 2):
        seen.clear()
        for item in WORKLOADS[workload].build(seed):
            item.run()
        per_seed[seed] = list(seen)
    assert per_seed[1] and len(per_seed[1]) == len(per_seed[2])
    assert all(a != b for a, b in zip(per_seed[1], per_seed[2]))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wet_verified",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
