"""Assorted coverage: device facade, arch registry, report edges,
engine corner cases that the focused suites don't reach."""

import numpy as np
import pytest

from repro.bench import ExperimentResult, format_latency_table
from repro.gpu import (
    ARCHITECTURES,
    GPUDevice,
    TESLA_K80,
    TESLA_P100,
    TESLA_V100,
    TESLA_V100_PCIE,
)
from repro.sim import AllOf, AnyOf, Category, Simulator
from repro.datatypes import DataLayout


# -- architectures ---------------------------------------------------------------


def test_arch_registry_contents():
    assert {"Tesla K80", "Tesla P100", "Tesla V100", "Quadro GV100"} <= set(
        ARCHITECTURES
    )
    for arch in ARCHITECTURES.values():
        assert arch.kernel_launch_overhead > 0
        assert arch.mem_bandwidth > 0
        assert arch.block_bandwidth == pytest.approx(
            arch.mem_bandwidth / arch.saturation_blocks
        )


def test_arch_generations_ordered():
    assert TESLA_K80.year < TESLA_P100.year < TESLA_V100.year
    assert TESLA_K80.mem_bandwidth < TESLA_V100.mem_bandwidth


def test_pcie_variant_slower_driver():
    assert TESLA_V100_PCIE.kernel_launch_overhead > TESLA_V100.kernel_launch_overhead
    assert TESLA_V100_PCIE.mem_bandwidth == TESLA_V100.mem_bandwidth  # same silicon


# -- device facade ------------------------------------------------------------------


def test_device_stream_factory():
    sim = Simulator()
    dev = GPUDevice(sim, TESLA_V100)
    assert dev.create_stream("extra").name == "extra"
    assert dev.create_stream().name == f"{dev.name}:s2"
    assert repr(dev).startswith("<GPUDevice")


def test_device_ids_unique():
    sim = Simulator()
    a, b = GPUDevice(sim), GPUDevice(sim)
    assert a.device_id != b.device_id
    assert a.engine is not b.engine  # independent devices overlap


# -- engine corners --------------------------------------------------------------------


def test_nested_conditions():
    sim = Simulator()
    inner = AnyOf(sim, [sim.timeout(1.0), sim.timeout(5.0)])
    outer = AllOf(sim, [inner, sim.timeout(2.0)])
    sim.run(outer)
    assert sim.now == pytest.approx(2.0)


def test_anyof_failure_propagates():
    sim = Simulator()
    bad = sim.event()
    bad.fail(RuntimeError("x"), delay=1.0)
    cond = AnyOf(sim, [bad, sim.timeout(10.0)])
    with pytest.raises(RuntimeError):
        sim.run(cond)


def test_process_waits_on_finished_process():
    sim = Simulator()

    def quick():
        return 5
        yield

    p = sim.process(quick())
    sim.run(p)

    def late():
        value = yield p  # already finished
        return value

    assert sim.run(sim.process(late())) == 5


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="payload")
        got.append(v)

    sim.run(sim.process(proc()))
    assert got == ["payload"]


# -- report edges ------------------------------------------------------------------------


def _fake(scheme, latency):
    r = ExperimentResult(scheme=scheme, workload="w", system="s", nbuffers=1, dim=1)
    r.latencies = [latency]
    r.breakdown = {c: 0.0 for c in Category}
    return r


def test_latency_table_without_baseline():
    text = format_latency_table({"A": {1: _fake("A", 1e-4)}}, title="t")
    assert "speedup" not in text


def test_latency_table_unknown_baseline_ignored():
    text = format_latency_table(
        {"A": {1: _fake("A", 1e-4)}}, title="t", baseline="nope"
    )
    assert "speedup" not in text


def test_experiment_result_nan_when_empty():
    r = ExperimentResult(scheme="s", workload="w", system="x", nbuffers=1, dim=1)
    assert np.isnan(r.mean_latency)
    assert np.isnan(r.min_latency)


# -- layout odds and ends ---------------------------------------------------------------


def test_layout_slice_and_density_roundtrip():
    lay = DataLayout([0, 100, 200], [10, 10, 10])
    assert lay.slice_blocks(0, 2).size == 20
    assert 0 < lay.density < 1
    assert lay.replicate(1) is lay
