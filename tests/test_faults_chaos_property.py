"""The headline chaos property (DESIGN.md): faults may cost time,
never correctness.

Hypothesis generates arbitrary fault plans — any mix of latency spikes,
link flaps, transfer failures, control drops, launch failures,
stragglers, and ring pressure at any valid probability — and the bulk
exchange must still deliver byte-identical receive buffers under every
scheme and rendezvous protocol (``harness.verify`` makes ``run_bulk_exchange``
raise on the first corrupted byte).
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, FaultsCfg
from repro.sim.faults import MAX_RETRIED_PROBABILITY, FaultSpec

EXCHANGE = ExperimentConfig().with_overrides(
    {
        "workload.name": "specfem3D_cm",
        "workload.dim": 120,
        "workload.nbuffers": 3,
        "harness.iterations": 2,
        "protocol.eager_threshold": 0,
    }
)

retried = st.floats(0.0, MAX_RETRIED_PROBABILITY)
delayed = st.floats(0.0, 1.0)

fault_specs = st.builds(
    FaultSpec,
    latency_spike=delayed,
    spike_factor=st.floats(1.0, 20.0),
    link_flap=delayed,
    flap_downtime=st.floats(0.0, 1e-3),
    transfer_failure=retried,
    control_drop=retried,
    launch_failure=retried,
    straggler=delayed,
    straggler_factor=st.floats(1.0, 20.0),
    ring_pressure=delayed,
)


def _run(scheme, faults=FaultsCfg(), *, protocol="rput"):
    cfg = EXCHANGE.with_overrides(
        {"scheme.name": scheme, "protocol.rendezvous": protocol}
    )
    return run_bulk_exchange(replace(cfg, faults=faults))


@settings(max_examples=25, deadline=None)
@given(spec=fault_specs, seed=st.integers(0, 2**31 - 1))
def test_arbitrary_faults_never_corrupt_proposed(spec, seed):
    # harness.verify makes run_bulk_exchange raise AssertionError on the
    # first byte that differs from the sent payload.
    result = _run("Proposed", FaultsCfg(spec=asdict(spec), seed=seed))
    assert result.recovery is not None
    assert np.isfinite(result.mean_latency)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
@pytest.mark.parametrize("scheme", ["GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid"])
def test_heavy_faults_never_corrupt_other_schemes(scheme, seed):
    _run(scheme, FaultsCfg(preset="heavy", seed=seed))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
@pytest.mark.parametrize("protocol", ["rput", "rget"])
def test_heavy_faults_never_corrupt_either_rendezvous(protocol, seed):
    _run("Proposed", FaultsCfg(preset="heavy", seed=seed), protocol=protocol)


def test_faults_cost_time_and_recoveries_are_nonzero():
    """Acceptance criterion: under a nontrivial plan the exchange is
    slower than fault-free and the retry/fallback counters move."""
    clean = _run("Proposed")
    faulty = _run("Proposed", FaultsCfg(preset="heavy", seed=5))
    assert faulty.mean_latency > clean.mean_latency
    rec = faulty.recovery
    assert rec.total_injected > 0
    assert rec.total_recoveries > 0


def test_identical_seeds_identical_timelines():
    """Acceptance criterion: two fresh Simulators under the same fault
    seed produce identical latency timelines and identical fault/
    recovery counts."""
    a = _run("Proposed", FaultsCfg(preset="moderate", seed=9))
    b = _run("Proposed", FaultsCfg(preset="moderate", seed=9))
    assert a.latencies == b.latencies
    assert a.recovery.injected == b.recovery.injected
    assert a.recovery.total_recoveries == b.recovery.total_recoveries

    c = _run("Proposed", FaultsCfg(preset="moderate", seed=10))
    assert (c.latencies != a.latencies
            or c.recovery.injected != a.recovery.injected)
