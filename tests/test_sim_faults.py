"""Unit tests for the seeded fault-injection plan."""

import subprocess
import sys

import pytest

from repro.sim import FAULT_PRESETS, FaultPlan, FaultSpec, Simulator
from repro.sim.faults import MAX_RETRIED_PROBABILITY


# -- spec validation ------------------------------------------------------------


def test_spec_defaults_inactive():
    spec = FaultSpec()
    assert not spec.active
    assert FAULT_PRESETS["off"] == spec


@pytest.mark.parametrize("preset", ["light", "moderate", "heavy"])
def test_presets_active_and_valid(preset):
    assert FAULT_PRESETS[preset].active


@pytest.mark.parametrize(
    "kwargs",
    [
        {"latency_spike": -0.1},
        {"latency_spike": 1.1},
        {"straggler": 2.0},
        {"transfer_failure": MAX_RETRIED_PROBABILITY + 0.01},
        {"control_drop": 1.0},
        {"launch_failure": -0.5},
        {"spike_factor": 0.5},
        {"straggler_factor": 0.0},
        {"flap_downtime": -1e-6},
    ],
)
def test_spec_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        FaultSpec(**kwargs)


def test_retried_kinds_capped_below_one():
    # The cap is what guarantees retry loops terminate almost surely.
    assert MAX_RETRIED_PROBABILITY < 1.0
    FaultSpec(transfer_failure=MAX_RETRIED_PROBABILITY)  # boundary OK


# -- determinism -----------------------------------------------------------------


def test_same_seed_same_decisions():
    a = FaultPlan(seed=9, spec=FAULT_PRESETS["moderate"])
    b = FaultPlan(seed=9, spec=FAULT_PRESETS["moderate"])
    seq_a = [
        (a.transfer_fails("ib0"), a.latency_multiplier("ib0"),
         a.drop_control("rts"), a.launch_fails(), a.straggler_multiplier())
        for _ in range(200)
    ]
    seq_b = [
        (b.transfer_fails("ib0"), b.latency_multiplier("ib0"),
         b.drop_control("rts"), b.launch_fails(), b.straggler_multiplier())
        for _ in range(200)
    ]
    assert seq_a == seq_b
    assert a.stats.as_dict() == b.stats.as_dict()


def test_different_seeds_differ():
    a = FaultPlan(seed=1, spec=FAULT_PRESETS["heavy"])
    b = FaultPlan(seed=2, spec=FAULT_PRESETS["heavy"])
    seq_a = [a.transfer_fails("ib0") for _ in range(200)]
    seq_b = [b.transfer_fails("ib0") for _ in range(200)]
    assert seq_a != seq_b


def test_channels_draw_independently():
    plan = FaultPlan(seed=4, spec=FaultSpec(transfer_failure=0.5))
    # Interleaving draws on one channel must not perturb another:
    # channel "a" alone...
    solo = FaultPlan(seed=4, spec=FaultSpec(transfer_failure=0.5))
    expect = [solo.transfer_fails("a") for _ in range(50)]
    got = []
    for _ in range(50):
        got.append(plan.transfer_fails("a"))
        plan.transfer_fails("b")  # interleaved draws on another channel
    assert got == expect


def test_inactive_plan_injects_nothing():
    plan = FaultPlan(seed=0)  # all probabilities zero
    assert not plan.transfer_fails("x")
    assert plan.latency_multiplier("x") == 1.0
    assert plan.link_down_time("x") == 0.0
    assert not plan.drop_control("rts")
    assert not plan.launch_fails()
    assert plan.straggler_multiplier() == 1.0
    assert not plan.ring_rejects()
    assert plan.stats.total == 0


def test_stats_count_injected_events():
    plan = FaultPlan(seed=7, spec=FaultSpec(transfer_failure=0.9))
    hits = sum(plan.transfer_fails("lnk") for _ in range(100))
    assert plan.stats.transfer_failures == hits > 0
    assert plan.stats.total == hits


def test_simulator_has_no_faults_by_default():
    assert Simulator().faults is None


def test_describe_names_active_kinds():
    text = FaultPlan(seed=5, spec=FaultSpec(control_drop=0.25)).describe()
    assert "control_drop=0.25" in text and "seed=5" in text
    assert "inactive" in FaultPlan().describe()


# -- PYTHONHASHSEED independence ----------------------------------------------

_HASHSEED_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.sim import FaultPlan
from repro.sim.faults import FaultSpec
plan = FaultPlan(seed=3, spec=FaultSpec(transfer_failure=0.5))
print([plan.transfer_fails("mlx5_0") for _ in range(5)])
print([plan.transfer_fails("mlx5_1") for _ in range(5)])
"""


def test_channel_streams_stable_across_hash_seeds():
    """Channel keying must not depend on PYTHONHASHSEED (str hash
    salting): streams are keyed by ``zlib.crc32`` of the channel name."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = _HASHSEED_SNIPPET.format(src=src)
    outputs = set()
    for hashseed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        outputs.add(out)
    assert len(outputs) == 1, "RNG streams vary with PYTHONHASHSEED"

