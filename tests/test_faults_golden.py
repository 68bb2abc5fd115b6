"""Golden simulated latencies and recovery counts under heavy faults.

The figure artifacts pin fault-free virtual time; this file pins it
with faults on.  Each experiment is a wet, byte-verified exchange under
the ``heavy`` preset at a point that drives every recovery path (RTS
retransmits, CTS resends, link retries, launch retries and the fusion
ladder).  Every fault decision is a seeded draw, so anything that
reorders the event calendar, even among events at one instant, moves
these numbers.
"""

from dataclasses import asdict

import pytest

from repro.bench import run_bulk_exchange
from repro.bench.figures import FIG_BASE

BASE = FIG_BASE.with_overrides(
    {
        "system.name": "Lassen",
        "workload.name": "specfem3D_cm",
        "workload.dim": 1000,
        "workload.nbuffers": 16,
        "faults.preset": "heavy",
        "harness.iterations": 2,
        "harness.data_plane": True,
        "harness.verify": True,
    }
)

GOLDEN = {
    ("GPU-Sync", 0): {
        "latencies": [0.0018506219607843158, 0.0013270103921568643],
        "injected": {
            "latency_spikes": 20, "link_flaps": 12, "transfer_failures": 14,
            "control_drops": 58, "launch_failures": 30, "stragglers": 0,
            "ring_rejections": 0,
        },
        "recovery": {
            "link_retransmits": 14, "link_fault_delay": 0.006296993849411772,
            "rts_retransmits": 58, "cts_resends": 26, "relaunches": 0,
            "batch_splits": 0, "sync_fallbacks": 0, "launch_retries": 30,
            "deadline_relaunches": 0, "ring_fallbacks": 0,
        },
    },
    ("GPU-Sync", 1): {
        "latencies": [0.001021920784313728, 0.0017685715686274537],
        "injected": {
            "latency_spikes": 18, "link_flaps": 12, "transfer_failures": 26,
            "control_drops": 57, "launch_failures": 26, "stragglers": 0,
            "ring_rejections": 0,
        },
        "recovery": {
            "link_retransmits": 26, "link_fault_delay": 0.011810120784313732,
            "rts_retransmits": 57, "cts_resends": 23, "relaunches": 0,
            "batch_splits": 0, "sync_fallbacks": 0, "launch_retries": 26,
            "deadline_relaunches": 0, "ring_fallbacks": 0,
        },
    },
    ("GPU-Async", 0): {
        "latencies": [0.0018739399999999995, 0.0013398200000000124],
        "injected": {
            "latency_spikes": 20, "link_flaps": 12, "transfer_failures": 14,
            "control_drops": 58, "launch_failures": 76, "stragglers": 0,
            "ring_rejections": 0,
        },
        "recovery": {
            "link_retransmits": 14, "link_fault_delay": 0.00664474032000002,
            "rts_retransmits": 58, "cts_resends": 24, "relaunches": 0,
            "batch_splits": 0, "sync_fallbacks": 0, "launch_retries": 76,
            "deadline_relaunches": 0, "ring_fallbacks": 0,
        },
    },
    ("GPU-Async", 1): {
        "latencies": [0.0011158399999999886, 0.0018944199999999978],
        "injected": {
            "latency_spikes": 18, "link_flaps": 12, "transfer_failures": 26,
            "control_drops": 57, "launch_failures": 57, "stragglers": 0,
            "ring_rejections": 0,
        },
        "recovery": {
            "link_retransmits": 26, "link_fault_delay": 0.011958860000000038,
            "rts_retransmits": 57, "cts_resends": 20, "relaunches": 0,
            "batch_splits": 0, "sync_fallbacks": 0, "launch_retries": 57,
            "deadline_relaunches": 0, "ring_fallbacks": 0,
        },
    },
    ("CPU-GPU-Hybrid", 0): {
        "latencies": [0.0018618219607843165, 0.001339333529411762],
        "injected": {
            "latency_spikes": 20, "link_flaps": 12, "transfer_failures": 14,
            "control_drops": 58, "launch_failures": 30, "stragglers": 0,
            "ring_rejections": 0,
        },
        "recovery": {
            "link_retransmits": 14, "link_fault_delay": 0.006226236006274516,
            "rts_retransmits": 58, "cts_resends": 26, "relaunches": 0,
            "batch_splits": 0, "sync_fallbacks": 0, "launch_retries": 30,
            "deadline_relaunches": 0, "ring_fallbacks": 0,
        },
    },
    ("CPU-GPU-Hybrid", 1): {
        "latencies": [0.0010603123529411796, 0.001772111568627453],
        "injected": {
            "latency_spikes": 18, "link_flaps": 12, "transfer_failures": 26,
            "control_drops": 57, "launch_failures": 26, "stragglers": 0,
            "ring_rejections": 0,
        },
        "recovery": {
            "link_retransmits": 26, "link_fault_delay": 0.011641247254901965,
            "rts_retransmits": 57, "cts_resends": 22, "relaunches": 0,
            "batch_splits": 0, "sync_fallbacks": 0, "launch_retries": 26,
            "deadline_relaunches": 0, "ring_fallbacks": 0,
        },
    },
    ("Proposed", 0): {
        "latencies": [0.0016851135294117664, 0.0012346629411764706],
        "injected": {
            "latency_spikes": 20, "link_flaps": 12, "transfer_failures": 14,
            "control_drops": 58, "launch_failures": 8, "stragglers": 46,
            "ring_rejections": 28,
        },
        "recovery": {
            "link_retransmits": 14, "link_fault_delay": 0.00722892757490198,
            "rts_retransmits": 58, "cts_resends": 25, "relaunches": 7,
            "batch_splits": 1, "sync_fallbacks": 0, "launch_retries": 0,
            "deadline_relaunches": 36, "ring_fallbacks": 28,
        },
    },
    ("Proposed", 1): {
        "latencies": [0.0008230735294117624, 0.0017823915686274532],
        "injected": {
            "latency_spikes": 18, "link_flaps": 12, "transfer_failures": 26,
            "control_drops": 57, "launch_failures": 11, "stragglers": 47,
            "ring_rejections": 22,
        },
        "recovery": {
            "link_retransmits": 26, "link_fault_delay": 0.013583442745098064,
            "rts_retransmits": 57, "cts_resends": 21, "relaunches": 7,
            "batch_splits": 0, "sync_fallbacks": 1, "launch_retries": 3,
            "deadline_relaunches": 34, "ring_fallbacks": 22,
        },
    },
}


#: Longer runs, keyed like GOLDEN.  At 8 iterations seed 21 tells apart
#: two same-instant orders of the RPUT sender's RTS and watchdog
#: prelude (its CTS resends move); at 2 iterations it cannot.
GOLDEN_LONG = {
    ("Proposed", 21): {
        "latencies": [
            0.001775608823529408, 0.0013299482352941185, 0.0019587121568627455,
            0.00171282666666666, 0.0011695815686274414, 0.0021391115686274394,
            0.0008261545098039134, 0.0012452935294117538,
        ],
        "injected": {
            "latency_spikes": 68, "link_flaps": 33, "transfer_failures": 53,
            "control_drops": 148, "launch_failures": 35, "stragglers": 106,
            "ring_rejections": 85,
        },
        "recovery": {
            "link_retransmits": 53, "link_fault_delay": 0.022751746646274468,
            "rts_retransmits": 148, "cts_resends": 52, "relaunches": 24,
            "batch_splits": 0, "sync_fallbacks": 1, "launch_retries": 10,
            "deadline_relaunches": 68, "ring_fallbacks": 85,
        },
    },
}


def _assert_golden(cfg, golden):
    result = run_bulk_exchange(cfg)
    recovery = asdict(result.recovery)
    assert result.latencies == golden["latencies"]
    assert recovery.pop("injected") == golden["injected"]
    assert recovery == golden["recovery"]


@pytest.mark.parametrize("scheme, seed", list(GOLDEN), ids=lambda v: str(v))
def test_heavy_fault_exchange_matches_golden(scheme, seed):
    _assert_golden(
        BASE.with_overrides({"scheme.name": scheme, "harness.seed": seed}),
        GOLDEN[scheme, seed],
    )


@pytest.mark.parametrize("scheme, seed", list(GOLDEN_LONG), ids=lambda v: str(v))
def test_long_heavy_fault_exchange_matches_golden(scheme, seed):
    _assert_golden(
        BASE.with_overrides(
            {"scheme.name": scheme, "harness.seed": seed, "harness.iterations": 8}
        ),
        GOLDEN_LONG[scheme, seed],
    )
