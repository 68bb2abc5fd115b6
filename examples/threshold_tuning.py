#!/usr/bin/env python3
"""Tuning the fusion threshold — and escaping the tuning with a model.

Reproduces the Fig. 8 experiment interactively: sweep the fused-kernel
launch threshold for a sparse workload, watch the under-fused /
over-fused U-curve, then compare against the *model-based* policy (the
paper's stated future work) that launches whenever the cost model says
the pending batch out-runs one kernel-launch overhead — no per-system
byte constant required.

Run:  python examples/threshold_tuning.py
"""

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig

KiB = 1024
THRESHOLDS = [16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
              1024 * KiB, 2048 * KiB, 4096 * KiB]
WORKLOAD, DIM = "specfem3D_cm", 2000
#: the proposed scheme on Lassen, 16 buffers each way, timing only
EXPERIMENT = ExperimentConfig().with_overrides(
    {
        "workload.name": WORKLOAD,
        "workload.dim": DIM,
        "harness.iterations": 3,
        "harness.data_plane": False,
    }
)


def run(overrides) -> tuple[float, object]:
    result = run_bulk_exchange(EXPERIMENT.with_overrides(overrides))
    return result.mean_latency * 1e6, result.scheduler_stats


def main() -> None:
    print(f"Fusion-threshold sweep: {WORKLOAD} dim={DIM}, 32 ops, Lassen\n")
    print(f"{'threshold':>12}{'latency':>12}{'kernels':>9}{'mean batch':>12}")
    print("-" * 45)
    curve = {}
    for threshold in THRESHOLDS:
        latency, stats = run({"scheme.options.threshold_bytes": threshold})
        curve[threshold] = latency
        print(
            f"{threshold // KiB:>10}KB{latency:>10.1f}us{stats.launches:>9}"
            f"{stats.mean_batch:>12.1f}"
        )

    best_threshold = min(curve, key=curve.get)
    print(
        f"\nsweet spot: {best_threshold // KiB} KB "
        f"({curve[best_threshold]:.1f} us) — under-fused below, "
        "over-fused above (§IV-C)"
    )

    # The model-based policy launches once the cost model says the batch
    # out-runs two kernel-launch overheads.
    latency, stats = run({"scheme.options.policy": "model"})
    print(
        f"\nmodel-based policy (no tuning): {latency:.1f} us "
        f"({stats.launches} fused kernels, mean batch {stats.mean_batch:.1f})"
    )
    gap = latency / curve[best_threshold]
    print(f"  within {gap:.2f}x of the hand-tuned optimum.")


if __name__ == "__main__":
    main()
