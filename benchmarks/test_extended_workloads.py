"""Extension — the paper's future work: more application workloads.

§VII: "we plan to evaluate the proposed designs with more application
workloads that involve bulk non-contiguous data transfer".  This bench
runs the five additional ddtbench patterns (WRF, NAS_LU x/y, FFT2D,
LAMMPS) through the same Lassen bulk-exchange methodology as Fig. 12
and checks the paper's central prediction generalizes: wherever
per-operation driver overhead is a significant share of the transfer
(i.e. everything short of wire-bound messages), dynamic kernel fusion
wins, with the biggest factors on the many-small-block layouts.
"""


from repro.bench import format_latency_table, run_bulk_exchange
from repro.bench.figures import FIG_BASE

from conftest import best_speedup

SWEEPS = {
    "WRF": [16, 32, 64],
    "NAS_LU_x": [16, 32, 64],
    "NAS_LU_y": [16, 32, 64],
    "FFT2D": [64, 128, 256],
    "LAMMPS_full": [256, 1024, 4096],
}
SCHEMES = ["GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed"]


def _run(scheme, workload, dim, iterations=FIG_BASE.harness.iterations):
    return run_bulk_exchange(
        FIG_BASE.with_overrides(
            {
                "scheme.name": scheme,
                "workload.name": workload,
                "workload.dim": dim,
                "harness.iterations": iterations,
            }
        )
    )


def test_extended_workloads(benchmark, report):
    chunks = []
    speedups = {}
    for workload, dims in SWEEPS.items():
        grid = {name: {} for name in SCHEMES}
        for dim in dims:
            for name in SCHEMES:
                grid[name][dim] = _run(name, workload, dim)
        chunks.append(
            format_latency_table(
                grid,
                title=f"Extension — {workload} on Lassen (32 nonblocking ops)",
                baseline="GPU-Sync",
            )
        )
        speedups[workload] = best_speedup(grid, "Proposed", "GPU-Sync")
    report("extended_workloads", "\n\n".join(chunks))

    # Fusion wins on every additional workload, several-fold where the
    # messages are overhead-bound.
    for workload, factor in speedups.items():
        assert factor > 1.5, (workload, factor)
    assert max(speedups.values()) > 3.0

    benchmark.pedantic(lambda: _run("Proposed", "WRF", 32, iterations=1), rounds=1)
