"""Fig. 14 — comparison with production MPI libraries on Lassen.

Normalized to SpectrumMPI (higher is better), like the paper's bars:

* **SpectrumMPI** and **OpenMPI+UCX** have no optimized non-contiguous
  GPU path — they issue one ``cudaMemcpyAsync`` per contiguous block,
  so sparse layouts with thousands of blocks cost thousands of driver
  calls.  The paper reports the proposed design "can be thousand times
  faster"; the factor scales directly with the block count.
* **MVAPICH2-GDR** adaptively combines CPU-GPU-Hybrid and GPU-Sync —
  competent, but still per-operation; the proposed design reaches
  8.8× (sparse) / 4.3× (dense) over it in the paper.
"""


from repro.bench import format_speedup_table, run_bulk_exchange, speedup_matrix
from repro.bench.figures import FIG14_CASES as CASES
from repro.bench.figures import FIG_BASE
from repro.bench.figures import fig14_grids


def test_fig14_production_libraries(benchmark, report, artifact, sweep_run):
    run = sweep_run("fig14")
    grids = fig14_grids(run.views)
    artifact(run)
    chunks = [
        format_speedup_table(
            grids[workload],
            "SpectrumMPI",
            title=(
                f"Fig. 14 — vs production libraries, {workload} on Lassen "
                "(normalized to SpectrumMPI, higher is better)"
            ),
        )
        for workload in CASES
    ]
    report("fig14_production", "\n\n".join(chunks))

    sparse = speedup_matrix(grids["specfem3D_cm"], "SpectrumMPI")
    dense = speedup_matrix(grids["MILC"], "SpectrumMPI")

    # Orders of magnitude over the naive per-block production path on
    # sparse layouts (paper: "thousand times faster").
    assert max(sparse["Proposed"].values()) > 500
    # OpenMPI's slightly leaner copy path still loses by orders too.
    assert max(sparse["OpenMPI"].values()) < 2
    # Dense layouts have ~100x fewer blocks, so the gap shrinks but
    # stays large.
    assert max(dense["Proposed"].values()) > 50

    # Versus the optimized MVAPICH2-GDR: several-fold, sparse > dense
    # (paper: 8.8x sparse, 4.3x dense).
    def vs_mvapich(grid):
        return max(
            grid["MVAPICH2-GDR"][d].mean_latency / grid["Proposed"][d].mean_latency
            for d in grid["Proposed"]
        )

    sparse_factor = vs_mvapich(grids["specfem3D_cm"])
    dense_factor = vs_mvapich(grids["MILC"])
    assert sparse_factor > 2.5
    assert dense_factor > 2.0
    assert sparse_factor > dense_factor

    benchmark.pedantic(
        lambda: run_bulk_exchange(
            FIG_BASE.with_overrides(
                {
                    "scheme.name": "MVAPICH2-GDR",
                    "workload.name": "MILC",
                    "workload.dim": 16,
                    "harness.iterations": 1,
                }
            )
        ),
        rounds=1,
    )
