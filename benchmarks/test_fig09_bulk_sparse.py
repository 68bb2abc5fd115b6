"""Fig. 9 — bulk inter-node transfer, sparse layout (specfem3D_cm), Lassen.

Sweeps the number of exchanged buffers from 1 to 16 (the paper's bulk
axis) at a representative dimension size, comparing the proposed
dynamic kernel fusion against GPU-Sync, GPU-Async, and CPU-GPU-Hybrid.

Expected shape (paper): the proposed design outperforms *every*
existing scheme at *every* buffer count, with the gap growing as more
buffers are exchanged (more kernels to fuse) — up to 5.9× at 16
buffers.  Hybrid tracks GPU-Sync on sparse layouts (its CPU path is
hopeless against thousands of tiny blocks, so it falls back to the
kernel path plus its adaptive overhead).
"""


from repro.bench import format_latency_table, run_bulk_exchange
from repro.bench.figures import BULK_NBUFFERS as NBUFFERS
from repro.bench.figures import FIG09_DIM as DIM
from repro.bench.figures import FIG_BASE
from repro.bench.figures import fig09_results

from conftest import best_speedup


def test_fig09_bulk_sparse_lassen(benchmark, report, artifact, sweep_run):
    run = sweep_run("fig09")
    results = fig09_results(run.views)
    artifact(run)
    report(
        "fig09_bulk_sparse",
        format_latency_table(
            results,
            title=(
                f"Fig. 9 — bulk sparse (specfem3D_cm dim={DIM}) on Lassen, "
                "1-16 buffers"
            ),
            column_label="nbuf",
            baseline="Proposed",
        ),
    )

    # The proposed design wins at every buffer count...
    for nbuf in NBUFFERS:
        prop = results["Proposed"][nbuf].mean_latency
        for other in ("GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid"):
            assert prop < results[other][nbuf].mean_latency, (other, nbuf)

    # ...and the advantage grows with the bulk size.
    def gap(nbuf):
        return results["GPU-Sync"][nbuf].mean_latency / results["Proposed"][nbuf].mean_latency

    assert gap(16) > gap(1)
    # Headline factor: several-fold at 16 buffers (paper: up to 5.9x).
    assert gap(16) > 2.5
    assert best_speedup(results, "Proposed", "CPU-GPU-Hybrid") > 2.5

    benchmark.pedantic(
        lambda: run_bulk_exchange(
            FIG_BASE.with_overrides({"workload.dim": DIM, "harness.iterations": 1})
        ),
        rounds=1,
    )
