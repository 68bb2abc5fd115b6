"""Fig. 8 — performance effect of the fused-kernel launch threshold.

specfem3D_cm (sparse, MPI indexed family) with 32 continuous
``MPI_Isend``/``MPI_Irecv`` operations (16 buffers each way), sweeping
the fusion byte threshold from 16 KB to 4 MB at several input sizes,
exactly like the figure's series.

Expected shape (paper, §IV-C): a U-curve per input size —

* *under-fused* at low thresholds (16 KB): the scheduler launches on
  almost every enqueue, the design degenerates toward per-op launches,
  and "the execution time remains high";
* a sweet spot around a few hundred KB (the paper reports that fusing
  ~512 KB works best across its workloads/systems);
* *over-fused* above ~1 MB: everything waits for the sync-point flush,
  communication is delayed past the overlap window, and the larger
  inputs regress.
"""


from repro.bench import run_bulk_exchange
from repro.bench.figures import FIG08_DIMS as DIMS
from repro.bench.figures import FIG08_THRESHOLDS as THRESHOLDS
from repro.bench.figures import FIG_BASE
from repro.bench.figures import fig08_views

KiB = 1024


def test_fig08_threshold_sweep(benchmark, report, artifact, sweep_run):
    run = sweep_run("fig08")
    views = fig08_views(run.views)
    grid = {
        dim: {thr: view.mean_latency for thr, view in row.items()}
        for dim, row in views.items()
    }
    stats = {
        dim: {thr: view.scheduler_stats for thr, view in row.items()}
        for dim, row in views.items()
    }
    artifact(run)

    header = f"{'threshold':>12}" + "".join(f"{'dim=' + str(d):>14}" for d in DIMS) + \
        f"{'launches(d=%d)' % DIMS[-1]:>16}"
    lines = [header, "-" * len(header)]
    for thr in THRESHOLDS:
        cells = "".join(f"{grid[d][thr] * 1e6:>12.2f}us" for d in DIMS)
        lines.append(f"{thr // KiB:>10}KB{cells}{stats[DIMS[-1]][thr].launches:>16}")
    report(
        "fig08_threshold",
        "Fig. 8 — fusion threshold sweep (specfem3D_cm, 32 ops, Lassen)\n"
        "==============================================================\n"
        + "\n".join(lines),
    )

    for dim in DIMS:
        best_thr = min(grid[dim], key=grid[dim].get)
        best = grid[dim][best_thr]
        # The sweet spot sits in the paper's 100s-of-KB band.
        assert 64 * KiB <= best_thr <= 1024 * KiB, (dim, best_thr)
        # Under-fused: noticeably more kernel launches...
        assert stats[dim][16 * KiB].launches > 1.4 * stats[dim][best_thr].launches
        # ...and measurably slower where the wire does not dominate
        # (at the largest input the per-message wire time hides most of
        # the extra launches — the same flattening Fig. 8 shows).
        if dim <= 2000:
            assert grid[dim][16 * KiB] > 1.3 * best, dim
        else:
            assert grid[dim][16 * KiB] > best, dim

    # Over-fused: the larger inputs regress behind the delayed
    # communication once everything waits for one giant flush.
    best_2000 = min(grid[2000].values())
    assert grid[2000][4096 * KiB] > 1.2 * best_2000
    best_4000 = min(grid[4000].values())
    assert grid[4000][4096 * KiB] > 1.05 * best_4000

    benchmark.pedantic(
        lambda: run_bulk_exchange(
            FIG_BASE.with_overrides(
                {
                    "scheme.fusion.threshold_bytes": 512 * KiB,
                    "workload.dim": 2000,
                    "harness.iterations": 1,
                }
            )
        ),
        rounds=1,
    )
