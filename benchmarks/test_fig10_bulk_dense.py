"""Fig. 10 — bulk inter-node transfer, dense layout (MILC), Lassen.

Same bulk-size sweep as Fig. 9 but with the MILC nested-vector layout.

Expected shape (paper):

* **CPU-GPU-Hybrid can win for small dense messages** — its GDRCopy
  path has zero GPU driver overhead, which beats even the fused design
  when the messages are a couple of KB;
* the proposed design still beats GPU-Sync and GPU-Async everywhere;
* **GPU-Async performs worse than GPU-Sync** on Lassen: the per-op
  event records/queries outweigh the overlap they buy on a fast
  interconnect (§V-B).
"""


from repro.bench import format_latency_table, run_bulk_exchange
from repro.bench.figures import BULK_NBUFFERS as NBUFFERS
from repro.bench.figures import FIG10_DIM as DIM
from repro.bench.figures import FIG10_DIM_SMALL as DIM_SMALL
from repro.bench.figures import FIG_BASE
from repro.bench.figures import fig10_results


def test_fig10_bulk_dense_lassen(benchmark, report, artifact, sweep_run):
    run = sweep_run("fig10")
    big, small = fig10_results(run.views)
    artifact(run)
    text = format_latency_table(
        big,
        title=f"Fig. 10 — bulk dense (MILC dim={DIM}) on Lassen, 1-16 buffers",
        column_label="nbuf",
        baseline="Proposed",
    ) + "\n\n" + format_latency_table(
        small,
        title=f"Fig. 10 (inset) — small dense (MILC dim={DIM_SMALL})",
        column_label="nbuf",
        baseline="Proposed",
    )
    report("fig10_bulk_dense", text)

    for nbuf in NBUFFERS:
        # Proposed beats both GPU-driven baselines at every bulk size.
        prop = big["Proposed"][nbuf].mean_latency
        assert prop < big["GPU-Sync"][nbuf].mean_latency
        assert prop < big["GPU-Async"][nbuf].mean_latency
        # GPU-Async loses to plain GPU-Sync on Lassen (§V-B).
        if nbuf >= 4:
            assert (
                big["GPU-Async"][nbuf].mean_latency
                > big["GPU-Sync"][nbuf].mean_latency
            )

    # Hybrid's zero-driver-overhead CPU path wins for small dense
    # messages (it beats even the fused design until enough kernels
    # accumulate for fusion to amortize — the Fig. 12(c) exception).
    for nbuf in NBUFFERS:
        assert (
            small["CPU-GPU-Hybrid"][nbuf].mean_latency
            < small["GPU-Sync"][nbuf].mean_latency
        )
    for nbuf in (1, 2, 4, 8):
        assert (
            small["CPU-GPU-Hybrid"][nbuf].mean_latency
            < small["Proposed"][nbuf].mean_latency
        ), nbuf

    benchmark.pedantic(
        lambda: run_bulk_exchange(
            FIG_BASE.with_overrides(
                {"workload.name": "MILC", "workload.dim": DIM, "harness.iterations": 1}
            )
        ),
        rounds=1,
    )
