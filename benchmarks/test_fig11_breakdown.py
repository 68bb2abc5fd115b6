"""Fig. 11 — time breakdown of the GPU-driven designs (MILC, ABCI).

Back-to-back 16 non-contiguous transfers between two ABCI GPU nodes,
decomposed into the paper's five buckets: (Un)Pack, Launching,
Scheduling, Sync., and observed Comm.

Expected shape (paper):

* GPU-Sync and GPU-Async pay far more *Launching* than the proposed
  design (per-op vs per-batch launches);
* GPU-Sync has the highest explicit *Sync.* cost
  (``cudaStreamSynchronize`` per op);
* GPU-Async carries the largest *Scheduling* bar (event records) plus
  heavy query-based Sync.;
* the proposed design's Launching + Scheduling + Sync. are all small —
  its scheduling cost is ~2 µs per message (§V-B) — leaving packing and
  observed communication to dominate.
"""


from repro.bench import format_breakdown_table
from repro.bench.figures import FIG11_DIM as DIM
from repro.bench.figures import FIG11_NBUF as NBUF
from repro.bench.figures import fig11_results
from repro.sim import Category, us


def test_fig11_time_breakdown(report, artifact, sweep_run):
    run = sweep_run("fig11")
    by_name = fig11_results(run.views)
    results = list(by_name.values())
    artifact(run)
    report(
        "fig11_breakdown",
        format_breakdown_table(
            results,
            title=f"Fig. 11 — time breakdown, MILC dim={DIM}, {NBUF} transfers, ABCI",
        ),
    )

    sync_bd = by_name["GPU-Sync"].breakdown
    async_bd = by_name["GPU-Async"].breakdown
    prop_bd = by_name["Proposed"].breakdown

    # Launching: per-op for the baselines, per-batch for the proposal
    # (a handful of fused launches vs 32 / 64 individual ones).
    assert prop_bd[Category.LAUNCH] < sync_bd[Category.LAUNCH] / 2
    assert prop_bd[Category.LAUNCH] < async_bd[Category.LAUNCH] / 4

    # GPU-Sync pays the heaviest explicit synchronization.
    assert sync_bd[Category.SYNC] > prop_bd[Category.SYNC]

    # GPU-Async's event bookkeeping gives it the biggest Scheduling bar
    # and more Sync. than the flag-polling proposal.
    assert async_bd[Category.SCHED] > sync_bd[Category.SCHED]
    assert async_bd[Category.SCHED] > prop_bd[Category.SCHED]
    assert async_bd[Category.SYNC] > prop_bd[Category.SYNC]

    # §V-B: the proposed scheduler costs about 2 us per message.
    # (Each rank handles 2*NBUF operations: its sends and receives.)
    per_message = prop_bd[Category.SCHED] / (2 * NBUF)
    assert us(0.5) < per_message < us(3.0)

    # The proposed total is the lowest.
    assert by_name["Proposed"].mean_latency == min(r.mean_latency for r in results)
