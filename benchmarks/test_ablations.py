"""Ablations — isolating the design choices behind the fusion framework.

Not a paper figure: these benches vary one design knob at a time to
show *why* the framework is built the way §IV describes.

1. **Rendezvous sub-protocol** (§IV-B1): RPUT sends RTS before packing
   so the handshake overlaps the pack; RGET serializes pack → RTS →
   read.  RPUT should win for the bulk pattern.
2. **Sync-point linger** (§IV-C scenario 1): flushing the instant the
   progress engine polls (linger 0) defeats batching and degenerates
   toward per-op launches.
3. **Request-list capacity** (§IV-A2): a tiny circular list forces the
   negative-UID fallback path, costing baseline-like per-op overhead.
4. **Cooperative grid size** (§IV-A3): a fused grid too small to
   saturate the memory system stretches the fused kernel.
5. **Model-based launch policy** (the paper's stated future work):
   launching when the estimated fused time exceeds the launch overhead
   should be competitive with the hand-tuned byte threshold.
6. **GPU-Async pipelining depth** [23]: more chunks = more launches;
   on modern GPUs deeper pipelining only hurts.
"""


from repro.bench import run_bulk_exchange
from repro.bench.figures import FIG_BASE
from repro.config import ProtocolCfg
from repro.core import KernelFusionScheme, ModelBasedPolicy
from repro.schemes import SCHEME_REGISTRY
from repro.sim import us

KiB = 1024
#: the ablation exchange: the proposed scheme on specfem3D_cm dim 2000
ABLATION = FIG_BASE.with_overrides({"workload.name": "specfem3D_cm", "workload.dim": 2000})


def _run(overrides=None, *, scheme_factory=None):
    """One ablation point: dotted-path ``overrides`` on :data:`ABLATION`."""
    return run_bulk_exchange(
        ABLATION.with_overrides(overrides or {}), scheme_factory=scheme_factory
    )


def test_ablation_rput_overlaps_handshake(report):
    rput = _run({"protocol.rendezvous": "rput"})
    rget = _run({"protocol.rendezvous": "rget"})
    report(
        "ablation_rendezvous",
        "Ablation — rendezvous sub-protocol (proposed, specfem3D_cm)\n"
        f"  RPUT (RTS before packing): {rput.mean_latency * 1e6:9.2f}us\n"
        f"  RGET (pack, RTS, read)  : {rget.mean_latency * 1e6:9.2f}us",
    )
    assert rput.mean_latency < rget.mean_latency


def test_ablation_sync_point_linger(report):
    eager_flush = _run({"scheme.options.idle_linger": 0.0})
    lingered = _run({"scheme.options.idle_linger": us(6.0)})
    report(
        "ablation_linger",
        "Ablation — sync-point flush linger (proposed, specfem3D_cm)\n"
        f"  linger 0us (flush every poll): {eager_flush.mean_latency * 1e6:9.2f}us, "
        f"{eager_flush.scheduler_stats.launches} launches\n"
        f"  linger 6us (idle-triggered)  : {lingered.mean_latency * 1e6:9.2f}us, "
        f"{lingered.scheduler_stats.launches} launches",
    )
    assert lingered.scheduler_stats.launches < eager_flush.scheduler_stats.launches
    assert lingered.mean_latency <= eager_flush.mean_latency * 1.02


def test_ablation_request_list_capacity(report):
    big = _run({"scheme.fusion.capacity": 256})
    tiny = _run({"scheme.fusion.capacity": 2})
    report(
        "ablation_capacity",
        "Ablation — circular request list capacity (proposed)\n"
        f"  capacity 256: {big.mean_latency * 1e6:9.2f}us\n"
        f"  capacity   2: {tiny.mean_latency * 1e6:9.2f}us "
        "(fallbacks engage the GPU-Sync path)",
    )
    assert tiny.mean_latency > big.mean_latency


def test_ablation_cooperative_grid(report):
    def grid_factory(grid_blocks):
        def factory(site, trace):
            scheme = KernelFusionScheme(site, trace)
            scheme.scheduler.grid_blocks = grid_blocks
            return scheme

        return factory

    full = _run(scheme_factory=grid_factory(None))  # saturation grid
    starved = _run(scheme_factory=grid_factory(8))
    report(
        "ablation_grid",
        "Ablation — fused-kernel grid size (proposed)\n"
        f"  saturation grid (160 blocks): {full.mean_latency * 1e6:9.2f}us\n"
        f"  starved grid (8 blocks)     : {starved.mean_latency * 1e6:9.2f}us",
    )
    assert starved.mean_latency > full.mean_latency


def test_ablation_model_based_policy(report):
    def model_factory(site, trace):
        policy = ModelBasedPolicy(
            arch=site.device.arch, threshold_bytes=1 << 40, launch_cost_multiple=2.0
        )
        return KernelFusionScheme(site, trace, policy=policy)

    rows = []
    ok = True
    for workload, dim in (("specfem3D_cm", 2000), ("MILC", 16), ("NAS_MG", 64)):
        point = {"workload.name": workload, "workload.dim": dim}
        tuned = _run(point)
        model = _run(point, scheme_factory=model_factory)
        rows.append(
            f"  {workload:<14} heuristic={tuned.mean_latency * 1e6:9.2f}us  "
            f"model-based={model.mean_latency * 1e6:9.2f}us"
        )
        ok = ok and model.mean_latency < 1.5 * tuned.mean_latency
    report(
        "ablation_model_policy",
        "Ablation — model-based launch policy (paper future work)\n" + "\n".join(rows),
    )
    # The untuned model-based policy stays within 1.5x of the tuned
    # heuristic everywhere — no per-system byte threshold needed.
    assert ok


def test_ablation_async_pipeline_depth(report):
    lat = {
        c: _run(
            {"scheme.name": "GPU-Async", "scheme.options.pipeline_chunks": c}
        ).mean_latency
        for c in (1, 2, 4)
    }
    report(
        "ablation_async_chunks",
        "Ablation — GPU-Async pipeline depth (chunks = launches/op)\n"
        + "\n".join(f"  {c} chunk(s): {v * 1e6:9.2f}us" for c, v in lat.items()),
    )
    # On modern GPUs deeper pipelining only multiplies launch overhead.
    assert lat[1] < lat[2] < lat[4]


def test_ablation_layout_cache(report):
    """Table I's 'Layout Cache' column [24]: without it, every message
    re-extracts the datatype layout — a per-block tree walk that grows
    with sparsity and lands straight on the critical path."""
    rows = []
    effects = {}
    for workload, dim in (("specfem3D_cm", 4000), ("MILC", 16)):
        point = {"workload.name": workload, "workload.dim": dim}
        cached = _run(point)
        uncached = _run({**point, "protocol.layout_cache_enabled": False})
        effects[workload] = uncached.mean_latency / cached.mean_latency
        rows.append(
            f"  {workload:<14} cached={cached.mean_latency * 1e6:9.2f}us  "
            f"uncached={uncached.mean_latency * 1e6:9.2f}us  "
            f"({effects[workload]:.2f}x)"
        )
    report(
        "ablation_layout_cache",
        "Ablation — datatype layout cache [24] (proposed scheme)\n"
        + "\n".join(rows),
    )
    # The cache matters, and matters *more* for sparse layouts (their
    # per-message flatten walks tens of thousands of blocks).
    assert effects["specfem3D_cm"] > 1.1
    assert effects["specfem3D_cm"] > effects["MILC"]


def test_ablation_pipeline_chunk_size(report):
    """The classic staged-pipeline tuning curve: chunk size trades
    per-chunk latency (too small) against lost stage overlap (too
    large).  This is the large-message transport the production
    MVAPICH stack uses where GPUDirect RDMA underperforms; its optimum
    chunk lands in the classic few-hundred-KB band."""
    from repro.datatypes import DataLayout
    from repro.mpi import Runtime
    from repro.net import ABCI, Cluster
    from repro.sim import Simulator

    PAYLOAD = 4 << 20  # 4 MB, contiguous: isolates the transport

    def staged_latency(chunk_bytes):
        sim = Simulator()
        cluster = Cluster(sim, ABCI, nodes=2, functional=False)
        protocol = ProtocolCfg(host_staging_threshold=1, pipeline_chunk_bytes=chunk_bytes)
        rt = Runtime(sim, cluster, SCHEME_REGISTRY["GPU-Sync"], protocol=protocol)
        lay = DataLayout.contiguous(PAYLOAD)
        r0, r1 = rt.rank(0), rt.rank(1)
        sbuf, rbuf = r0.device.alloc(PAYLOAD), r1.device.alloc(PAYLOAD)

        def sender():
            yield from r0.send(sbuf, lay, 1, dest=1)

        def receiver():
            yield from r1.recv(rbuf, lay, 1, source=0)

        procs = [sim.process(sender()), sim.process(receiver())]
        sim.run(sim.all_of(procs))
        return sim.now

    chunks = [16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB, 4096 * KiB]
    curve = {c: staged_latency(c) for c in chunks}
    rows = [
        f"  chunk {c // KiB:>5} KB: {t * 1e6:9.1f}us" for c, t in curve.items()
    ]
    report(
        "ablation_pipeline_chunks",
        "Ablation — host-staged pipeline chunk size (4 MB payload, ABCI)\n"
        + "\n".join(rows),
    )
    best = min(curve, key=curve.get)
    assert 64 * KiB <= best <= 1024 * KiB
    assert curve[16 * KiB] > curve[best]
    assert curve[4096 * KiB] > curve[best]
