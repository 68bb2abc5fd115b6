"""Experiment runner: the §V-A measurement methodology.

One *experiment* is: a system (Lassen/ABCI), a scheme, a workload spec,
and a buffer count ``nbuffers``.  Each iteration performs the paper's
bulk exchange — every rank issues ``nbuffers`` nonblocking sends *and*
``nbuffers`` nonblocking receives of the workload datatype with its
peer (Fig. 8's "32 continuous MPI_Isend/MPI_Irecv operations" is
``nbuffers=16``), then calls ``waitall``.  Latency is the time from
first issue to the last rank's completion.

The paper averages 500 iterations after 50 warm-up iterations; the
simulation is deterministic, so the defaults are smaller, but the
warm-up still matters — it populates the datatype layout cache, so
steady-state iterations measure cache-hit behaviour exactly as the real
runtime does.

Every wet run also verifies byte-exactness of all delivered buffers
(the layout's bytes, packed from receiver and sender) — something the
original hardware experiments could not do inline — so the performance
harness doubles as an end-to-end correctness check.

Enabling ``cfg.faults`` runs the same exchange on an imperfect
fabric/GPU: the harness attaches the plan to the simulator,
keeps the byte-exactness check on, and aggregates every recovery action
(link retransmits, control watchdog fires, scheduler ladder steps) into
a :class:`RecoveryReport` — the chaos-sweep evidence that faults cost
time, never correctness.

Every model counter lives on the object that owns it; :func:`_read_counters`
reads them once, after the run, into the report and, when telemetry
was requested, into the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..config import ExperimentConfig
from ..datatypes.layout import DataLayout
from ..datatypes.pack import pack_bytes, unpack_bytes
from ..mpi.communicator import Runtime
from ..net.topology import Cluster
from ..obs.metrics import MetricsSnapshot
from ..obs.observer import Observer
from ..schemes.base import PackingScheme
from ..sim.engine import Simulator
from ..sim.faults import FaultPlan
from ..sim.trace import Category

__all__ = ["ExperimentResult", "RecoveryReport", "run_bulk_exchange"]

SchemeFactory = Callable[..., PackingScheme]

#: the :class:`~repro.core.scheduler.SchedulerStats` fields an entry records
_SCHEDULER_FIELDS = (
    "enqueued",
    "launches",
    "fused_requests",
    "flush_launches",
    "threshold_launches",
    "fallbacks",
    "mean_batch",
)


@dataclass
class RecoveryReport:
    """Everything the system did to survive an injected fault plan."""

    #: injected fault events by kind (:meth:`FaultStats.as_dict`)
    injected: Dict[str, int] = field(default_factory=dict)
    #: data transfers retransmitted by links, summed over the cluster
    link_retransmits: int = 0
    #: simulated seconds lost to failed transfer attempts + backoff
    link_fault_delay: float = 0.0
    #: RTS packets re-sent by sender control watchdogs
    rts_retransmits: int = 0
    #: CTS offers repeated after a duplicate RTS found the CTS lost
    cts_resends: int = 0
    #: scheduler ladder rung ①: same-batch relaunches
    relaunches: int = 0
    #: scheduler ladder rung ②: batch halvings
    batch_splits: int = 0
    #: scheduler ladder rung ③: degraded launch-and-wait requests
    sync_fallbacks: int = 0
    #: per-operation kernel launches retried by the schemes themselves
    launch_retries: int = 0
    #: straggler relaunches issued by completion-deadline watchdogs
    deadline_relaunches: int = 0
    #: enqueues pushed onto the negative-UID fallback path
    ring_fallbacks: int = 0

    @property
    def total_injected(self) -> int:
        """Total fault events the plan injected."""
        return sum(self.injected.values())

    @property
    def total_recoveries(self) -> int:
        """Total recovery actions taken across all layers."""
        return (
            self.link_retransmits
            + self.rts_retransmits
            + self.cts_resends
            + self.relaunches
            + self.batch_splits
            + self.sync_fallbacks
            + self.launch_retries
            + self.deadline_relaunches
            + self.ring_fallbacks
        )

    def describe(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        injected = ", ".join(
            f"{k}={v}" for k, v in self.injected.items() if v
        ) or "none"
        lines = [
            f"injected: {injected}",
            f"recovered: link retransmits={self.link_retransmits} "
            f"(+{self.link_fault_delay * 1e6:.1f}us), "
            f"rts retransmits={self.rts_retransmits}, "
            f"cts resends={self.cts_resends}",
            f"scheduler: relaunches={self.relaunches}, "
            f"splits={self.batch_splits}, "
            f"sync fallbacks={self.sync_fallbacks}, "
            f"deadline relaunches={self.deadline_relaunches}, "
            f"ring fallbacks={self.ring_fallbacks}, "
            f"scheme launch retries={self.launch_retries}",
        ]
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Measured outcome of one experiment.

    The one result type: a live run returns it, and an artifact entry
    reads back into it (:meth:`from_entry`), so report formatters,
    figure drivers and the figure tuning phase take either.
    """

    scheme: str
    workload: str
    system: str
    nbuffers: int
    dim: int
    #: per-iteration end-to-end latencies, seconds (post-warm-up)
    latencies: List[float] = field(default_factory=list)
    #: per-category totals averaged over iterations and ranks, seconds
    breakdown: Dict[Category, float] = field(default_factory=dict)
    #: scheduler statistics of rank 0 (fusion runs only)
    scheduler_stats: Optional[object] = None
    #: fault-injection recovery summary (fault runs only)
    recovery: Optional[RecoveryReport] = None
    #: frozen telemetry counters (runs with an observer attached only)
    metrics: Optional[MetricsSnapshot] = None
    #: message payload bytes (one buffer)
    message_bytes: int = 0
    #: exact work counts of the whole run, warm-up included: calendar
    #: events, kernel launches, link transfers and link bytes
    work: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_latency(self) -> float:
        """Mean post-warm-up latency in seconds."""
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    @property
    def min_latency(self) -> float:
        """Fastest iteration in seconds."""
        return float(np.min(self.latencies)) if self.latencies else float("nan")

    def speedup_over(self, other: "ExperimentResult") -> float:
        """How much faster this result is than ``other`` (>1 = faster)."""
        return other.mean_latency / self.mean_latency

    # -- the artifact entry (schema in :mod:`repro.obs.artifact`) -----------
    def to_entry(
        self,
        key: str,
        config: Optional[Mapping[str, Any]] = None,
        run: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """This result as one ``BENCH_*.json`` entry under ``key``.

        ``config`` records the scheme overrides
        (:meth:`~repro.config.SchemeCfg.overrides_dict`) and ``run`` the
        harness parameters; both are written only when non-empty.
        """
        entry: Dict[str, Any] = {
            "key": key,
            "scheme": self.scheme,
            "workload": self.workload,
            "system": self.system,
            "nbuffers": self.nbuffers,
            "dim": self.dim,
            "message_bytes": self.message_bytes,
            "mean_latency": self.mean_latency,
            "min_latency": self.min_latency,
            "latencies": [float(v) for v in self.latencies],
            "breakdown": {str(cat): float(v) for cat, v in self.breakdown.items()},
        }
        stats = self.scheduler_stats
        if stats is not None:
            entry["scheduler"] = {name: getattr(stats, name) for name in _SCHEDULER_FIELDS}
        if self.work:
            entry["work"] = dict(self.work)
        if self.metrics is not None:
            entry["metrics"] = self.metrics.as_dict()
        if config:
            entry["config"] = dict(config)
        if run:
            entry["run"] = dict(run)
        return entry

    @classmethod
    def from_entry(cls, entry: Mapping[str, Any]) -> "ExperimentResult":
        """The result an exchange entry was written from.

        Inverse of :meth:`to_entry` for everything the entry records;
        ``scheduler_stats`` comes back as a namespace of the recorded
        fields.
        """
        stats, metrics = entry.get("scheduler"), entry.get("metrics")
        return cls(
            entry["scheme"], entry["workload"], entry["system"],
            entry["nbuffers"], entry["dim"],
            latencies=list(entry["latencies"]),
            breakdown={Category(name): v for name, v in entry["breakdown"].items()},
            scheduler_stats=SimpleNamespace(**stats) if stats is not None else None,
            metrics=MetricsSnapshot.from_dict(metrics) if metrics is not None else None,
            message_bytes=entry["message_bytes"],
            work=dict(entry.get("work", {})),
        )


def _fill_random(buffers, layout: DataLayout, rng: np.random.Generator) -> None:
    """Randomise the layout's bytes of each buffer; the rest stay zero.

    Only payload bytes are ever sent or verified, so filling the whole
    extent would cost (and fault in) memory no check ever reads.
    """
    for buf in buffers:
        unpack_bytes(rng.integers(0, 256, layout.size, dtype=np.uint8), layout, buf.data)


def run_bulk_exchange(
    cfg: ExperimentConfig,
    *,
    obs: Optional[Observer] = None,
    scheme_factory: Optional[SchemeFactory] = None,
    faults: Optional[FaultPlan] = None,
) -> ExperimentResult:
    """Run one configured experiment and return its measurements.

    Everything — system, workload, scheme, protocol, noise, faults,
    harness — resolves from the one validated
    :class:`~repro.config.ExperimentConfig`.

    ``harness.data_plane=False`` prices every operation but moves no
    bytes — identical timing, used for the figure sweeps.  A wet run
    also fills, moves and verifies the layout's bytes, at host cost
    proportional to the payload plus first-touch page faults on the
    buffers' touched pages; a dry run never materialises a buffer.  With
    faults the result carries a :class:`RecoveryReport`.

    ``obs`` attaches a live :class:`~repro.obs.Observer`: the result
    then carries a frozen :class:`~repro.obs.MetricsSnapshot` and, when
    the observer's recorder is enabled, its event stream holds every
    cost-bucket charge, warm-up included, on the charging rank's track
    (``<scheme>/rank<n>``).
    Observation never consumes simulated time, so latencies are
    identical with or without it.  Fault runs read their
    :class:`RecoveryReport` off the same object counters the snapshot
    is published from, observer or not.

    Two overrides exist for what the config cannot name:
    ``scheme_factory`` builds each rank's scheme instead of
    ``cfg.scheme`` (ablation variants outside the registry), and
    ``faults`` attaches a live plan — a scripted test plan, or one whose
    ``stats`` the caller reads afterwards — instead of ``cfg.faults``,
    which must then stay disabled.
    """
    if faults is not None and cfg.faults.enabled:
        raise TypeError(
            "pass faults= or enable cfg.faults, not both: the live plan "
            "would silently replace the configured one"
        )
    system = cfg.system.resolve()
    spec = cfg.workload.resolve()
    if scheme_factory is None:
        from ..schemes import make_scheme_factory

        scheme_factory = make_scheme_factory(cfg.scheme)
    noise = cfg.noise.build(cfg.harness.seed)
    if faults is None:
        faults = cfg.faults.build(cfg.harness.seed)
    if obs is None:
        obs = cfg.obs.build()
    nbuffers = cfg.workload.nbuffers
    iterations = cfg.harness.iterations
    warmup = cfg.harness.warmup
    verify = cfg.harness.verify
    data_plane = cfg.harness.data_plane
    total_ranks = cfg.system.nodes * cfg.system.ranks_per_node
    if total_ranks != 2:
        raise ValueError(
            f"the bulk-exchange program needs exactly 2 ranks, got "
            f"{total_ranks} (system.nodes * system.ranks_per_node)"
        )

    sim = Simulator()
    sim.noise = noise
    sim.faults = faults
    if obs is not None:
        sim.obs = obs
    cluster = Cluster(
        sim,
        system,
        nodes=cfg.system.nodes,
        ranks_per_node=cfg.system.ranks_per_node,
        functional=data_plane,
    )
    runtime = Runtime(sim, cluster, scheme_factory, protocol=cfg.protocol)
    rng = np.random.default_rng(cfg.harness.seed)
    layout = spec.datatype.flatten().replicate(spec.count)
    buf_bytes = spec.buffer_bytes()

    ranks = [runtime.rank(0), runtime.rank(1)]
    send_bufs = {
        r.rank_id: [r.device.alloc(buf_bytes) for _ in range(nbuffers)] for r in ranks
    }
    recv_bufs = {
        r.rank_id: [r.device.alloc(buf_bytes) for _ in range(nbuffers)] for r in ranks
    }

    result = ExperimentResult(
        scheme="",
        workload=spec.name,
        system=system.name,
        nbuffers=nbuffers,
        dim=spec.dim,
        message_bytes=spec.message_bytes,
    )
    result.scheme = ranks[0].scheme.name

    total_iters = warmup + iterations
    finish_times: Dict[int, float] = {}

    def rank_program(rank, peer: int):
        for it in range(total_iters):
            iter_start = sim.now
            if it == warmup:
                # Steady state begins: clear accumulated trace costs.
                rank.trace.clear()
            reqs = []
            for i in range(nbuffers):
                reqs.append(
                    rank.irecv(
                        recv_bufs[rank.rank_id][i], spec.datatype, spec.count,
                        peer, tag=i,
                    )
                )
            for i in range(nbuffers):
                sreq = yield from rank.isend(
                    send_bufs[rank.rank_id][i], spec.datatype, spec.count,
                    peer, tag=i,
                )
                reqs.append(sreq)
            yield from rank.waitall(reqs)
            if it >= warmup and rank.rank_id == 0:
                result.latencies.append(sim.now - iter_start)
            # Barrier between iterations so both ranks start together.
            yield from _barrier(rank, peer, tag=10_000 + it)
        finish_times[rank.rank_id] = sim.now

    def _barrier(rank, peer: int, tag: int):
        token = rank.device.alloc(8)
        rreq = rank.irecv(token, DataLayout.contiguous(8), 1, peer, tag=tag)
        sreq = yield from rank.isend(token, DataLayout.contiguous(8), 1, peer, tag=tag)
        yield from rank.waitall([rreq, sreq])
        token.free()

    if data_plane:
        _fill_random(send_bufs[0] + send_bufs[1], layout, rng)
    else:
        verify = False
    procs = [
        sim.process(rank_program(ranks[0], 1), name="rank0"),
        sim.process(rank_program(ranks[1], 0), name="rank1"),
    ]
    sim.run(sim.all_of(procs))
    result.work, result.recovery = _read_counters(sim, runtime, faults, obs)

    if verify:
        for me, peer in ((0, 1), (1, 0)):
            for sbuf, rbuf in zip(send_bufs[peer], recv_bufs[me]):
                if not np.array_equal(
                    pack_bytes(rbuf.data, layout), pack_bytes(sbuf.data, layout)
                ):
                    raise AssertionError(
                        f"data corruption: {result.scheme} on {spec.name} "
                        f"(rank {me}, {spec.summary()})"
                    )

    # Per-category totals: average over ranks, then per iteration.
    per_rank = [r.trace.breakdown() for r in ranks]
    breakdown = {
        cat: sum(b[cat] for b in per_rank) / len(per_rank) / iterations
        for cat in Category
    }
    # Observed communication: the residual of the mean latency.
    accounted = sum(v for c, v in breakdown.items() if c is not Category.COMM)
    breakdown[Category.COMM] = max(0.0, result.mean_latency - accounted)
    result.breakdown = breakdown

    scheme0 = ranks[0].scheme
    if hasattr(scheme0, "scheduler"):
        result.scheduler_stats = scheme0.scheduler.stats

    if obs is not None:
        result.metrics = obs.snapshot()
    return result


def _read_counters(
    sim: Simulator,
    runtime: Runtime,
    faults: Optional[FaultPlan],
    obs: Optional[Observer],
) -> Tuple[Dict[str, int], Optional[RecoveryReport]]:
    """Read every model counter off the object that keeps it, once.

    The one place that maps metric series to object fields.  Returns
    the run's work counts and the :class:`RecoveryReport` of a fault
    run (``None`` otherwise) and, when telemetry was requested,
    publishes the counters into ``obs``.
    A series is published only when its counter moved, as a live
    increment would have created it.  Scheme series are labelled with
    the rank's scheme, which owns the launches of its nested fallback.
    """
    links = list(runtime.cluster.links())
    control = runtime.recovery
    schedulers = [
        r.scheme.scheduler for r in runtime.ranks if hasattr(r.scheme, "scheduler")
    ]
    owned = [
        (r.scheme.name, [s for s in (r.scheme, r.scheme.fallback) if s is not None])
        for r in runtime.ranks
    ]

    def stat(field_name: str) -> int:
        return sum(getattr(s.stats, field_name) for s in schedulers)

    work = {
        "events": sim.events_processed,
        "kernel_launches": stat("launches")
        + sum(s.kernel_launches for _, schemes in owned for s in schemes),
        "link_transfers": sum(link.transfer_count for link in links),
        "link_bytes": sum(link.bytes_carried for link in links),
    }

    if obs is not None and obs.enabled:

        def publish(series: str, value: float, **labels: str) -> None:
            if value:
                obs.count(series, value, **labels)

        for link in links:
            if link.transfer_count:  # a zero-byte transfer still makes its bytes series
                obs.count("link_transfers_total", link.transfer_count, link=link.name)
                obs.count("link_bytes_total", link.bytes_carried, link=link.name)
            publish("link_retransmits_total", link.retransmits, link=link.name)
            publish("link_fault_delay_seconds_total", link.fault_delay, link=link.name)
        for owner, schemes in owned:
            launches = sum(s.kernel_launches for s in schemes)
            publish("kernel_launches_total", launches, scheme=owner)
            retries = sum(s.launch_retries for s in schemes)
            publish("scheme_launch_retries_total", retries, scheme=owner)
        publish("fusion_launches_total", stat("threshold_launches"), reason="threshold")
        publish("fusion_launches_total", stat("flush_launches"), reason="flush")
        publish("proto_rts_sent_total", control.rts_sent)
        publish("rts_retransmits_total", control.rts_retransmits)
        publish("cts_resends_total", control.cts_resends)
        publish("fusion_enqueued_total", stat("enqueued"))
        publish("fusion_fused_requests_total", stat("fused_requests"))
        publish(
            "fusion_ring_rejections_total",
            sum(s.request_list.rejections for s in schedulers),
        )
        publish("sched_launch_failures_total", stat("launch_failures"))
        publish("sched_relaunches_total", stat("relaunches"))
        publish("sched_batch_splits_total", stat("batch_splits"))
        publish("sched_sync_fallbacks_total", stat("sync_fallbacks"))
        publish("sched_deadline_hits_total", stat("deadline_hits"))
        publish("sched_deadline_relaunches_total", stat("deadline_relaunches"))
        publish("sched_ring_fallbacks_total", stat("fallbacks"))

    if faults is None:
        return work, None
    return work, RecoveryReport(
        injected=faults.stats.as_dict(),
        link_retransmits=sum(link.retransmits for link in links),
        link_fault_delay=sum(link.fault_delay for link in links),
        rts_retransmits=control.rts_retransmits,
        cts_resends=control.cts_resends,
        relaunches=stat("relaunches"),
        batch_splits=stat("batch_splits"),
        sync_fallbacks=stat("sync_fallbacks"),
        launch_retries=sum(s.launch_retries for _, schemes in owned for s in schemes),
        deadline_relaunches=stat("deadline_relaunches"),
        ring_fallbacks=stat("fallbacks"),
    )
