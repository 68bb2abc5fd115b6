"""Sharded parallel sweep engine with content-addressed result caching.

The paper's evaluation (§V, Figs. 8–14) is a grid of hundreds of
(system, scheme, workload, nbuffers) experiments.  Every grid point is
an *independent, seed-deterministic* simulation, which makes the sweep
plane embarrassingly parallel and perfectly cacheable:

* an :class:`ExperimentSpec` names one grid point by value — strings
  and numbers only, no live :class:`~repro.sim.engine.Simulator` /
  :class:`~repro.net.systems.SystemConfig` /
  :class:`~repro.workloads.base.WorkloadSpec` objects — so a shard can
  be pickled into a ``multiprocessing`` spawn worker and rebuilt there
  from the registries;
* :func:`run_sweep` fans the shards of a sweep across a worker pool and
  returns serialized artifact entries in spec order, so a parallel run
  merges into a ``BENCH_<experiment>.json`` byte-identical to a serial
  one;
* a :class:`ResultCache` stores each shard's entry in a
  content-addressed on-disk file keyed by ``sha256(spec, salt)`` where
  the default salt is a hash of the ``repro`` source tree
  (:func:`code_salt`) — unchanged grid points are never re-run, and any
  code change invalidates every cached shard at once;
* cache hits / executed shards / worker counts are recorded through a
  :class:`~repro.obs.MetricsRegistry` (metric names in
  :data:`repro.obs.METRIC_CATALOG`), so the speedup is itself
  observable.

Entries are plain dicts in the :data:`repro.obs.SCHEMA` artifact-entry
shape; :class:`SweepResult` wraps one entry back into the duck-typed
``ExperimentResult`` interface (``mean_latency``, ``breakdown[Category]``,
``scheduler_stats`` …) that the report formatters and the figure shape
assertions consume.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import ExperimentConfig, HarnessCfg, ProtocolCfg, SchemeCfg, SystemCfg, WorkloadCfg
from ..obs.artifact import result_entry
from ..obs.metrics import MetricsRegistry
from ..sim.trace import Category

__all__ = [
    "CACHE_SCHEMA",
    "CACHE_SCHEMA_VERSION",
    "ExperimentSpec",
    "ResultCache",
    "SweepError",
    "SweepResult",
    "SweepRun",
    "SweepStats",
    "code_salt",
    "run_sweep",
]

CACHE_SCHEMA = "repro.obs/sweep-cache"
#: version 2: cache documents embed the spec's nested ``cfg`` tree
#: (the config plane) instead of the old flat field dict
CACHE_SCHEMA_VERSION = 2


class SweepError(RuntimeError):
    """A shard failed inside a sweep (locally or in a worker process)."""

    def __init__(self, message: str, failures: Sequence[Tuple[str, str]] = ()):
        super().__init__(message)
        #: (shard key, traceback text) for every failed shard
        self.failures: List[Tuple[str, str]] = list(failures)


@dataclass(frozen=True)
class ExperimentSpec:
    """One independent, seed-deterministic shard of a sweep.

    A spec is an :class:`~repro.config.ExperimentConfig` plus sweep
    identity (``experiment``/``key``/``kind``/``table``).  Everything
    is by-value and picklable: systems, schemes, and workloads are
    named inside the config, and :meth:`run_result` rebuilds the live
    objects from the registries inside whichever process runs the
    shard.
    """

    experiment: str
    key: str
    cfg: ExperimentConfig = field(default_factory=ExperimentConfig)
    kind: str = "exchange"
    table: str = ""

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable key order, JSON-safe)."""
        return {
            "experiment": self.experiment,
            "key": self.key,
            "kind": self.kind,
            "table": self.table,
            "cfg": self.cfg.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            experiment=str(data["experiment"]),
            key=str(data["key"]),
            cfg=ExperimentConfig.from_dict(data["cfg"]),
            kind=str(data["kind"]),
            table=str(data["table"]),
        )

    @classmethod
    def from_entry(
        cls, experiment: str, entry: Mapping[str, Any]
    ) -> "ExperimentSpec":
        """Spec that reproduces a stored artifact entry.

        The inverse of :meth:`run_entry` — how the regression gate
        re-runs a baseline measurement.
        """
        run = dict(entry.get("run", {}))
        cfg = ExperimentConfig(
            system=SystemCfg(name=str(entry["system"])),
            workload=WorkloadCfg(
                name=str(entry["workload"]),
                dim=int(entry["dim"]),
                nbuffers=int(entry["nbuffers"]),
            ),
            scheme=SchemeCfg.from_overrides(
                str(entry["scheme"]), entry.get("config", {})
            ),
            protocol=ProtocolCfg(
                rendezvous=str(run.get("rendezvous_protocol", "rput"))
            ),
            harness=HarnessCfg(
                iterations=int(run.get("iterations", 2)),
                warmup=int(run.get("warmup", 1)),
                data_plane=bool(run.get("data_plane", False)),
                seed=int(run.get("seed", 42)),
            ),
        )
        return cls(experiment, str(entry["key"]), cfg)

    def cache_key(self, salt: str) -> str:
        """Content address of this shard under a code-version salt.

        Derives from the config's canonical
        :meth:`~repro.config.ExperimentConfig.content_hash` plus the
        sweep identity — ``PYTHONHASHSEED``-independent by
        construction.
        """
        digest = hashlib.sha256()
        for part in (salt, self.experiment, self.key, self.kind, self.table):
            digest.update(part.encode())
            digest.update(b"\0")
        digest.update(self.cfg.content_hash().encode())
        return digest.hexdigest()

    # -- execution ---------------------------------------------------------
    def run_params(self) -> Dict[str, Any]:
        """The ``run`` block recorded into the artifact entry."""
        harness = self.cfg.harness
        return {
            "iterations": harness.iterations,
            "warmup": harness.warmup,
            "data_plane": harness.data_plane,
            "rendezvous_protocol": self.cfg.protocol.rendezvous,
            "seed": harness.seed,
        }

    def run_result(self, obs: Any = None) -> Any:
        """Run the shard; returns the live ``ExperimentResult``."""
        if self.kind != "exchange":
            raise ValueError(
                f"spec {self.key!r} has kind {self.kind!r}; only 'exchange' "
                "shards produce an ExperimentResult"
            )
        from .runner import run_bulk_exchange

        return run_bulk_exchange(self.cfg, obs=obs)

    def run_entry(self) -> Dict[str, Any]:
        """Run the shard; returns its serialized artifact entry."""
        if self.kind == "table":
            from .figures import TABLE_BUILDERS

            data = TABLE_BUILDERS[self.table]()
            return {"key": self.key, "kind": "table", "data": data}
        result = self.run_result()
        return result_entry(
            result,
            key=self.key,
            config=self.cfg.scheme.overrides_dict() or None,
            run=self.run_params(),
        )


@functools.lru_cache(maxsize=1)
def code_salt() -> str:
    """Hash of the ``repro`` source tree: the default cache salt.

    Any edit to any module under ``src/repro`` changes the salt, which
    changes every shard's content address — a stale cache can never
    serve results produced by different code.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


class ResultCache:
    """Content-addressed on-disk store of serialized shard entries.

    One JSON file per shard, named by :meth:`ExperimentSpec.cache_key`.
    Writes are atomic (temp file + rename) so parallel workers and
    concurrent sweeps can share a directory; unreadable or mismatched
    files are treated as misses, never as errors.
    """

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def get(self, spec: ExperimentSpec, digest: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``digest``, or ``None`` on any mismatch."""
        path = self._path(digest)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        if (
            doc.get("schema") != CACHE_SCHEMA
            or doc.get("version") != CACHE_SCHEMA_VERSION
            or doc.get("spec") != spec.to_dict()
        ):
            return None
        entry = doc.get("entry")
        return dict(entry) if isinstance(entry, dict) else None

    def put(self, spec: ExperimentSpec, digest: str, entry: Mapping[str, Any]) -> None:
        """Store one shard's entry under its content address."""
        doc = {
            "schema": CACHE_SCHEMA,
            "version": CACHE_SCHEMA_VERSION,
            "spec": spec.to_dict(),
            "entry": dict(entry),
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, self._path(digest))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached shard; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        return removed


class SweepResult:
    """``ExperimentResult``-shaped view over a serialized artifact entry.

    What the figure drivers' shape assertions and the report formatters
    consume after a sweep: latencies, the Fig. 11 cost breakdown keyed
    by :class:`~repro.sim.trace.Category`, and the scheduler stats —
    all reconstructed from the entry dict.
    """

    def __init__(self, entry: Mapping[str, Any], *, cached: bool = False):
        self.entry: Dict[str, Any] = dict(entry)
        #: True when this shard was served from the result cache
        self.cached = cached

    # -- identity ----------------------------------------------------------
    @property
    def scheme(self) -> str:
        return str(self.entry.get("scheme", ""))

    @property
    def workload(self) -> str:
        return str(self.entry.get("workload", ""))

    @property
    def system(self) -> str:
        return str(self.entry.get("system", ""))

    @property
    def nbuffers(self) -> int:
        return int(self.entry.get("nbuffers", 0))

    @property
    def dim(self) -> int:
        return int(self.entry.get("dim", 0))

    @property
    def message_bytes(self) -> int:
        return int(self.entry.get("message_bytes", 0))

    # -- measurements ------------------------------------------------------
    @property
    def latencies(self) -> List[float]:
        return [float(v) for v in self.entry.get("latencies", [])]

    @property
    def mean_latency(self) -> float:
        return float(self.entry.get("mean_latency", float("nan")))

    @property
    def min_latency(self) -> float:
        return float(self.entry.get("min_latency", float("nan")))

    @property
    def breakdown(self) -> Dict[Category, float]:
        raw = self.entry.get("breakdown", {})
        return {Category(name): float(value) for name, value in raw.items()}

    @property
    def scheduler_stats(self) -> Optional[SimpleNamespace]:
        stats = self.entry.get("scheduler")
        return SimpleNamespace(**stats) if stats is not None else None

    @property
    def data(self) -> Optional[Dict[str, Any]]:
        """Payload of a ``kind="table"`` shard (``None`` for exchanges)."""
        payload = self.entry.get("data")
        return dict(payload) if payload is not None else None

    def speedup_over(self, other: "SweepResult") -> float:
        """How much faster this result is than ``other`` (>1 = faster)."""
        return other.mean_latency / self.mean_latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepResult({self.entry.get('key')!r}, cached={self.cached})"


@dataclass
class SweepStats:
    """Shard accounting of one sweep (or one multi-phase figure run)."""

    shards: int = 0
    #: shards served from the result cache
    hits: int = 0
    #: shards actually executed
    ran: int = 0
    failures: int = 0
    jobs: int = 1
    #: host wall-clock seconds spent inside :func:`run_sweep`
    wall_seconds: float = 0.0

    def add(self, other: "SweepStats") -> None:
        """Fold another phase's accounting into this one."""
        self.shards += other.shards
        self.hits += other.hits
        self.ran += other.ran
        self.failures += other.failures
        self.jobs = max(self.jobs, other.jobs)
        self.wall_seconds += other.wall_seconds


@dataclass
class SweepRun:
    """Outcome of one :func:`run_sweep` call."""

    #: serialized entries, in spec order (the artifact merge order)
    entries: List[Dict[str, Any]] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    #: per-entry cache provenance, parallel to ``entries``
    cached_flags: List[bool] = field(default_factory=list)

    @property
    def views(self) -> Dict[str, SweepResult]:
        """Entry key → :class:`SweepResult` view."""
        return {
            str(entry["key"]): SweepResult(entry, cached=cached)
            for entry, cached in zip(self.entries, self.cached_flags)
        }


def _run_spec_payload(spec_dict: Mapping[str, Any]) -> Tuple[str, Dict[str, Any] | str]:
    """Worker-side shard execution (module-level: spawn-picklable).

    Returns ``("ok", entry)`` or ``("error", traceback_text)`` — worker
    exceptions travel back as text so the parent can surface the shard
    key alongside the remote stack.
    """
    try:
        spec = ExperimentSpec.from_dict(spec_dict)
        return ("ok", spec.run_entry())
    except Exception:
        return ("error", traceback.format_exc())


def _sweep_metric(registry: Optional[MetricsRegistry], name: str, labelnames=()):
    if registry is None:
        return None
    from ..obs.observer import METRIC_CATALOG

    kind, help_, names, _buckets = METRIC_CATALOG.get(
        name, ("counter", "", tuple(labelnames), None)
    )
    if kind == "gauge":
        return registry.gauge(name, help_, names)
    return registry.counter(name, help_, names)


def run_sweep(
    specs: Sequence[ExperimentSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    salt: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> SweepRun:
    """Execute a list of shards, in parallel, through the result cache.

    Shards found in ``cache`` (same spec, same ``salt``) are served
    without running; the rest execute on a ``jobs``-wide spawn pool
    (``jobs <= 1`` runs them in-process).  Entries come back in spec
    order regardless of completion order, so a parallel sweep merges
    into the same artifact as a serial one.  Any shard failure raises
    :class:`SweepError` carrying every failed key and its worker
    traceback.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    keys = [spec.key for spec in specs]
    if len(keys) != len(set(keys)):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate shard keys in sweep: {dupes}")

    started = time.monotonic()
    effective_salt = salt if salt is not None else code_salt()
    entries: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    cached_flags = [False] * len(specs)
    misses: List[int] = []
    digests: List[Optional[str]] = [None] * len(specs)

    for i, spec in enumerate(specs):
        if cache is not None:
            digests[i] = spec.cache_key(effective_salt)
            hit = cache.get(spec, digests[i])
            if hit is not None:
                entries[i] = hit
                cached_flags[i] = True
                continue
        misses.append(i)

    stats = SweepStats(
        shards=len(specs),
        hits=len(specs) - len(misses),
        jobs=max(1, min(jobs, len(misses)) if misses else 1),
    )
    failures: List[Tuple[str, str]] = []

    if misses:
        if jobs > 1 and len(misses) > 1:
            ctx = multiprocessing.get_context("spawn")
            payloads = [specs[i].to_dict() for i in misses]
            with ctx.Pool(processes=stats.jobs) as pool:
                outcomes = pool.map(_run_spec_payload, payloads, chunksize=1)
        else:
            outcomes = [_run_spec_payload(specs[i].to_dict()) for i in misses]
        for i, (status, payload) in zip(misses, outcomes):
            if status == "ok":
                assert isinstance(payload, dict)
                entries[i] = payload
                stats.ran += 1
                if cache is not None and digests[i] is not None:
                    cache.put(specs[i], digests[i], payload)
            else:
                failures.append((specs[i].key, str(payload)))
                stats.failures += 1

    stats.wall_seconds = time.monotonic() - started

    shards_total = _sweep_metric(registry, "sweep_shards_total", ("outcome",))
    if shards_total is not None:
        shards_total.labels(outcome="hit").inc(stats.hits)
        shards_total.labels(outcome="run").inc(stats.ran)
    failures_total = _sweep_metric(registry, "sweep_failures_total")
    if failures_total is not None:
        failures_total.labels().inc(stats.failures)
    jobs_gauge = _sweep_metric(registry, "sweep_jobs")
    if jobs_gauge is not None:
        jobs_gauge.labels().set(stats.jobs)
    wall_total = _sweep_metric(registry, "sweep_wall_seconds_total")
    if wall_total is not None:
        wall_total.labels().inc(stats.wall_seconds)

    if failures:
        detail = "\n\n".join(
            f"shard {key!r}:\n{tb.rstrip()}" for key, tb in failures
        )
        raise SweepError(
            f"{len(failures)} of {len(specs)} shards failed "
            f"({', '.join(k for k, _ in failures)}):\n{detail}",
            failures,
        )

    final_entries = [e for e in entries if e is not None]
    assert len(final_entries) == len(specs)
    return SweepRun(entries=final_entries, stats=stats, cached_flags=cached_flags)
