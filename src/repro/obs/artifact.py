"""Versioned benchmark artifacts: the ``BENCH_<experiment>.json`` schema.

Every benchmark figure serializes its measured grid into one JSON file
next to the human-readable ``.txt`` table, giving the repo a
machine-readable perf trajectory that the regression gate
(:mod:`repro.obs.regress`) and CI can diff across commits.

Schema (``repro.obs/bench-artifact`` version 1)::

    {
      "schema": "repro.obs/bench-artifact",
      "version": 1,
      "experiment": "fig08_threshold",
      "meta": {"seed": 42, ...},          # free-form provenance
      "entries": [                         # one per measured config
        {
          "key": "thr=512KB/dim=2000",    # unique within the artifact
          "scheme": "Proposed", "workload": "specfem3D_cm",
          "system": "Lassen", "nbuffers": 16, "dim": 2000,
          "message_bytes": 70224,
          "mean_latency": 1.2e-4, "min_latency": 1.1e-4,
          "latencies": [...],              # seconds, post-warm-up
          "breakdown": {"pack": ..., "launch": ..., ...},
          "scheduler": {"launches": ..., "mean_batch": ...},  # fusion runs
          "work": {"events": 321, "kernel_launches": 12,       # exact
                   "link_transfers": 12, "link_bytes": 216048},  # counts
          "metrics": {...},                # MetricsSnapshot.as_dict()
          "config": {"threshold_bytes": 524288},  # scheme overrides
          "run": {"iterations": 2, "warmup": 1, "data_plane": false,
                  "rendezvous_protocol": "rput"}
        }, ...
      ],
      "data": {...}                        # free-form, for figures that
    }                                      # are not bulk-exchange grids

``entries`` carry everything needed to *re-run* the measurement
(:func:`repro.obs.regress.rerun_entry`); ``data`` covers figures like
Fig. 1 that tabulate cost-model constants rather than exchanges.
``work`` records what the whole run (warm-up included) cost the
simulator — calendar events fired, kernel launches (per-op and fused),
link transfers and link bytes — and stays out of ``run``, which is read
back as the re-run's inputs.  The counts are deterministic, so the
regression gate compares them exactly.

This module is deliberately import-light (stdlib + duck-typed results)
so ``repro.obs`` can load before the simulator packages.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "result_entry",
    "entries_from_grid",
    "experiment_artifact",
    "write_bench_artifact",
    "load_bench_artifact",
    "artifact_path",
]

SCHEMA = "repro.obs/bench-artifact"
SCHEMA_VERSION = 1


def result_entry(
    result: Any,
    *,
    key: Optional[str] = None,
    config: Optional[Mapping[str, Any]] = None,
    run: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialize one ``ExperimentResult``-like object into an entry.

    ``result`` is duck-typed: anything with the runner's result fields
    works.  ``config`` records scheme-constructor overrides (e.g. the
    fusion threshold) and ``run`` the harness parameters needed to
    reproduce the number.
    """
    entry: Dict[str, Any] = {
        "key": key or f"{result.scheme}/dim={result.dim}/nbuf={result.nbuffers}",
        "scheme": result.scheme,
        "workload": result.workload,
        "system": result.system,
        "nbuffers": result.nbuffers,
        "dim": result.dim,
        "message_bytes": result.message_bytes,
        "mean_latency": result.mean_latency,
        "min_latency": result.min_latency,
        "latencies": [float(v) for v in result.latencies],
        "breakdown": {str(cat): float(v) for cat, v in result.breakdown.items()},
    }
    stats = getattr(result, "scheduler_stats", None)
    if stats is not None:
        entry["scheduler"] = {
            "enqueued": stats.enqueued,
            "launches": stats.launches,
            "fused_requests": stats.fused_requests,
            "flush_launches": stats.flush_launches,
            "threshold_launches": stats.threshold_launches,
            "fallbacks": stats.fallbacks,
            "mean_batch": stats.mean_batch,
        }
    work = getattr(result, "work", None)
    if work:
        entry["work"] = dict(work)
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        entry["metrics"] = metrics.as_dict() if hasattr(metrics, "as_dict") else metrics
    if config:
        entry["config"] = dict(config)
    if run:
        entry["run"] = dict(run)
    return entry


def entries_from_grid(
    results: Mapping[str, Mapping[Any, Any]],
    *,
    column: str = "col",
    run: Optional[Mapping[str, Any]] = None,
    key_prefix: str = "",
) -> List[Dict[str, Any]]:
    """Entries for a ``results[scheme][column_value]`` benchmark grid.

    The grid shape the report formatters take
    (:func:`repro.bench.format_latency_table`).  Keys become
    ``[prefix/]scheme/<column>=<value>``.
    """
    entries = []
    for scheme, per_column in results.items():
        for value, result in per_column.items():
            key = f"{scheme}/{column}={value}"
            if key_prefix:
                key = f"{key_prefix}/{key}"
            entries.append(result_entry(result, key=key, run=run))
    return entries


def experiment_artifact(
    experiment: str,
    entries: Sequence[Mapping[str, Any]] = (),
    *,
    data: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned artifact document."""
    keys = [e["key"] for e in entries]
    if len(keys) != len(set(keys)):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate entry keys in {experiment}: {dupes}")
    artifact: Dict[str, Any] = {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "experiment": experiment,
        "meta": dict(meta or {}),
        "entries": [dict(e) for e in entries],
    }
    if data is not None:
        artifact["data"] = dict(data)
    return artifact


def artifact_path(directory: str, experiment: str) -> str:
    """Canonical artifact filename for an experiment."""
    return os.path.join(directory, f"BENCH_{experiment}.json")


def write_bench_artifact(path: str, artifact: Mapping[str, Any]) -> str:
    """Write an artifact (pretty-printed, stable key order); returns path."""
    if artifact.get("schema") != SCHEMA:
        raise ValueError(f"not a bench artifact: schema={artifact.get('schema')!r}")
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return str(path)


def load_bench_artifact(path: str) -> Dict[str, Any]:
    """Load and validate an artifact written by :func:`write_bench_artifact`."""
    with open(path) as fh:
        artifact = json.load(fh)
    if artifact.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a bench artifact (schema={artifact.get('schema')!r})")
    version = artifact.get("version")
    if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported artifact version {version!r}")
    artifact.setdefault("entries", [])
    artifact.setdefault("meta", {})
    return artifact
