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

Entries are written and read by
:meth:`repro.bench.runner.ExperimentResult.to_entry` /
:meth:`~repro.bench.runner.ExperimentResult.from_entry`; ``config`` and
``run`` record the scheme overrides and harness parameters a reader
needs to tell the measurements apart, while the figure plan that wrote
the artifact (:data:`repro.bench.figures.FIGURES`) is what re-runs it.
``data`` covers figures like Fig. 1 that tabulate cost-model constants
rather than exchanges.  ``work`` records what the whole run (warm-up
included) cost the simulator — calendar events fired, kernel launches
(per-op and fused), link transfers and link bytes.  The counts are
deterministic, so the regression gate compares them exactly.

This module is deliberately import-light (stdlib only) so
``repro.obs`` can load before the simulator packages.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Mapping, Optional, Sequence

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "experiment_artifact",
    "write_bench_artifact",
    "load_bench_artifact",
    "artifact_path",
]

SCHEMA = "repro.obs/bench-artifact"
SCHEMA_VERSION = 1


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
