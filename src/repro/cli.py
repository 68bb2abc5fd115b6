"""Command-line interface: ``python -m repro <command>``.

Small, dependency-free front door for exploring the reproduction
without writing a script:

* ``compare``   — latency table of every scheme on one workload,
* ``breakdown`` — the Fig. 11 five-bucket cost decomposition,
* ``sweep``     — ``--figure figN``: run a full paper figure's grid
  through the sharded parallel sweep engine (``--jobs``, content-
  addressed ``--cache-dir``, artifact ``--out``),
* ``autotune``  — empirical + model-based threshold recommendations
  (the one-workload fusion-threshold sweep),
* ``faults``    — chaos sweep: re-run one scheme under the fault
  presets and report latency inflation + recovery actions,
* ``regress``   — perf-regression gate: compare a fresh run (or a
  second artifact) against a stored ``BENCH_*.json`` baseline —
  latencies within a tolerance, the ``work`` counts exactly,
* ``workloads`` — list the available workload generators,
* ``describe``  — render a workload datatype's construction tree,
* ``timeline``  — ASCII Gantt chart of one run's rank-0 cost spans,
* ``config``    — ``show``/``hash``/``diff`` the canonical
  :class:`repro.config.ExperimentConfig` (dotted ``--set`` overrides,
  JSON round-trip, content hash).

Every run launched here is described by one ``ExperimentConfig`` — the
flags above are folded into it by ``_experiment_config`` before the
harness is invoked.

``faults --seed`` seeds both the payload RNG and the fault plan, so
every run is reproducible end to end; the other commands run dry and
fault-free, so no draw of theirs depends on a seed.

Telemetry flags (all default-off; the default output of every command
is byte-identical to running without :mod:`repro.obs` at all):
``compare``/``faults`` accept ``--metrics PATH`` to dump every run's
counters as Prometheus text, ``breakdown`` accepts ``--trace-out PATH``
to export the unified event stream as a Chrome ``trace.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .bench import format_breakdown_table, format_latency_table, run_bulk_exchange
from .config import (
    ExperimentConfig,
    FaultsCfg,
    HarnessCfg,
    SchemeCfg,
    SystemCfg,
    WorkloadCfg,
)
from .core.autotune import recommend_threshold
from .core.fusion_policy import LAUNCH_COST_MULTIPLE
from .net import SYSTEMS
from .obs import Observer, Recorder
from .schemes import SCHEME_REGISTRY
from .sim.faults import FAULT_PRESETS
from .sim.timeline import render_timeline
from .workloads import WORKLOADS

__all__ = ["main"]

KiB = 1024


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="specfem3D_cm", choices=sorted(WORKLOADS))
    p.add_argument("--dim", type=int, default=1000, help="workload dimension size")
    p.add_argument("--system", default="Lassen", choices=sorted(SYSTEMS))
    p.add_argument("--nbuffers", type=int, default=16, help="buffers per direction")
    p.add_argument("--iterations", type=int, default=3)


def _experiment_config(
    args, scheme: str, *, fault_preset: Optional[str] = None
) -> ExperimentConfig:
    """Fold the common CLI flags into one canonical :class:`ExperimentConfig`.

    Every run a CLI command launches goes through here, so the CLI, the
    test-suite, and the benchmark harness all share a single resolution
    path from knobs to experiment.
    """
    return ExperimentConfig(
        system=SystemCfg(name=args.system),
        workload=WorkloadCfg(
            name=args.workload, dim=args.dim, nbuffers=args.nbuffers
        ),
        scheme=SchemeCfg(name=scheme),
        faults=FaultsCfg(preset=fault_preset),
        harness=HarnessCfg(
            iterations=args.iterations,
            warmup=1,
            data_plane=fault_preset is not None,
            # Only ``faults`` takes --seed: every other command runs dry
            # and fault-free, where no draw reads it.
            seed=getattr(args, "seed", HarnessCfg.seed),
        ),
    )


def _run(args, scheme, fault_preset: Optional[str] = None, obs=None):
    cfg = _experiment_config(args, scheme, fault_preset=fault_preset)
    return run_bulk_exchange(cfg, obs=obs)


def _scheme_observer(registry, name: str, **extra: str):
    """Counters-only observer tagging every series with the run identity.

    All runs of one command share ``registry``, so the merged Prometheus
    dump has one family per metric with a label per scheme/preset —
    valid exposition text, no colliding series.
    """
    from .obs import NullRecorder, Observer

    return Observer(
        metrics=registry,
        recorder=NullRecorder(),
        const_labels={"scheme": name, **extra},
    )


def cmd_compare(args) -> int:
    registry = None
    if args.metrics:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    results = {}
    for name in SCHEME_REGISTRY:
        if args.skip_production and name in ("SpectrumMPI", "OpenMPI"):
            continue
        obs = _scheme_observer(registry, name) if registry is not None else None
        results[name] = {args.dim: _run(args, name, obs=obs)}
    print(
        format_latency_table(
            results,
            title=(
                f"{args.workload} (dim={args.dim}, {args.nbuffers} buffers) "
                f"on {args.system}"
            ),
            baseline="GPU-Sync",
        )
    )
    if registry is not None:
        with open(args.metrics, "w") as fh:
            fh.write(registry.snapshot().to_prometheus_text())
        print(f"\nmetrics written to {args.metrics}")
    return 0


def cmd_breakdown(args) -> int:
    recorder = Recorder()
    rows = []
    for name in ("GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed"):
        first = len(recorder.events)
        obs = None
        if args.trace_out:
            obs = Observer(recorder=recorder, const_labels={"scheme": name})
        rows.append(_run(args, name, obs=obs))
        # Rank events already sit on "<scheme>/rank<n>"; scope the link
        # rows the same way so the four runs stay apart.
        events = recorder.events
        for i in range(first, len(events)):
            if not events[i].track.startswith(f"{name}/"):
                events[i] = replace(events[i], track=f"{name}/{events[i].track}")
    print(
        format_breakdown_table(
            rows,
            title=(
                f"Time breakdown — {args.workload} dim={args.dim}, "
                f"{args.nbuffers} transfers, {args.system}"
            ),
        )
    )
    if args.trace_out:
        count = recorder.export_chrome_trace(args.trace_out)
        print(f"\n{count} trace events written to {args.trace_out}")
    return 0


def cmd_sweep(args) -> int:
    """``repro sweep --figure figN``: the sharded, cached figure sweep."""
    import os
    import pathlib

    from .bench.figures import FIGURES, run_figure
    from .bench.sweep import ResultCache, SweepError, code_salt
    from .obs import artifact_path, write_bench_artifact

    figures = sorted(FIGURES) if "all" in args.figure else list(args.figure)
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(
            "REPRO_SWEEP_CACHE", ".repro-cache/sweep"
        )
        cache = ResultCache(cache_dir)
    salt = args.salt if args.salt is not None else code_salt()
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    for figure in figures:
        try:
            run = run_figure(figure, jobs=args.jobs, cache=cache, salt=salt)
        except SweepError as exc:
            print(f"{figure}: FAILED\n{exc}")
            status = 1
            continue
        path = write_bench_artifact(
            artifact_path(str(out_dir), run.experiment), run.artifact_doc()
        )
        s = run.stats
        print(
            f"{figure}: {s.shards} shards — {s.ran} run, {s.hits} cached, "
            f"jobs={s.jobs}, {s.wall_seconds:.1f}s"
        )
        print(f"  -> {path} ({len(run.entries)} entries)")
    if cache is not None:
        print(f"cache: {cache.root} ({len(cache)} shards, salt {salt})")
    return status


def cmd_autotune(args) -> int:
    from .bench.figures import best_threshold, threshold_curve

    spec = WORKLOADS[args.workload](args.dim)
    system = SYSTEMS[args.system]
    layout = spec.datatype.flatten().replicate(spec.count)
    model = recommend_threshold(system.gpu_arch, layout)
    print(f"model-based recommendation: {model // KiB} KB "
          f"(§IV-C: fused time >= {LAUNCH_COST_MULTIPLE:g}x launch overhead)\n")
    curve = threshold_curve(_experiment_config(args, "Proposed"))
    best = best_threshold(curve)
    print("empirical sweep:")
    for threshold, latency in curve.items():
        mark = "   <-- best" if threshold == best else ""
        print(f"{threshold // KiB:>6} KB: {latency * 1e6:9.2f} us{mark}")
    print(f"\nempirical best: {best // KiB} KB ({curve[best] * 1e6:.1f} us)")
    return 0


def cmd_faults(args) -> int:
    """Chaos sweep: one scheme under escalating fault presets.

    Runs with the data plane on so every delivered buffer is verified
    byte-for-byte against the sent payload — a run that prints at all
    has proven the headline invariant (faults cost time, never
    correctness).
    """
    registry = None
    if args.metrics:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()

    def observer(preset: str):
        if registry is None:
            return None
        return _scheme_observer(registry, args.scheme, preset=preset)

    clean = _run(args, args.scheme, obs=observer("none"))
    print(
        f"Chaos sweep: {args.scheme} on {args.workload} dim={args.dim}, "
        f"{args.nbuffers} buffers, {args.system}, seed={args.seed}"
    )
    print(f"fault-free baseline: {clean.mean_latency * 1e6:.1f} us/iteration\n")
    print(
        f"{'preset':>10}{'latency':>12}{'slowdown':>10}"
        f"{'injected':>10}{'recovered':>11}  delivered"
    )
    for name in args.presets:
        result = _run(args, args.scheme, fault_preset=name, obs=observer(name))
        rec = result.recovery
        print(
            f"{name:>10}{result.mean_latency * 1e6:>10.1f}us"
            f"{result.mean_latency / clean.mean_latency:>9.2f}x"
            f"{rec.total_injected:>10}{rec.total_recoveries:>11}  bytes ok"
        )
        if args.verbose:
            for line in rec.describe().splitlines():
                print("    " + line)
    if registry is not None:
        with open(args.metrics, "w") as fh:
            fh.write(registry.snapshot().to_prometheus_text())
        print(f"\nmetrics written to {args.metrics}")
    return 0


def cmd_regress(args) -> int:
    """Perf-regression gate; exit 1 when the verdict is FAIL."""
    from .obs import regress as _regress
    from .obs.artifact import load_bench_artifact

    baseline = load_bench_artifact(args.baseline)
    if args.candidate:
        candidate = load_bench_artifact(args.candidate)
    else:
        print(f"re-running the figure plan of {args.baseline} ...")
        try:
            candidate = _regress.rerun_artifact(baseline)
        except ValueError as exc:
            raise SystemExit(f"regress: {exc}") from None
    report = _regress.compare_artifacts(
        baseline,
        candidate,
        tolerance=args.tolerance,
        metrics=tuple(args.metric) if args.metric else _regress.DEFAULT_METRICS,
    )
    print(report.describe())
    return 0 if report.ok else 1


def cmd_workloads(_args) -> int:
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name](32 if name in ("MILC", "NAS_MG") else 1000)
        print(f"{name:<14} {spec.layout_class:<7} e.g. {spec.summary()}")
    return 0


def cmd_describe(args) -> int:
    from .datatypes import describe

    spec = WORKLOADS[args.workload](args.dim)
    print(spec.summary())
    print()
    print(describe(spec.datatype))
    return 0


def cmd_timeline(args) -> int:
    obs = Observer(recorder=Recorder())
    result = _run(args, args.scheme, obs=obs)
    print(
        f"{args.scheme} on {args.workload} dim={args.dim} "
        f"({result.mean_latency * 1e6:.1f} us/iteration); rank 0's cost "
        f"spans, warm-up included\n"
    )
    track = f"{result.scheme}/rank0"
    rank0 = [e for e in obs.recorder.events if e.track == track]
    print(render_timeline(rank0, width=args.width))
    return 0


def _parse_set_value(raw: str):
    """``--set`` values are JSON when they parse, bare strings otherwise.

    ``--set workload.dim=2000`` gives an int, ``--set scheme.name=Proposed``
    a string — no need to quote scalars at the shell.
    """
    import json

    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _read_config(path: str) -> ExperimentConfig:
    """A config JSON file; a bad one exits with the loader's message."""
    import json

    with open(path) as fh:
        try:
            return ExperimentConfig.from_dict(json.load(fh))
        except ValueError as exc:
            raise SystemExit(f"{path}: {exc}") from None


def _config_from_args(args) -> ExperimentConfig:
    if getattr(args, "file", None):
        cfg = _read_config(args.file)
    else:
        cfg = ExperimentConfig.default()
    overrides = {}
    for item in getattr(args, "sets", None) or []:
        path, sep, raw = item.partition("=")
        if not sep or not path:
            raise SystemExit(f"--set expects PATH=VALUE, got {item!r}")
        overrides[path] = _parse_set_value(raw)
    if overrides:
        try:
            cfg = cfg.with_overrides(overrides)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return cfg


def cmd_config_show(args) -> int:
    import json

    print(json.dumps(_config_from_args(args).to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_config_hash(args) -> int:
    print(_config_from_args(args).content_hash())
    return 0


def cmd_config_diff(args) -> int:
    """Dotted-path diff of two config JSON files; exit 1 when they differ."""
    diffs = _read_config(args.a).diff(_read_config(args.b))
    if not diffs:
        print("configs identical")
        return 0
    for path in sorted(diffs):
        old, new = diffs[path]
        print(f"{path}: {old!r} -> {new!r}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Dynamic Kernel Fusion for Bulk Non-contiguous "
            "Data Transfer on GPU Clusters' (CLUSTER 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="latency table of every scheme")
    _add_common(p)
    p.add_argument(
        "--skip-production", action="store_true",
        help="skip the (slow) SpectrumMPI/OpenMPI naive schemes",
    )
    p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="dump per-scheme telemetry counters as Prometheus text",
    )
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("breakdown", help="Fig. 11-style cost decomposition")
    _add_common(p)
    p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="export the unified event stream as a Chrome trace.json",
    )
    p.set_defaults(fn=cmd_breakdown)

    p = sub.add_parser("sweep", help="parallel sweep of paper figures")
    from .bench.figures import FIGURES as _FIGURES

    p.add_argument(
        "--figure", action="append", required=True, metavar="FIG",
        choices=sorted(_FIGURES) + ["all"],
        help="run a full paper figure's grid through the sharded sweep "
        "engine (repeatable; 'all' runs every figure)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed shard cache (default $REPRO_SWEEP_CACHE "
        "or .repro-cache/sweep)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the shard cache entirely (every shard re-runs)",
    )
    p.add_argument(
        "--salt", default=None, metavar="TEXT",
        help="cache-key salt override (default: hash of the repro source "
        "tree, so code changes invalidate the cache)",
    )
    p.add_argument(
        "--out", default="benchmarks/results", metavar="DIR",
        help="artifact output directory",
    )
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("autotune", help="recommend a fusion threshold")
    _add_common(p)
    p.set_defaults(fn=cmd_autotune)

    p = sub.add_parser("faults", help="chaos sweep under fault-injection presets")
    _add_common(p)
    p.add_argument("--scheme", default="Proposed", choices=sorted(SCHEME_REGISTRY))
    p.add_argument(
        "--seed", type=int, default=HarnessCfg.seed,
        help="seed for payload data and fault draws",
    )
    p.add_argument(
        "--presets", nargs="+", default=["light", "moderate", "heavy"],
        choices=sorted(FAULT_PRESETS),
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print per-preset recovery detail",
    )
    p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="dump per-preset telemetry counters as Prometheus text",
    )
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "regress", help="compare a run against a stored BENCH_*.json baseline"
    )
    p.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="stored benchmark artifact to gate against",
    )
    p.add_argument(
        "--candidate", default=None, metavar="PATH",
        help="second artifact to compare instead of re-running the figure "
        "plan that writes the baseline (required for any other artifact)",
    )
    p.add_argument(
        "--tolerance", type=_nonnegative_float, default=0.10,
        help="allowed fractional slowdown per metric (default 0.10; the "
        "work.* counts are always compared exactly)",
    )
    p.add_argument(
        "--metric", action="append", default=None, metavar="NAME",
        help="artifact metric to watch (repeatable; default mean_latency "
        "and the four work.* counts; block.name paths such as "
        "breakdown.pack allowed)",
    )
    p.set_defaults(fn=cmd_regress)

    p = sub.add_parser("workloads", help="list workload generators")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("describe", help="render a workload datatype tree")
    p.add_argument("--workload", default="specfem3D_cm", choices=sorted(WORKLOADS))
    p.add_argument("--dim", type=int, default=1000)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("timeline", help="ASCII cost timeline of one scheme")
    _add_common(p)
    p.add_argument("--scheme", default="Proposed", choices=sorted(SCHEME_REGISTRY))
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser(
        "config", help="inspect the canonical experiment configuration"
    )
    csub = p.add_subparsers(dest="config_command", required=True)

    def _add_config_inputs(q: argparse.ArgumentParser) -> None:
        q.add_argument(
            "--file", default=None, metavar="PATH",
            help="start from a config JSON file instead of the defaults",
        )
        q.add_argument(
            "--set", action="append", default=None, dest="sets",
            metavar="PATH=VALUE",
            help="dotted-path override, e.g. workload.dim=2000 (repeatable; "
            "VALUE is parsed as JSON, falling back to a bare string)",
        )

    q = csub.add_parser("show", help="print the resolved config as JSON")
    _add_config_inputs(q)
    q.set_defaults(fn=cmd_config_show)

    q = csub.add_parser(
        "hash", help="print the canonical content hash of the config"
    )
    _add_config_inputs(q)
    q.set_defaults(fn=cmd_config_hash)

    q = csub.add_parser(
        "diff", help="dotted-path diff of two config JSON files"
    )
    q.add_argument("a", help="baseline config JSON file")
    q.add_argument("b", help="candidate config JSON file")
    q.set_defaults(fn=cmd_config_diff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
