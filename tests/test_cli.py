"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in (
        "compare", "breakdown", "sweep", "autotune", "faults",
        "workloads", "timeline",
    ):
        assert command in text


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("specfem3D_oc", "specfem3D_cm", "MILC", "NAS_MG", "WRF"):
        assert name in out


def test_compare_command(capsys):
    rc = main([
        "compare", "--workload", "NAS_MG", "--dim", "32",
        "--nbuffers", "4", "--iterations", "2", "--skip-production",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Proposed" in out and "GPU-Sync" in out
    assert "speedup over GPU-Sync" in out


def test_breakdown_command(capsys):
    rc = main([
        "breakdown", "--workload", "MILC", "--dim", "8",
        "--nbuffers", "4", "--iterations", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pack" in out and "launch" in out and "comm" in out


@pytest.mark.parametrize(
    "argv",
    [
        # the retired threshold mode: `repro autotune` runs that grid
        ["sweep", "--workload", "NAS_MG", "--dim", "64", "--nbuffers", "8",
         "--iterations", "2", "--thresholds", "16", "512"],
        # a figure sweep has no per-run flags to ignore silently
        ["sweep", "--figure", "fig01", "--dim", "5", "--workload", "MILC",
         "--no-cache"],
    ],
    ids=["threshold-mode", "figure-with-run-flags"],
)
def test_sweep_runs_figures_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_timeline_command(capsys):
    rc = main([
        "timeline", "--scheme", "GPU-Sync", "--workload", "NAS_MG",
        "--dim", "32", "--nbuffers", "2", "--iterations", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "|" in out  # a rendered chart


def _timeline(capsys, *flags):
    argv = [
        "timeline", "--scheme", "GPU-Sync", "--workload", "NAS_MG",
        "--dim", "32", "--nbuffers", "2", "--iterations", "2", *flags,
    ]
    assert main(argv) == 0
    return build_parser().parse_args(argv), capsys.readouterr().out


def test_timeline_charts_the_run_it_reports(capsys):
    """The chart is drawn from the reported run itself: noise moves it,
    and its window ends where that run's last rank-0 cost span ends."""
    from repro.bench import run_bulk_exchange
    from repro.cli import _experiment_config
    from repro.obs import Observer
    from repro.sim import Category

    charts = {}
    for noise in ("0", "0.5"):
        args, out = _timeline(capsys, "--noise", noise)
        latency, chart = out.split("\n\n", 1)
        charts[noise] = chart
        obs = Observer()
        run_bulk_exchange(_experiment_config(args, "GPU-Sync"), obs=obs)
        buckets = {c.value for c in Category}
        end = max(
            e.end for e in obs.recorder.events
            if e.track == "GPU-Sync/rank0" and e.category in buckets
        )
        header = chart.splitlines()[0]
        assert header.rstrip().endswith(f"{end * 1e6:.1f}us"), (header, end)
    assert charts["0"] != charts["0.5"]


def test_autotune_command(capsys):
    rc = main([
        "autotune", "--workload", "NAS_MG", "--dim", "64", "--nbuffers", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model-based recommendation" in out
    assert "<-- best" in out and "empirical best" in out


def test_autotune_runs_the_common_flags(capsys):
    """``--seed`` and ``--noise`` reach every candidate run."""
    outputs = []
    for flags in ([], ["--noise", "0.3", "--seed", "3"], ["--noise", "0.3", "--seed", "4"]):
        assert main([
            "autotune", "--workload", "NAS_MG", "--dim", "64", "--nbuffers", "4",
            *flags,
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 3


def test_faults_command(capsys):
    rc = main([
        "faults", "--workload", "NAS_MG", "--dim", "32", "--nbuffers", "4",
        "--iterations", "2", "--presets", "light", "heavy",
        "--seed", "7", "--verbose",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault-free baseline" in out
    assert "light" in out and "heavy" in out
    assert "bytes ok" in out
    assert "seed=7" in out


def test_seed_flag_reproduces_and_varies(capsys):
    def sweep(seed):
        main([
            "faults", "--workload", "NAS_MG", "--dim", "32", "--nbuffers",
            "4", "--iterations", "2", "--presets", "heavy", "--seed", seed,
        ])
        return capsys.readouterr().out

    first, again, other = sweep("1"), sweep("1"), sweep("99")
    assert first == again
    assert first != other


def test_noise_flag_accepted(capsys):
    rc = main([
        "compare", "--workload", "NAS_MG", "--dim", "32", "--nbuffers", "2",
        "--iterations", "2", "--skip-production", "--noise", "0.05",
    ])
    assert rc == 0
    assert "Proposed" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_describe_command(capsys):
    rc = main(["describe", "--workload", "MILC", "--dim", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hvector" in out and "flattened:" in out


def test_figure_sweep_command(capsys, tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "results"
    argv = [
        "sweep", "--figure", "fig11", "--jobs", "1",
        "--cache-dir", str(cache), "--out", str(out), "--salt", "test",
    ]
    rc = main(argv)
    assert rc == 0
    cold = capsys.readouterr().out
    assert "fig11: 3 shards — 3 run, 0 cached" in cold
    artifact = out / "BENCH_fig11_breakdown.json"
    assert artifact.exists()

    # Warm cache: identical artifact, zero shards re-run.
    before = artifact.read_bytes()
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "fig11: 3 shards — 0 run, 3 cached" in warm
    assert artifact.read_bytes() == before


def test_figure_sweep_no_cache(capsys, tmp_path):
    rc = main([
        "sweep", "--figure", "fig01", "--no-cache",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig01: 1 shards — 1 run, 0 cached" in out
    assert "cache:" not in out
    assert (tmp_path / "BENCH_fig01_launch_overhead.json").exists()


def test_config_in_help():
    assert "config" in build_parser().format_help()


def test_config_show_round_trips(capsys):
    import json

    from repro.config import ExperimentConfig

    assert main(["config", "show"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert ExperimentConfig.from_dict(data) == ExperimentConfig.default()


def test_config_hash_matches_library(capsys):
    from repro.config import ExperimentConfig

    assert main(["config", "hash"]) == 0
    assert capsys.readouterr().out.strip() == (
        ExperimentConfig.default().content_hash()
    )


def test_config_set_overrides(capsys):
    import json

    assert main([
        "config", "show",
        "--set", "workload.dim=2000",
        "--set", "scheme.name=GPU-Async",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["workload"]["dim"] == 2000
    assert data["scheme"]["name"] == "GPU-Async"

    assert main(["config", "hash", "--set", "workload.dim=2000"]) == 0
    changed = capsys.readouterr().out.strip()
    assert main(["config", "hash"]) == 0
    assert changed != capsys.readouterr().out.strip()


def test_config_set_rejects_unknown_path_and_bad_syntax(capsys):
    with pytest.raises(SystemExit, match="unknown config path"):
        main(["config", "hash", "--set", "workload.dimension=2000"])
    with pytest.raises(SystemExit, match="PATH=VALUE"):
        main(["config", "hash", "--set", "workload.dim"])


def test_bad_config_value_exits_with_the_message_alone(tmp_path):
    """A bad value ends the command like a bad flag does: the one-line
    message and a nonzero exit, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["config", "show", "--set", "harness.iterations=abc"])
    assert exc.value.code == "harness.iterations must be an integer >= 1, got 'abc'"
    bad = tmp_path / "bad.json"
    bad.write_text('{"harness": {"iterations": "abc"}}')
    for argv in (["config", "hash", "--file", str(bad)], ["config", "diff", str(bad), str(bad)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == f"{bad}: harness.iterations must be an integer >= 1, got 'abc'"


def test_config_diff_files(capsys, tmp_path):
    import json

    from repro.config import ExperimentConfig

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ExperimentConfig.default()
    a.write_text(json.dumps(base.to_dict()))
    b.write_text(json.dumps(
        base.with_overrides({"workload.dim": 2000}).to_dict()
    ))
    assert main(["config", "diff", str(a), str(a)]) == 0
    assert "identical" in capsys.readouterr().out
    assert main(["config", "diff", str(a), str(b)]) == 1
    assert "workload.dim: 1000 -> 2000" in capsys.readouterr().out


def test_config_show_from_file(capsys, tmp_path):
    import json

    from repro.config import ExperimentConfig

    path = tmp_path / "cfg.json"
    cfg = ExperimentConfig.default().with_overrides({"harness.seed": 7})
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["config", "hash", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == cfg.content_hash()
    assert main([
        "config", "hash", "--file", str(path), "--set", "harness.seed=8",
    ]) == 0
    assert capsys.readouterr().out.strip() != cfg.content_hash()


def test_faults_reports_are_per_run_with_shared_metrics(capsys, tmp_path):
    """Presets that share one --metrics registry still each report
    only their own run's recoveries."""
    args = [
        "faults", "--workload", "NAS_MG", "--dim", "32", "--nbuffers", "4",
        "--iterations", "2", "--presets", "moderate", "heavy", "--verbose",
    ]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--metrics", str(tmp_path / "faults.prom")]) == 0
    shared = capsys.readouterr().out
    assert shared.split("\nmetrics written to ")[0] == plain
