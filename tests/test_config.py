"""Tests for the canonical experiment-config plane (:mod:`repro.config`).

Pins the contracts DESIGN §7 promises: JSON round-trip, dotted-path
overrides with unknown-path rejection, construction-time validation,
and a canonical content hash that is stable across processes and
``PYTHONHASHSEED`` values.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.bench.sweep import ExperimentSpec
from repro.config import (
    ExperimentConfig,
    FaultsCfg,
    FusionCfg,
    HarnessCfg,
    NoiseCfg,
    ProtocolCfg,
    SchemeCfg,
    SystemCfg,
    WorkloadCfg,
)

KiB = 1024

#: sha256 of the documented default config under ``repro.config/v2``.
#: This pin fails loudly when the canonical form drifts — a deliberate
#: schema change must bump CONFIG_SCHEMA and update this value (which
#: also invalidates every sweep-cache entry, as it must).
GOLDEN_DEFAULT_HASH = (
    "7c72e0dfc2a6d1ee5736b57cef6997424337783b8ab7de326f55c01ae9e95476"
)


# -- round-trip ---------------------------------------------------------------


def test_default_round_trips_through_json():
    cfg = ExperimentConfig.default()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    # And through an actual JSON encode/decode, not just dicts.
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_nondefault_round_trips_through_json():
    cfg = ExperimentConfig(
        system=SystemCfg(name="ABCI"),
        workload=WorkloadCfg(name="MILC", dim=32, nbuffers=8),
        scheme=SchemeCfg(
            name="Proposed-Tuned",
            label="Proposed-Tuned",
            fusion=FusionCfg(threshold_bytes=512 * KiB, capacity=128),
            options={"poll_interval": 2e-6},
        ),
        protocol=ProtocolCfg(rendezvous="rget", eager_threshold=8 * KiB),
        faults=FaultsCfg(preset="light", spec={"control_drop": 0.5}, seed=7),
        noise=NoiseCfg(cv=0.05, seed=3),
        harness=HarnessCfg(iterations=2, warmup=0, data_plane=False, seed=9),
    )
    assert ExperimentConfig.from_dict(json.loads(cfg.canonical_json())) == cfg


def test_from_dict_rejects_unknown_keys_by_dotted_path():
    data = ExperimentConfig.default().to_dict()
    data["workload"]["dimension"] = 2000
    with pytest.raises(ValueError, match="workload.dimension"):
        ExperimentConfig.from_dict(data)
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_dict({"sytem": {}})


def test_partial_from_dict_fills_defaults():
    cfg = ExperimentConfig.from_dict({"workload": {"dim": 2000}})
    assert cfg.workload.dim == 2000
    assert cfg.workload.name == "specfem3D_cm"
    assert cfg.system == SystemCfg()


# -- dotted-path overrides ----------------------------------------------------


def test_with_overrides_sets_nested_leaves():
    cfg = ExperimentConfig.default().with_overrides(
        {
            "workload.dim": 2000,
            "scheme.fusion.threshold_bytes": 512 * KiB,
            "protocol.rendezvous": "rget",
            "harness.iterations": 2,
        }
    )
    assert cfg.workload.dim == 2000
    assert cfg.scheme.fusion.threshold_bytes == 512 * KiB
    assert cfg.protocol.rendezvous == "rget"
    assert cfg.harness.iterations == 2
    # The original is untouched (frozen + copy-on-write).
    assert ExperimentConfig.default().workload.dim == 1000


def test_with_overrides_rejects_unknown_paths():
    cfg = ExperimentConfig.default()
    with pytest.raises(ValueError, match="unknown config path 'workload.dimension'"):
        cfg.with_overrides({"workload.dimension": 2000})
    with pytest.raises(ValueError, match="unknown config path"):
        cfg.with_overrides({"nope.dim": 1})
    with pytest.raises(ValueError, match="malformed override path"):
        cfg.with_overrides({"workload..dim": 1})


def test_with_overrides_rejects_replacing_a_section_with_a_scalar():
    with pytest.raises(ValueError, match="targets a config section"):
        ExperimentConfig.default().with_overrides({"workload": 5})


def test_with_overrides_allows_new_keys_in_freeform_mappings():
    cfg = ExperimentConfig.default().with_overrides(
        {"scheme.options.poll_interval": 2e-6}
    )
    assert cfg.scheme.options == {"poll_interval": 2e-6}
    cfg = ExperimentConfig.default().with_overrides(
        {"faults.spec": {"control_drop": 0.25}}
    )
    assert cfg.faults.spec == {"control_drop": 0.25}


def test_with_overrides_revalidates():
    with pytest.raises(ValueError, match="workload.nbuffers"):
        ExperimentConfig.default().with_overrides({"workload.nbuffers": 0})


# -- validation at construction ----------------------------------------------


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: WorkloadCfg(nbuffers=0), "workload.nbuffers"),
        (lambda: WorkloadCfg(dim=0), "workload.dim"),
        (lambda: SystemCfg(nodes=0), "system.nodes"),
        (lambda: ProtocolCfg(eager_threshold=-1), "protocol.eager_threshold"),
        (lambda: ProtocolCfg(rendezvous="push"), "unknown rendezvous protocol"),
        (lambda: ProtocolCfg(pipeline_chunk_bytes=0), "pipeline_chunk_bytes"),
        (lambda: HarnessCfg(iterations=0), "iterations"),
        (lambda: HarnessCfg(warmup=-1), "warmup"),
        (lambda: NoiseCfg(cv=-0.1), "noise.cv"),
        (lambda: FaultsCfg(preset="apocalypse"), "unknown fault preset"),
        (lambda: FaultsCfg(spec={"gremlins": 1}), "unknown fault spec field"),
        (lambda: FusionCfg(max_batch_requests=0), "max_batch_requests"),
        (lambda: SchemeCfg(name=""), "scheme.name"),
    ],
)
def test_validation_fails_at_construction(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize(
    "path, value",
    [
        ("harness.iterations", "abc"),
        ("harness.iterations", True),
        ("harness.warmup", 1.5),
        ("noise.cv", "high"),
        ("noise.cv", True),
        ("protocol.poll_interval", "fast"),
        ("protocol.poll_interval", 0),
        ("protocol.flatten_base_cost", None),
        ("protocol.flatten_block_cost", False),
        ("protocol.pipeline_chunk_bytes", 0),
        ("harness.verify", 1),
        ("harness.verify", "yes"),
        ("harness.data_plane", 0),
        ("protocol.enable_direct_ipc", "no"),
        ("protocol.layout_cache_enabled", 1),
        ("obs.metrics", 1),
        ("obs.metrics", "true"),
    ],
)
def test_bad_value_is_a_value_error_naming_its_path(path, value):
    with pytest.raises(ValueError, match=re.escape(path)):
        ExperimentConfig.default().with_overrides({path: value})


def test_integral_number_hashes_like_its_float():
    base = ExperimentConfig.default()
    as_int = base.with_overrides({"noise.cv": 1, "protocol.flatten_base_cost": 0})
    as_float = base.with_overrides({"noise.cv": 1.0, "protocol.flatten_base_cost": 0.0})
    assert as_int == as_float
    assert as_int.content_hash() == as_float.content_hash()


def test_resolve_rejects_unknown_registry_names():
    with pytest.raises(ValueError, match="unknown system 'Frontier'"):
        SystemCfg(name="Frontier").resolve()
    with pytest.raises(ValueError, match="unknown workload"):
        WorkloadCfg(name="LINPACK").resolve()


# -- scheme overrides block ---------------------------------------------------


def test_scheme_overrides_dict_writes_the_config_block():
    cfg = SchemeCfg(
        name="Proposed",
        label="Tuned",
        fusion=FusionCfg(threshold_bytes=512 * KiB, capacity=64),
    )
    assert cfg.overrides_dict() == {
        "threshold_bytes": 512 * KiB, "capacity": 64, "name": "Tuned",
    }
    assert SchemeCfg(name="GPU-Async").overrides_dict() == {}


def test_scheme_fusion_configured_flags():
    assert not SchemeCfg().fusion_configured
    assert SchemeCfg(fusion=FusionCfg(capacity=4)).fusion_configured
    assert SchemeCfg(label="Tuned").fusion_configured


# -- canonical hash -----------------------------------------------------------


def test_default_hash_matches_golden_pin():
    assert ExperimentConfig.default().content_hash() == GOLDEN_DEFAULT_HASH


def test_dry_run_hash_ignores_verify():
    """With the data plane off nothing is verified: one dry run, one hash."""
    from repro.bench.figures import FIG_BASE

    dry = FIG_BASE
    assert dry.harness.data_plane is False
    unverified = dry.with_overrides({"harness.verify": False})
    assert dry.content_hash() == unverified.content_hash()
    # The field itself keeps its value, so turning the data plane back
    # on still verifies.
    wet = dry.with_overrides({"harness.data_plane": True})
    assert wet.harness.verify is True
    assert wet.content_hash() != wet.with_overrides({"harness.verify": False}).content_hash()


def test_hash_changes_with_any_knob():
    base = ExperimentConfig.default()
    seen = {base.content_hash()}
    for overrides in (
        {"workload.dim": 2000},
        {"scheme.fusion.threshold_bytes": 512 * KiB},
        {"protocol.rendezvous": "rget"},
        {"harness.seed": 7},
        {"noise.cv": 0.05},
        {"faults.preset": "light"},
    ):
        h = base.with_overrides(overrides).content_hash()
        assert h not in seen, overrides
        seen.add(h)


def _hash_in_subprocess(hashseed: str) -> str:
    src_root = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(src_root))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.config import ExperimentConfig; "
            "print(ExperimentConfig.default().content_hash())",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip()


def test_hash_stable_across_processes_and_hashseeds():
    assert _hash_in_subprocess("0") == GOLDEN_DEFAULT_HASH
    assert _hash_in_subprocess("12345") == GOLDEN_DEFAULT_HASH


# -- diff ---------------------------------------------------------------------


def test_diff_reports_dotted_paths():
    a = ExperimentConfig.default()
    b = a.with_overrides(
        {"workload.dim": 2000, "scheme.fusion.capacity": 64}
    )
    assert a.diff(a) == {}
    assert a.diff(b) == {
        "workload.dim": (1000, 2000),
        "scheme.fusion.capacity": (None, 64),
    }


# -- the sweep cache key derives from the config hash -------------------------


def test_cache_key_tracks_config_hash():
    cfg = ExperimentConfig.default()
    spec = ExperimentSpec("fig09", "Proposed/1000", cfg)
    same = ExperimentSpec("fig09", "Proposed/1000", ExperimentConfig.default())
    other_cfg = ExperimentSpec(
        "fig09", "Proposed/1000", cfg.with_overrides({"workload.dim": 2000})
    )
    other_id = ExperimentSpec("fig09", "Proposed/2000", cfg)
    assert spec.cache_key("s") == same.cache_key("s")
    assert spec.cache_key("s") != other_cfg.cache_key("s")
    assert spec.cache_key("s") != other_id.cache_key("s")
    assert spec.cache_key("s") != spec.cache_key("t")
