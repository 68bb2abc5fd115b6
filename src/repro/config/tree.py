"""The canonical experiment-config plane: one frozen, validated tree.

Every experiment the repro can run — any (system, scheme, workload,
protocol, faults, obs, harness) point of the paper's §V
evaluation space — is fully described by one :class:`ExperimentConfig`.
The tree is the single source of truth threaded through the runner
(:func:`repro.bench.runner.run_bulk_exchange`), the runtime
(:class:`repro.mpi.communicator.Runtime` consumes :class:`ProtocolCfg`),
the scheme registry (:func:`repro.schemes.make_scheme_factory` consumes
:class:`SchemeCfg`), the sweep engine
(:class:`repro.bench.sweep.ExperimentSpec` wraps a config), the figure
plans, and the CLI.

Contracts:

* **frozen + validated** — every sub-config checks its fields in
  ``__post_init__``, so a bad knob fails at construction with a clear
  message instead of deep inside the runtime;
* **JSON round-trip** — ``cfg == ExperimentConfig.from_dict(cfg.to_dict())``,
  and :meth:`ExperimentConfig.from_dict` rejects unknown keys by dotted
  path;
* **dotted-path overrides** —
  ``cfg.with_overrides({"scheme.options.threshold_bytes": 1 << 19})``
  returns a new validated config; unknown paths raise;
* **canonical hash** — :meth:`ExperimentConfig.content_hash` is a
  sha256 over the sorted-key canonical JSON, independent of
  ``PYTHONHASHSEED`` and process identity.  The sweep engine's
  content-addressed cache keys derive from it, and two runs with equal
  hashes produce byte-identical artifacts (DESIGN §7).

This module is deliberately import-light: nothing from the simulator
packages is imported at module level, so any layer (including
``repro.mpi``) can import the config types without cycles.  The
``build()`` / resolver helpers that need live registries import them
lazily.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "CONFIG_SCHEMA",
    "ExperimentConfig",
    "SystemCfg",
    "WorkloadCfg",
    "SchemeCfg",
    "ProtocolCfg",
    "FaultsCfg",
    "ObsCfg",
    "HarnessCfg",
    "config_diff",
]

#: hash-domain tag folded into :meth:`ExperimentConfig.content_hash`;
#: bump only on a deliberate canonical-form change (the golden-hash pin
#: test fails loudly when the form drifts by accident); v2: ``obs`` holds
#: only ``metrics``; v3: the single-valued protocol and fusion knobs are
#: module constants, not fields; v4: ``scheme.options`` holds every
#: fusion-variant knob, the display name included; v5: no ``noise``
#: section, no host-staging protocol knobs, no rank-shape system knobs
CONFIG_SCHEMA = "repro.config/v5"

#: rendezvous protocol names (mirrors ``repro.mpi.protocols`` RPUT/RGET;
#: duplicated by value so this module stays import-light)
_RENDEZVOUS = ("rput", "rget")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_int(name: str, value: Any, minimum: int) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{name} must be an integer >= {minimum}, got {value!r}",
    )


def _check_opt_int(name: str, value: Any, minimum: int) -> None:
    if value is not None:
        _check_int(name, value, minimum)


def _check_bool(obj: Any, section: str, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        _require(
            isinstance(value, bool),
            f"{section}.{name} must be true or false, got {value!r}",
        )


# -- sub-configs ---------------------------------------------------------------


@dataclass(frozen=True)
class SystemCfg:
    """Which cluster model hosts the exchange."""

    #: registered system name (``repro.net.SYSTEMS``: Lassen, ABCI, …)
    name: str = "Lassen"

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str), "system.name must be a non-empty string")

    def resolve(self) -> Any:
        """The live :class:`~repro.net.systems.SystemConfig`."""
        from ..net.systems import SYSTEMS

        try:
            return SYSTEMS[self.name]
        except KeyError:
            raise ValueError(
                f"unknown system {self.name!r}; known: {sorted(SYSTEMS)}"
            ) from None


@dataclass(frozen=True)
class WorkloadCfg:
    """Which ddtbench workload datatype is exchanged, and how much."""

    #: registered workload generator (``repro.workloads.WORKLOADS``)
    name: str = "specfem3D_cm"
    #: workload dimension (the figure sweep axis)
    dim: int = 1000
    #: nonblocking send/recv pairs per rank per iteration (Fig. 8's
    #: "32 continuous operations" is 16)
    nbuffers: int = 16

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str), "workload.name must be a non-empty string")
        _check_int("workload.dim", self.dim, 1)
        _check_int("workload.nbuffers", self.nbuffers, 1)

    def resolve(self) -> Any:
        """The live :class:`~repro.workloads.base.WorkloadSpec`."""
        from ..workloads import WORKLOADS

        try:
            generator = WORKLOADS[self.name]
        except KeyError:
            raise ValueError(
                f"unknown workload {self.name!r}; known: {sorted(WORKLOADS)}"
            ) from None
        return generator(self.dim)


@dataclass(frozen=True)
class SchemeCfg:
    """Which datatype-processing scheme packs/unpacks the messages."""

    #: registry name (``repro.schemes.SCHEME_REGISTRY``)
    name: str = "Proposed"
    #: constructor keywords of the scheme (checked against its
    #: signature by ``make_scheme_factory``); on ``Proposed`` they name
    #: a fusion variant: ``threshold_bytes``, ``policy``, ``capacity``,
    #: ``grid_blocks``, ``idle_linger`` and the display ``name``
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str), "scheme.name must be a non-empty string")
        options = dict(self.options)
        object.__setattr__(self, "options", options)
        for key, minimum in (("threshold_bytes", 0), ("capacity", 1), ("grid_blocks", 1)):
            if key in options:
                _check_int(f"scheme.options.{key}", options[key], minimum)
        if "policy" in options:
            from ..core.framework import POLICIES

            _require(
                options["policy"] in POLICIES,
                f"scheme.options.policy must be one of {list(POLICIES)}, "
                f"got {options['policy']!r}",
            )
        if "name" in options:
            name = options["name"]
            _require(
                bool(name) and isinstance(name, str),
                f"scheme.options.name must be a non-empty string, got {name!r}",
            )

    def overrides_dict(self) -> Dict[str, Any]:
        """The ``config`` block this scheme config records into artifact
        entries: its options."""
        return dict(self.options)


@dataclass(frozen=True)
class ProtocolCfg:
    """Point-to-point transport knobs consumed by the MPI runtime."""

    #: rendezvous flavour: sender-push ``rput`` or receiver-pull ``rget``
    rendezvous: str = "rput"
    #: messages strictly below this go eager (``None`` = system default)
    eager_threshold: Optional[int] = None
    #: allow same-node GPU peer-to-peer copies to bypass the NIC
    enable_direct_ipc: bool = False
    #: datatype layout cache of [24] (Table I ablation axis)
    layout_cache_enabled: bool = True

    def __post_init__(self) -> None:
        if self.rendezvous not in _RENDEZVOUS:
            raise ValueError(
                f"unknown rendezvous protocol {self.rendezvous!r} "
                f"(choose from {list(_RENDEZVOUS)})"
            )
        _check_opt_int("protocol.eager_threshold", self.eager_threshold, 0)
        _check_bool(self, "protocol", "enable_direct_ipc", "layout_cache_enabled")


@dataclass(frozen=True)
class FaultsCfg:
    """Fault-injection plan: a preset name and/or spec overrides.

    ``preset=None, spec=None`` (the default) runs on a perfect fabric
    with no plan attached.  ``seed=None`` derives the plan seed from
    :attr:`HarnessCfg.seed`, keeping one seed knob per experiment.
    """

    preset: Optional[str] = None
    #: field overrides layered onto the preset's ``FaultSpec``
    spec: Optional[Mapping[str, Any]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.preset is not None:
            from ..sim.faults import FAULT_PRESETS

            _require(
                self.preset in FAULT_PRESETS,
                f"unknown fault preset {self.preset!r}; known: {sorted(FAULT_PRESETS)}",
            )
        if self.spec is not None:
            from ..sim.faults import FaultSpec

            known = {f.name for f in dataclasses.fields(FaultSpec)}
            unknown = set(self.spec) - known
            _require(
                not unknown,
                f"unknown fault spec field(s): {sorted(unknown)}",
            )
            object.__setattr__(self, "spec", dict(self.spec))
        _check_opt_int("faults.seed", self.seed, 0)

    @property
    def enabled(self) -> bool:
        return self.preset is not None or self.spec is not None

    def build(self, default_seed: int) -> Optional[Any]:
        """The live :class:`~repro.sim.faults.FaultPlan` (or ``None``)."""
        if not self.enabled:
            return None
        from ..sim.faults import FAULT_PRESETS, FaultSpec

        base = FAULT_PRESETS[self.preset] if self.preset is not None else FaultSpec()
        if self.spec:
            base = dataclasses.replace(base, **dict(self.spec))
        from ..sim.faults import FaultPlan

        return FaultPlan(
            seed=self.seed if self.seed is not None else default_seed, spec=base
        )


@dataclass(frozen=True)
class ObsCfg:
    """Telemetry switch (observation never moves virtual time)."""

    #: collect counters/gauges/histograms into a registry
    metrics: bool = False

    def __post_init__(self) -> None:
        _check_bool(self, "obs", "metrics")

    def build(self) -> Optional[Any]:
        """A counters-only :class:`~repro.obs.Observer`, or ``None`` when
        ``metrics`` is off (the runner then skips observation entirely).
        Spans are recorded only by an observer passed to the runner."""
        if not self.metrics:
            return None
        from ..obs.observer import Observer
        from ..obs.recorder import NullRecorder

        return Observer(recorder=NullRecorder())


@dataclass(frozen=True)
class HarnessCfg:
    """Measurement-methodology knobs (§V-A)."""

    iterations: int = 5
    warmup: int = 1
    #: byte-exactness check of every delivered buffer (forced off when
    #: the data plane is off)
    verify: bool = True
    #: move real bytes (False prices operations without NumPy copies)
    data_plane: bool = True
    #: seeds the payload RNG and, by default, fault draws
    seed: int = 42

    def __post_init__(self) -> None:
        _check_int("harness.iterations", self.iterations, 1)
        _check_int("harness.warmup", self.warmup, 0)
        _check_bool(self, "harness", "verify", "data_plane")
        _check_int("harness.seed", self.seed, 0)


# -- the root ------------------------------------------------------------------

_NESTED: Dict[type, Dict[str, type]] = {}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully described (DESIGN §7 invariant).

    Equal canonical hashes ⇒ byte-identical artifacts: the simulation is
    deterministic, and every knob any layer reads lives in this tree.
    """

    system: SystemCfg = field(default_factory=SystemCfg)
    workload: WorkloadCfg = field(default_factory=WorkloadCfg)
    scheme: SchemeCfg = field(default_factory=SchemeCfg)
    protocol: ProtocolCfg = field(default_factory=ProtocolCfg)
    faults: FaultsCfg = field(default_factory=FaultsCfg)
    obs: ObsCfg = field(default_factory=ObsCfg)
    harness: HarnessCfg = field(default_factory=HarnessCfg)

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """The documented defaults (see ``docs/configuration.md``)."""
        return cls()

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form (JSON-safe, mapping fields key-sorted)."""
        return _to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``
        naming the dotted path."""
        return _from_dict(cls, data, path="")

    def canonical_json(self) -> str:
        """Sorted-key, minimal-separator JSON — the hashed form.

        With the data plane off there is nothing to verify, so
        ``harness.verify`` is left out: a dry run has one hash whatever
        that flag says.
        """
        data = self.to_dict()
        if not self.harness.data_plane:
            del data["harness"]["verify"]
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Canonical sha256 content hash of this config.

        Stable across processes and ``PYTHONHASHSEED`` values (built
        from sorted canonical JSON, never from Python ``hash()``), and
        the root of the sweep engine's cache keys.
        """
        digest = hashlib.sha256()
        digest.update(CONFIG_SCHEMA.encode())
        digest.update(b"\0")
        digest.update(self.canonical_json().encode())
        return digest.hexdigest()

    # -- overrides ---------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "ExperimentConfig":
        """A new config with dotted-path overrides applied.

        ``cfg.with_overrides({"scheme.options.threshold_bytes": 1 << 19})``
        — every path must name an existing field (free-form mapping
        fields ``scheme.options.*`` and ``faults.spec.*`` accept new
        keys); the result re-validates from scratch.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            _apply_override(data, path, value)
        return type(self).from_dict(data)

    def diff(self, other: "ExperimentConfig") -> Dict[str, Tuple[Any, Any]]:
        """Dotted path → ``(self_value, other_value)`` for every leaf
        where the two configs disagree."""
        return config_diff(self.to_dict(), other.to_dict())


_NESTED[ExperimentConfig] = {
    "system": SystemCfg,
    "workload": WorkloadCfg,
    "scheme": SchemeCfg,
    "protocol": ProtocolCfg,
    "faults": FaultsCfg,
    "obs": ObsCfg,
    "harness": HarnessCfg,
}

#: dotted prefixes whose children are free-form mapping keys, not fields
_FREEFORM_PATHS = ("scheme.options", "faults.spec")


def _to_dict(obj: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            out[f.name] = _to_dict(value)
        elif isinstance(value, Mapping):
            out[f.name] = {k: value[k] for k in sorted(value)}
        else:
            out[f.name] = value
    return out


def _from_dict(cls: type, data: Mapping[str, Any], path: str) -> Any:
    if not isinstance(data, Mapping):
        where = path or "config"
        raise ValueError(f"{where} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        shown = ", ".join(f"{path}{k}" for k in unknown)
        raise ValueError(f"unknown config key(s): {shown}")
    nested = _NESTED.get(cls, {})
    kwargs: Dict[str, Any] = {}
    for name in known:
        if name not in data:
            continue
        value = data[name]
        if name in nested:
            value = _from_dict(nested[name], value, path=f"{path}{name}.")
        kwargs[name] = value
    return cls(**kwargs)


def _apply_override(data: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    if not all(parts):
        raise ValueError(f"malformed override path {path!r}")
    node: Dict[str, Any] = data
    for depth, part in enumerate(parts[:-1]):
        if part not in node or not isinstance(node[part], dict):
            prefix = ".".join(parts[: depth + 1])
            raise ValueError(f"unknown config path {prefix!r} in override {path!r}")
        node = node[part]
    leaf = parts[-1]
    parent = ".".join(parts[:-1])
    if leaf not in node and parent not in _FREEFORM_PATHS:
        raise ValueError(f"unknown config path {path!r}")
    if isinstance(node.get(leaf), dict) and not isinstance(value, Mapping):
        raise ValueError(
            f"override {path!r} targets a config section; set its leaves "
            f"(e.g. {path}.<field>) or pass a mapping"
        )
    node[leaf] = value


def config_diff(
    a: Mapping[str, Any], b: Mapping[str, Any], prefix: str = ""
) -> Dict[str, Tuple[Any, Any]]:
    """Dotted path → ``(a_value, b_value)`` over two nested dicts."""
    out: Dict[str, Tuple[Any, Any]] = {}
    for key in sorted(set(a) | set(b)):
        path = f"{prefix}{key}"
        in_a, in_b = key in a, key in b
        va, vb = a.get(key), b.get(key)
        if isinstance(va, Mapping) and isinstance(vb, Mapping):
            out.update(config_diff(va, vb, prefix=f"{path}."))
        elif not in_a or not in_b or va != vb:
            out[path] = (va if in_a else None, vb if in_b else None)
    return out
