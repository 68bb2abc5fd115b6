"""``repro.config`` — the unified experiment-config plane.

One canonical, validated, hashable :class:`ExperimentConfig` describes
every experiment; see :mod:`repro.config.tree` for the contracts and
``docs/configuration.md`` for the field catalog.
"""

from .tree import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    FaultsCfg,
    HarnessCfg,
    ObsCfg,
    ProtocolCfg,
    SchemeCfg,
    SystemCfg,
    WorkloadCfg,
    config_diff,
)

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
