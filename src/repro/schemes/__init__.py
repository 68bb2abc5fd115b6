"""Datatype-processing schemes: the baselines the paper evaluates.

The proposed design itself lives in :mod:`repro.core`; this package
holds the scheme interface and every competitor, plus a registry used
by the benchmark harness.  :func:`make_scheme_factory` is the single
instantiation path: it consumes a :class:`~repro.config.SchemeCfg`
and validates every override against the scheme's constructor
signature.
"""

import functools
import inspect
from typing import Any, Callable, Dict

from ..config import SchemeCfg
from ..net.topology import RankSite
from ..sim.trace import Trace
from .base import OpHandle, PackingScheme, SchemeCapabilities
from .gpu_async import GPUAsyncScheme
from .gpu_sync import GPUSyncScheme
from .hybrid import CPUGPUHybridScheme
from .mvapich_adaptive import MVAPICHAdaptiveScheme
from .naive import NaiveCopyScheme

__all__ = [
    "PackingScheme",
    "OpHandle",
    "SchemeCapabilities",
    "GPUSyncScheme",
    "GPUAsyncScheme",
    "CPUGPUHybridScheme",
    "MVAPICHAdaptiveScheme",
    "NaiveCopyScheme",
    "SCHEME_REGISTRY",
    "make_scheme_factory",
]


def _spectrum_factory(site: RankSite, trace: Trace) -> PackingScheme:
    return NaiveCopyScheme(site, trace, per_copy_factor=1.0, name="SpectrumMPI")


def _openmpi_factory(site: RankSite, trace: Trace) -> PackingScheme:
    return NaiveCopyScheme(site, trace, per_copy_factor=0.85, name="OpenMPI")


def _proposed_factory(site: RankSite, trace: Trace, **options: Any) -> PackingScheme:
    # Imported at call time: ``repro.core`` builds on this package.
    from ..core.framework import KernelFusionScheme

    return KernelFusionScheme(site, trace, **options)


#: name -> factory(site, trace) for every evaluated scheme.
SCHEME_REGISTRY: Dict[str, Callable[[RankSite, Trace], PackingScheme]] = {
    "GPU-Sync": GPUSyncScheme,
    "GPU-Async": GPUAsyncScheme,
    "CPU-GPU-Hybrid": CPUGPUHybridScheme,
    "MVAPICH2-GDR": MVAPICHAdaptiveScheme,
    "SpectrumMPI": _spectrum_factory,
    "OpenMPI": _openmpi_factory,
    "Proposed": _proposed_factory,
}


#: alias factories take no constructor overrides
_ALIASED = (_spectrum_factory, _openmpi_factory)


def _validate_scheme_kwargs(name: str, ctor: Callable, kwargs: Dict[str, Any]) -> None:
    """Reject keyword overrides the scheme's constructor cannot accept.

    Validated eagerly (at factory-build time, not first call), naming
    the bad key and the scheme.  ``Proposed``'s keys are checked
    against :class:`~repro.core.framework.KernelFusionScheme`, not
    against the forwarding wrapper that builds it.
    """
    if not kwargs:
        return
    if ctor in _ALIASED:
        raise ValueError(f"overrides not supported for aliased scheme {name!r}")
    if ctor is _proposed_factory:
        from ..core.framework import KernelFusionScheme

        ctor = KernelFusionScheme
    params = inspect.signature(ctor).parameters
    accepted = {
        pname
        for pname, p in params.items()
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        and pname not in ("site", "trace")
    }
    for key in kwargs:
        if key not in accepted:
            raise ValueError(
                f"unknown option {key!r} for scheme {name!r} "
                f"(accepted: {sorted(accepted)})"
            )


def make_scheme_factory(cfg: SchemeCfg) -> Callable[[RankSite, Trace], PackingScheme]:
    """The single scheme-instantiation path: ``factory(site, trace)``.

    The registry entry for ``cfg.name`` with ``cfg.options`` bound as
    constructor keywords; options on ``Proposed`` name a fusion variant
    (threshold, launch policy, ring capacity, grid, linger, display
    name).  Unknown scheme names raise ``KeyError``; unknown options
    raise ``ValueError`` naming the bad key and the scheme.
    """
    if cfg.name not in SCHEME_REGISTRY:
        raise KeyError(
            f"scheme {cfg.name!r} is not in the registry — cannot build its factory"
        )
    base = SCHEME_REGISTRY[cfg.name]
    options = dict(cfg.options)
    _validate_scheme_kwargs(cfg.name, base, options)
    if not options:
        return base
    return functools.partial(base, **options)
