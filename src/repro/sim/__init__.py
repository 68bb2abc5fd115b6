"""Discrete-event simulation substrate.

Everything timed in the reproduction — GPU streams, network links, MPI
progress engines, the fusion scheduler — runs on this small SimPy-style
kernel.  See :mod:`repro.sim.engine` for the execution model.
"""

from .engine import (
    AllOf,
    AnyOf,
    CompletionWatch,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    fastpath_enabled,
    ms,
    ns,
    set_fastpath,
    us,
)
from .resources import Channel, Resource, Store
from .chrometrace import chrome_trace_events, export_chrome_trace
from .faults import FAULT_PRESETS, FaultError, FaultPlan, FaultSpec, FaultStats
from .noise import NoiseModel
from .timeline import render_timeline
from .trace import Category, Span, Trace

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "CompletionWatch",
    "Interrupt",
    "SimulationError",
    "fastpath_enabled",
    "set_fastpath",
    "Resource",
    "Store",
    "Channel",
    "Category",
    "Span",
    "Trace",
    "render_timeline",
    "chrome_trace_events",
    "NoiseModel",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "FaultError",
    "FAULT_PRESETS",
    "export_chrome_trace",
    "us",
    "ns",
    "ms",
]
