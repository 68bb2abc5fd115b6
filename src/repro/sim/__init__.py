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
    Process,
    SimulationError,
    Simulator,
    Timeout,
    ms,
    ns,
    us,
)
from .resources import Resource
from .faults import FAULT_PRESETS, FaultError, FaultPlan, FaultSpec, FaultStats
from .timeline import render_timeline
from .trace import Category, Trace

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "CompletionWatch",
    "SimulationError",
    "Resource",
    "Category",
    "Trace",
    "render_timeline",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "FaultError",
    "FAULT_PRESETS",
    "us",
    "ns",
    "ms",
]
