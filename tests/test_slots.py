"""Regression guard: the hot per-event/per-request classes stay slotted.

PR 4 removed ``__dict__`` from every object the sweep hot path
allocates; an innocent refactor that drops ``__slots__`` (or adds an
unslotted subclass attribute) silently reverts the memory and
allocation wins.  Instantiating each class and asserting it has no
``__dict__`` catches that — a slotted class whose ancestors are all
slotted produces instances without one.
"""

import pytest

from repro.core.request_list import CircularRequestList, FusionRequest
from repro.datatypes.layout import DataLayout
from repro.gpu.kernels import OpKind
from repro.gpu.memory import GPUBuffer
from repro.gpu.stream import CudaEvent, ExecutionEngine, Stream
from repro.net.link import Link, LinkSpec
from repro.sim.engine import AllOf, AnyOf, CompletionWatch, Event, Process, Simulator, Timeout
from repro.sim.resources import Resource


def _instances():
    sim = Simulator()
    layout = DataLayout([0], [64])
    buf = GPUBuffer(64)
    op = type("Op", (), {})  # stand-in KernelOp payload for the ring
    op.nbytes = 64
    op.kind = OpKind.PACK
    ring = CircularRequestList(sim, capacity=4)
    request = ring.enqueue(op)

    def gen():
        yield sim.timeout(1.0)

    return [
        sim.event(),
        sim.timeout(1.0),
        sim.process(gen()),
        AllOf(sim, []),
        AnyOf(sim, []),
        CompletionWatch(sim, []),
        Resource(sim),
        Link(sim, LinkSpec("l", bandwidth=1e9, latency=1e-6)),
        ExecutionEngine(),
        Stream(sim),
        CudaEvent(sim),
        buf,
        layout,
        ring,
        request,
    ]


@pytest.mark.parametrize(
    "obj", _instances(), ids=lambda o: type(o).__name__
)
def test_hot_class_has_no_dict(obj):
    assert not hasattr(obj, "__dict__"), (
        f"{type(obj).__name__} grew a __dict__ — __slots__ was dropped "
        "somewhere in its hierarchy (see docs/performance.md)"
    )


def test_slotted_classes_reject_adhoc_attributes():
    sim = Simulator()
    with pytest.raises(AttributeError):
        sim.timeout(1.0).no_such_attribute = 1
    with pytest.raises(AttributeError):
        Resource(sim).no_such_attribute = 1


EXPECTED_SLOTTED = [
    Event, Timeout, Process, AllOf, AnyOf, CompletionWatch,
    Resource,
    Link, ExecutionEngine, Stream, CudaEvent,
    GPUBuffer, DataLayout, CircularRequestList, FusionRequest,
]


@pytest.mark.parametrize("cls", EXPECTED_SLOTTED, ids=lambda c: c.__name__)
def test_class_declares_slots(cls):
    assert "__slots__" in cls.__dict__, f"{cls.__name__} lost its __slots__"
