"""Tests for datatype envelopes and tree rendering."""

import pytest

from repro.datatypes import (
    DOUBLE,
    FLOAT,
    Contiguous,
    HIndexed,
    Hvector,
    Indexed,
    IndexedBlock,
    Resized,
    Struct,
    Subarray,
    Vector,
    describe,
    envelope,
)


def test_envelope_named():
    combiner, args = envelope(DOUBLE)
    assert combiner == "named"
    assert args == {"name": "double", "size": 8}


def test_envelope_every_combiner():
    cases = [
        (Contiguous(3, DOUBLE), "contiguous"),
        (Vector(2, 1, 3, DOUBLE), "vector"),
        (Hvector(2, 1, 24, DOUBLE), "hvector"),
        (Indexed([1, 2], [0, 5], FLOAT), "indexed"),
        (HIndexed([1], [0], FLOAT), "hindexed"),
        (IndexedBlock(2, [0, 8], FLOAT), "indexed_block"),
        (Struct([1], [0], [DOUBLE]), "struct"),
        (Subarray((4, 4), (2, 2), (1, 1), DOUBLE), "subarray"),
        (Resized(DOUBLE, 0, 16), "resized"),
    ]
    for dt, expected in cases:
        combiner, args = envelope(dt)
        assert combiner == expected, dt
        assert "base" in args or "types" in args or combiner == "named"


def test_envelope_contents_roundtrip_vector():
    v = Vector(3, 2, 5, DOUBLE)
    combiner, args = envelope(v)
    rebuilt = Vector(args["count"], args["blocklength"], args["stride"], args["base"])
    assert rebuilt == v


def test_envelope_rejects_unknown():
    with pytest.raises(TypeError):
        envelope(object())  # type: ignore[arg-type]


def test_describe_vector_tree():
    text = describe(Vector(3, 2, 5, DOUBLE))
    assert "vector(count=3, blocklength=2, stride=5)" in text
    assert "double" in text
    assert "flattened: 3 blocks" in text
    assert "size=48B" in text


def test_describe_nested_struct():
    inner = Indexed([1, 1], [0, 4], FLOAT)
    st = Struct([1, 2], [0, 64], [inner, DOUBLE])
    text = describe(st)
    assert "struct(" in text
    assert "indexed(" in text
    assert "float" in text and "double" in text
    # Tree connectors present for multiple children.
    assert "├─" in text and "└─" in text


def test_describe_long_lists_elided():
    dt = Indexed([1] * 50, list(range(0, 150, 3)), FLOAT)
    text = describe(dt)
    assert "x50]" in text


def test_describe_workload_types():
    from repro.workloads import WORKLOADS

    for name in ("specfem3D_cm", "MILC", "NAS_MG"):
        text = describe(WORKLOADS[name](16 if name != "specfem3D_cm" else 100).datatype)
        assert "flattened:" in text
