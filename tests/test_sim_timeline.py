"""Tests for the ASCII timeline renderer."""

import pytest

from repro.sim import Category, Trace, render_timeline


def _trace():
    t = Trace()
    t.charge(Category.LAUNCH, 0.0, 10e-6)
    t.charge(Category.PACK, 10e-6, 30e-6)
    t.charge(Category.COMM, 30e-6, 100e-6)
    return t


def test_empty_trace():
    assert render_timeline(Trace()) == "(empty trace)"


def test_rows_per_present_category():
    text = render_timeline(_trace(), width=50)
    lines = text.splitlines()
    assert len(lines) == 4  # header + 3 categories
    assert lines[1].startswith("pack") or "pack" in text
    assert "launch" in text and "comm" in text
    assert "sync" not in text  # absent category omitted


def test_glyph_placement_proportional():
    text = render_timeline(_trace(), width=100)
    comm_row = next(ln for ln in text.splitlines() if ln.startswith("comm"))
    body = comm_row.split("|")[1]
    # COMM covers [30us, 100us] of a 100us window: ~70% of the width,
    # starting around cell 30.
    assert body[:25].strip() == ""
    assert body.count("=") >= 60


def test_tiny_span_still_visible():
    t = Trace()
    t.charge(Category.SYNC, 0.0, 1e-9)
    t.charge(Category.COMM, 0.0, 1e-3)
    text = render_timeline(t, width=40)
    sync_row = next(ln for ln in text.splitlines() if ln.startswith("sync"))
    assert "y" in sync_row


def test_explicit_window_and_categories():
    text = render_timeline(
        _trace(), width=40, start=0.0, end=200e-6, categories=[Category.PACK]
    )
    assert "pack" in text and "comm" not in text


def test_width_validation():
    with pytest.raises(ValueError):
        render_timeline(_trace(), width=4)


def test_header_shows_bounds():
    text = render_timeline(_trace(), width=40)
    header = text.splitlines()[0]
    assert "0.0us" in header and "100.0us" in header


# -- Chrome trace export (through the recorder) --------------------------------


def _recorder(**traces):
    from repro.obs import Recorder

    rec = Recorder()
    for track, trace in traces.items():
        rec.absorb_trace(track, trace)
    return rec


def test_chrome_trace_events_structure():
    events = _recorder(rank0=_trace()).chrome_trace_events()
    span_events = [e for e in events if e.get("ph") == "X"]
    assert len(span_events) == 3
    launch = next(e for e in span_events if e["cat"] == "launch")
    assert launch["ts"] == pytest.approx(0.0)
    assert launch["dur"] == pytest.approx(10.0)  # µs
    # Metadata rows name the process and the category lanes.
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["args"]["name"] == "rank0" for e in meta)
    assert {e["args"]["name"] for e in meta if e["name"] == "thread_name"} == {
        "launch", "pack", "comm",
    }


def test_export_chrome_trace_file(tmp_path):
    import json

    path = tmp_path / "t.json"
    count = _recorder(trace=_trace()).export_chrome_trace(str(path))
    assert count == 3
    loaded = json.loads(path.read_text())
    assert "traceEvents" in loaded
    assert len([e for e in loaded["traceEvents"] if e.get("ph") == "X"]) == 3


def test_export_multiple_ranks(tmp_path):
    rec = _recorder(r0=_trace(), r1=_trace())
    assert rec.tracks() == ["r0", "r1"]
    count = rec.export_chrome_trace(str(tmp_path / "two.json"))
    assert count == 6
    spans = [e for e in rec.chrome_trace_events() if e.get("ph") == "X"]
    assert sorted(
        sum(1 for e in spans if e["pid"] == pid) for pid in (0, 1)
    ) == [3, 3]
