"""repro.obs.recorder — event stream and Chrome-trace round trip."""

import json

import pytest

from repro.obs import NullRecorder, Recorder


def _sample() -> Recorder:
    rec = Recorder()
    rec.span("fusion", "queued", 1e-6, 3e-6, track="rank0", uid=7)
    rec.span("link", "transfer", 2e-6, 9e-6, track="ib0", nbytes=4096)
    rec.instant("proto", "rts", 2.5e-6, track="rank0", msg=0)
    rec.span("fusion", "queued", 4e-6, 5e-6, track="rank0", uid=8)
    return rec


def test_span_rejects_negative_duration():
    rec = Recorder()
    with pytest.raises(ValueError):
        rec.span("x", "bad", 2.0, 1.0)


def test_tracks_first_appearance_order():
    assert _sample().tracks() == ["rank0", "ib0"]


def test_chrome_trace_round_trip(tmp_path):
    rec = _sample()
    path = tmp_path / "trace.json"
    count = rec.export_chrome_trace(str(path))
    assert count == 4
    doc = json.loads(path.read_text())  # valid JSON by construction
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(spans) == 3 and len(instants) == 1
    # timestamps are microseconds and non-decreasing across the payload
    payload = [e for e in events if e["ph"] in ("X", "i")]
    ts = [e["ts"] for e in payload]
    assert ts == sorted(ts)
    assert payload[0]["ts"] == pytest.approx(1.0)  # 1e-6 s -> 1 us
    # every payload event references a named process/thread
    named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
    assert {e["pid"] for e in payload} <= named_pids
    # args survive
    assert any(e.get("args", {}).get("uid") == 7 for e in spans)


def test_clear_empties_stream():
    rec = _sample()
    rec.clear()
    assert len(rec) == 0
    assert rec.tracks() == []


def test_null_recorder_is_a_no_op():
    rec = NullRecorder()
    rec.span("x", "s", 0.0, 1.0)
    rec.instant("x", "i", 0.5)
    assert len(rec) == 0
    assert rec.enabled is False
