"""Unit tests for MPI message matching."""

import pytest

from repro.datatypes import DataLayout
from repro.gpu import GPUBuffer
from repro.mpi import ANY_SOURCE, ANY_TAG, MatchingEngine, MessageRecord
from repro.mpi.request import RecvRequest
from repro.sim import Simulator


def _rreq(sim, source=0, tag=0, nbytes=64):
    return RecvRequest(
        sim, 1, source, tag, DataLayout.contiguous(nbytes), GPUBuffer(nbytes)
    )


def _record(sim, seq=0, source=0, tag=0, nbytes=64):
    return MessageRecord(
        seq=seq, source=source, dest=1, tag=tag, nbytes=nbytes,
        protocol="eager", sim=sim,
    )


def test_posted_receive_matches_envelope():
    sim = Simulator()
    eng = MatchingEngine(1)
    rreq = _rreq(sim)
    assert eng.post_receive(rreq) is None
    result = eng.deliver_envelope(_record(sim))
    assert result is not None and result.expected
    assert result.request is rreq
    assert not eng._posted


def test_unexpected_message_queued_then_matched():
    sim = Simulator()
    eng = MatchingEngine(1)
    rec = _record(sim)
    assert eng.deliver_envelope(rec) is None
    assert len(eng._unexpected) == 1
    result = eng.post_receive(_rreq(sim))
    assert result is not None and not result.expected
    assert result.record is rec
    assert not eng._unexpected


def test_tag_mismatch_does_not_match():
    sim = Simulator()
    eng = MatchingEngine(1)
    eng.post_receive(_rreq(sim, tag=5))
    assert eng.deliver_envelope(_record(sim, tag=7)) is None
    assert len(eng._posted) == 1 and len(eng._unexpected) == 1


def test_source_mismatch_does_not_match():
    sim = Simulator()
    eng = MatchingEngine(1)
    eng.post_receive(_rreq(sim, source=3))
    assert eng.deliver_envelope(_record(sim, source=2)) is None


def test_wildcard_source_and_tag():
    sim = Simulator()
    eng = MatchingEngine(1)
    eng.post_receive(_rreq(sim, source=ANY_SOURCE, tag=ANY_TAG))
    assert eng.deliver_envelope(_record(sim, source=7, tag=42)) is not None


def test_fifo_matching_order():
    """Oldest posted receive wins (non-overtaking)."""
    sim = Simulator()
    eng = MatchingEngine(1)
    r1, r2 = _rreq(sim), _rreq(sim)
    eng.post_receive(r1)
    eng.post_receive(r2)
    assert eng.deliver_envelope(_record(sim, seq=0)).request is r1
    assert eng.deliver_envelope(_record(sim, seq=1)).request is r2


def test_fifo_unexpected_order():
    sim = Simulator()
    eng = MatchingEngine(1)
    a, b = _record(sim, seq=0), _record(sim, seq=1)
    eng.deliver_envelope(a)
    eng.deliver_envelope(b)
    assert eng.post_receive(_rreq(sim)).record is a
    assert eng.post_receive(_rreq(sim)).record is b


def test_truncation_rejected():
    sim = Simulator()
    eng = MatchingEngine(1)
    eng.post_receive(_rreq(sim, nbytes=32))
    with pytest.raises(ValueError, match="truncated"):
        eng.deliver_envelope(_record(sim, nbytes=64))


def test_unexpected_peak_tracked():
    sim = Simulator()
    eng = MatchingEngine(1)
    for i in range(5):
        eng.deliver_envelope(_record(sim, seq=i, tag=i))
    assert eng.unexpected_peak == 5


def test_match_log_records_history():
    sim = Simulator()
    eng = MatchingEngine(1)
    eng.post_receive(_rreq(sim))
    eng.deliver_envelope(_record(sim))
    assert len(eng.match_log) == 1
