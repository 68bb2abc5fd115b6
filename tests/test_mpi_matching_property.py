"""Property-based tests of the matching engine against a reference.

Random interleavings of posted receives and arriving envelopes (with
wildcards) must match exactly like a straightforward oracle that
replays the same sequence with naive list scans — and must preserve
MPI's ordering rules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import DataLayout
from repro.gpu import GPUBuffer
from repro.mpi import ANY_SOURCE, ANY_TAG, MatchingEngine, MessageRecord
from repro.mpi.request import RecvRequest
from repro.sim import Simulator

NBYTES = 16

# An action is ("post", source, tag) or ("arrive", source, tag); tags and
# sources are drawn tiny so collisions (and wildcard hits) are common.
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["post", "arrive"]),
        st.integers(0, 2),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=40,
)
WILDCARDS = st.lists(st.booleans(), min_size=40, max_size=40)


class Oracle:
    """Reference matcher: naive lists, first-match-in-order."""

    def __init__(self):
        self.posted = []  # (id, source, tag)
        self.unexpected = []  # (id, source, tag)
        self.pairs = []  # (recv_id, msg_id)
        self._next = iter(range(10_000))

    @staticmethod
    def _ok(rsrc, rtag, msrc, mtag):
        return (rsrc in (ANY_SOURCE, msrc)) and (rtag in (ANY_TAG, mtag))

    def post(self, source, tag):
        rid = next(self._next)
        for i, (mid, msrc, mtag) in enumerate(self.unexpected):
            if self._ok(source, tag, msrc, mtag):
                del self.unexpected[i]
                self.pairs.append((rid, mid))
                return rid
        self.posted.append((rid, source, tag))
        return rid

    def arrive(self, mid, source, tag):
        for i, (rid, rsrc, rtag) in enumerate(self.posted):
            if self._ok(rsrc, rtag, source, tag):
                del self.posted[i]
                self.pairs.append((rid, mid))
                return
        self.unexpected.append((mid, source, tag))


@settings(max_examples=120, deadline=None)
@given(ACTIONS, WILDCARDS, WILDCARDS)
def test_matching_agrees_with_oracle(actions, src_wild, tag_wild):
    sim = Simulator()
    engine = MatchingEngine(0)
    oracle = Oracle()
    req_ids = {}
    msg_seq = iter(range(10_000))
    real_pairs = []

    for k, (kind, source, tag) in enumerate(actions):
        if kind == "post":
            use_src = ANY_SOURCE if src_wild[k] else source
            use_tag = ANY_TAG if tag_wild[k] else tag
            rreq = RecvRequest(
                sim, 0, use_src, use_tag,
                DataLayout.contiguous(NBYTES), GPUBuffer(NBYTES),
            )
            rid = oracle.post(use_src, use_tag)
            req_ids[id(rreq)] = rid
            result = engine.post_receive(rreq)
            if result is not None:
                real_pairs.append(
                    (req_ids[id(result.request)], result.record.seq)
                )
        else:
            mid = next(msg_seq)
            record = MessageRecord(
                seq=mid, source=source, dest=0, tag=tag,
                nbytes=NBYTES, protocol="eager", sim=sim,
            )
            oracle.arrive(mid, source, tag)
            result = engine.deliver_envelope(record)
            if result is not None:
                real_pairs.append(
                    (req_ids[id(result.request)], result.record.seq)
                )

    assert real_pairs == oracle.pairs
    assert len(engine._posted) == len(oracle.posted)
    assert len(engine._unexpected) == len(oracle.unexpected)
