"""Property-based differential test of the packing schemes.

The schemes differ only in *when* and *how* they pack and unpack, never
in *what* arrives: for any derived-datatype exchange, every scheme of
:data:`~repro.schemes.SCHEME_REGISTRY` must complete it under eager,
RPUT and RGET, use the protocol the eager threshold selects, and leave
a receive buffer byte-identical to every other scheme's, holding the
sent bytes where a plain gather/scatter reference puts them.  Every
other receive byte keeps its value, those of the receive layout past a
short message included: MPI modifies only the received bytes.

The drawn exchanges include count 0, a message shorter than its
receive, a contiguous ``BYTE`` receive of a derived send, and an eager
threshold one byte either side of the message size.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ProtocolCfg
from repro.datatypes import BYTE, DOUBLE, INT, Indexed, Vector
from repro.mpi import Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator

PROTOCOLS = ("eager", "rput", "rget")
#: byte every receive buffer starts from, so untouched bytes are checked too
RECV_FILL = 0xEE

BASES = st.sampled_from([BYTE, INT, DOUBLE])


@st.composite
def vectors(draw):
    blocklength = draw(st.integers(1, 3))
    return Vector(
        draw(st.integers(1, 4)),
        blocklength,
        blocklength + draw(st.integers(0, 3)),
        draw(BASES),
    )


@st.composite
def indexeds(draw):
    n = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    displacements, at = [], 0
    for length, gap in zip(lengths, gaps):
        at += gap
        displacements.append(at)
        at += length
    return Indexed(lengths, displacements, draw(BASES))


EXCHANGES = st.fixed_dictionaries(
    {
        "datatype": st.one_of(vectors(), indexeds()),
        "count": st.integers(0, 3),
        # receive the derived type again, or the packed bytes as BYTEs
        "byte_receive": st.booleans(),
        # 1 = a message shorter than its receive
        "extra": st.integers(0, 1),
        "seed": st.integers(0, 2**16),
    }
)


def _span(layout) -> int:
    """Bytes a buffer needs to hold ``layout`` (at least one)."""
    if layout.num_blocks == 0:
        return 1
    return int(layout.offsets[-1] + layout.lengths[-1])


def _exchange(scheme, protocol, ex):
    """One isend/irecv pair; returns (send protocol, receive bytes)."""
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2)
    rendezvous = "rput" if protocol == "eager" else protocol
    rt = Runtime(
        sim, cluster, SCHEME_REGISTRY[scheme], protocol=ProtocolCfg(rendezvous=rendezvous)
    )
    r0, r1 = rt.rank(0), rt.rank(1)
    dt = ex["datatype"].commit()
    send_layout = r0.resolve_layout(dt, ex["count"])
    if ex["byte_receive"]:
        recv_type, recv_count = BYTE, send_layout.size + ex["extra"]
    else:
        recv_type, recv_count = dt, ex["count"] + ex["extra"]
    recv_layout = r1.resolve_layout(recv_type, recv_count)
    # One byte either side of the message size: at it the send goes
    # eager, one below it (-1 for an empty message) it goes rendezvous.
    rt.eager_threshold = send_layout.size - (protocol != "eager")

    sbuf = r0.device.alloc(_span(send_layout))
    sbuf.data[:] = np.random.default_rng(ex["seed"]).integers(
        0, 256, sbuf.nbytes, dtype=np.uint8
    )
    rbuf = r1.device.alloc(_span(recv_layout), fill=RECV_FILL)
    reqs = {}

    def sender():
        reqs["send"] = req = yield from r0.isend(sbuf, dt, ex["count"], dest=1)
        yield from r0.waitall([req])

    def receiver():
        reqs["recv"] = req = r1.irecv(rbuf, recv_type, recv_count, source=0)
        yield from r1.waitall([req])

    sim.run(sim.all_of([sim.process(sender()), sim.process(receiver())]))
    assert reqs["send"].done and reqs["recv"].done, (scheme, protocol)

    # The message lands in the first bytes of the receive layout, and
    # nothing else is touched: not the layout's bytes past the message,
    # not the bytes outside it.
    landed = recv_layout.gather_index()[: send_layout.size]
    sent = sbuf.data[send_layout.gather_index()]
    assert np.array_equal(rbuf.data[landed], sent), (scheme, protocol)
    untouched = np.ones(rbuf.nbytes, dtype=bool)
    untouched[landed] = False
    assert (rbuf.data[untouched] == RECV_FILL).all(), (scheme, protocol)
    return reqs["send"].protocol, rbuf.data.tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(ex=EXCHANGES)
# An empty message into a two-block receive leaves all three bytes.
@example(ex={"datatype": Vector(2, 1, 2, BYTE), "count": 0, "byte_receive": False,
             "extra": 1, "seed": 0})
# Two instances coalesce into three blocks: one instance ends inside the
# middle one.
@example(ex={"datatype": Indexed([1, 1], [0, 2], BYTE), "count": 1, "byte_receive": False,
             "extra": 1, "seed": 1})
def test_every_scheme_delivers_the_same_bytes(ex):
    for protocol in PROTOCOLS:
        outcomes = {
            scheme: _exchange(scheme, protocol, ex) for scheme in SCHEME_REGISTRY
        }
        assert {used for used, _ in outcomes.values()} == {protocol}
        assert len({data for _, data in outcomes.values()}) == 1, protocol
