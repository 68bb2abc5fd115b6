"""Property-based stress tests of the kernel-fusion framework.

The DESIGN.md invariant: *fusion never loses or duplicates a request* —
under arbitrary interleavings of submissions, threshold launches,
flushes, and fallbacks, every submitted operation's bytes land exactly
once and every handle completes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelFusionScheme
from repro.datatypes import DataLayout
from repro.net import Cluster, LASSEN
from repro.sim import Simulator, Trace, us


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(6, 14),          # log2 of op size
            st.sampled_from([0, 1, 2]),  # gap before submit, in µs
            st.booleans(),               # flush after this op?
        ),
        min_size=1,
        max_size=24,
    ),
    threshold_kib=st.sampled_from([1, 8, 64, 1024]),
    capacity=st.sampled_from([2, 4, 256]),
)
def test_fusion_never_loses_or_duplicates(ops, threshold_kib, capacity):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1)
    site = cluster.site(0)
    scheme = KernelFusionScheme(
        site,
        Trace(sim),
        threshold_bytes=threshold_kib * 1024,
        capacity=capacity,
    )
    dev = site.device
    # Fill value k+1 marks op k; a second apply would be detected by
    # the write counter below.
    applied = {"count": 0}
    triples = []
    for k, (log_size, _gap, _flush) in enumerate(ops):
        nbytes = 1 << log_size
        lay = DataLayout([0, nbytes], [nbytes // 2, nbytes // 2])
        src = dev.alloc(2 * nbytes, fill=(k % 250) + 1)
        dst = dev.alloc(lay.size)
        op = dev.pack_op(src, lay, dst)
        original_apply = op.apply

        def counted(original=original_apply):
            applied["count"] += 1
            original()

        op.apply = counted
        triples.append((op, src, dst, lay, (k % 250) + 1))

    handles = []

    def driver():
        for (op, *_rest), (_s, gap, do_flush) in zip(triples, ops):
            if gap:
                yield sim.timeout(us(gap))
            handle = yield from scheme.submit(op)
            handles.append(handle)
            if do_flush:
                yield from scheme.flush()
        yield from scheme.wait(handles)

    sim.run(sim.process(driver()))

    # Every handle completed; every op applied exactly once; bytes land.
    assert all(h.done for h in handles)
    assert applied["count"] == len(triples)
    for op, _src, dst, lay, mark in triples:
        assert (dst.data[: lay.size] == mark).all()

    # Bookkeeping is consistent: fused + fallback == submitted.
    stats = scheme.scheduler.stats
    assert stats.fused_requests + scheme.fallback_count == len(triples)
    assert scheme.scheduler.pending_count == 0
