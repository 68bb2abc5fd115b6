"""Tests for the progress loop behind ``Rank.waitall``, the one
blocking wait every send, receive and collective completes through."""

from collections import Counter

import pytest

from repro.core import KernelFusionScheme, framework
from repro.datatypes import DOUBLE, DataLayout, Vector
from repro.mpi import Runtime, communicator
from repro.mpi.request import Request
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.schemes import base as schemes_base
from repro.sim import CompletionWatch, Event, Simulator, Trace, us


def _bulk_exchange(monkeypatch, scheme, nbuf=16):
    """Rank 0 isends ``nbuf`` rendezvous-sized vectors to rank 1; both
    waitall.  Returns the requests per rank and, per rank, the simulated
    time (µs) at which each waitall iteration began its flush, and the
    poll ticks the progress loop's completion watches skipped as idle."""
    watches = []

    def recording_watch(sim, pending):
        watch = CompletionWatch(sim, pending)
        watches.append((sim.active_process, watch))
        return watch

    monkeypatch.setattr(communicator, "CompletionWatch", recording_watch)
    sim = Simulator()
    rt = Runtime(sim, Cluster(sim, LASSEN, nodes=2), SCHEME_REGISTRY[scheme])
    dt = Vector(64, 32, 64, DOUBLE).commit()  # 16 KiB: above the eager limit
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    reqs = {0: [], 1: []}
    wakes = {0: [], 1: []}
    for rank in (r0, r1):
        def flush(inner=rank.scheme.flush, log=wakes[rank.rank_id]):
            log.append(round(sim.now * 1e6, 6))
            return inner()

        rank.scheme.flush = flush

    def sender():
        for i in range(nbuf):
            req = yield from r0.isend(r0.device.alloc(hi), dt, 1, dest=1, tag=i)
            reqs[0].append(req)
        yield from r0.waitall(reqs[0])

    def receiver():
        reqs[1].extend(
            r1.irecv(r1.device.alloc(hi), dt, 1, source=0, tag=i) for i in range(nbuf)
        )
        yield from r1.waitall(reqs[1])

    procs = {sim.process(sender()): 0, sim.process(receiver()): 1}
    sim.run(sim.all_of(procs))
    skipped = {0: [], 1: []}
    for proc, watch in watches:
        skipped[procs[proc]] += [round(t * 1e6, 6) for t in watch.skipped_ticks()]
    return reqs, wakes, skipped


def test_waitall_subscribes_and_reads_each_request_once(monkeypatch):
    """O(N) bookkeeping per waitall, however many poll wakes it takes."""
    reads = Counter()
    subscribed = Counter()
    done = Request.done
    add_callback = Event.add_callback

    def counting_done(req):
        reads[req.req_id] += 1
        return done.fget(req)

    def counting_add_callback(ev, callback):
        if ev.name.endswith(":done"):
            subscribed[ev.name] += 1
        add_callback(ev, callback)

    monkeypatch.setattr(Request, "done", property(counting_done))
    monkeypatch.setattr(Event, "add_callback", counting_add_callback)
    nbuf = 16
    reqs, wakes, skipped = _bulk_exchange(monkeypatch, "GPU-Async", nbuf)
    for rank in (0, 1):
        assert all(r.done for r in reqs[rank])
    # Many more poll ticks than requests, woken or skipped as idle.
    assert len(wakes[1]) + len(skipped[1]) > 2 * nbuf
    all_reqs = reqs[0] + reqs[1]
    # One read by waitall each, plus the one in the assertion above.
    assert [reads[r.req_id] for r in all_reqs] == [2] * len(all_reqs)
    # Every receive is still pending at the first poll: one callback
    # each.  Sends already done by then are never subscribed.
    assert [subscribed[r.completion.name] for r in reqs[1]] == [1] * nbuf
    assert max(subscribed[r.completion.name] for r in reqs[0]) == 1


def test_gpu_async_exchange_wake_times_are_unchanged(monkeypatch):
    """Per-iteration wake times of both waitalls, as recorded with the
    per-poll ``AnyOf`` progress loop the completion watch replaced.
    Polls skipped as idle count at the tick they would have woken on."""
    _, polls, skipped = _bulk_exchange(monkeypatch, "GPU-Async")
    assert skipped[1]  # the receiver idles until the first message arrives
    wakes = {rank: sorted(polls[rank] + skipped[rank]) for rank in (0, 1)}
    assert wakes[0] == [266.356, 267.356, 268.356, 269.356, 270.356, 271.356, 271.61136]
    assert wakes[1] == [
        0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
        13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0, 22.0, 23.0,
        24.0, 40.06736, 56.66736, 73.26736, 89.86736, 106.46736, 123.06736,
        139.66736, 156.26736, 172.86736, 189.46736, 206.06736, 222.66736,
        239.26736, 255.86736, 272.46736, 289.06736, 290.26736,
    ]


class _TimedTick:
    """Scheme stand-in whose progress tick holds the CPU for ``cost``."""

    def __init__(self, sim, cost):
        self.sim = sim
        self.cost = cost
        self.ticks = []

    def flush(self):
        return
        yield

    def quiescent(self):
        return False  # every tick costs time

    def progress_tick(self):
        self.ticks.append(round(self.sim.now * 1e6, 6))
        yield self.sim.timeout(self.cost)


class _Req:
    """Minimal request: what the progress loop reads."""

    def __init__(self, sim, at):
        self.completion = sim.timeout(at)

    @property
    def done(self):
        return self.completion.processed


def _wait_with_tick(tick_us, complete_at_us):
    """waitall over requests completing at ``complete_at_us`` on a rank
    whose progress tick costs ``tick_us`` (poll interval: 1 µs).
    Returns the iteration start times and the return time (µs)."""
    sim = Simulator()
    rt = Runtime(sim, Cluster(sim, LASSEN, nodes=2), SCHEME_REGISTRY["GPU-Sync"])
    rank = rt.rank(0)
    rank.scheme = scheme = _TimedTick(sim, tick_us * 1e-6)
    reqs = [_Req(sim, t * 1e-6) for t in complete_at_us]
    sim.run(sim.process(rank.waitall(reqs)))
    return scheme.ticks, round(sim.now * 1e6, 6)


def test_one_poll_constant_drives_waitall_and_fusion_discovery(monkeypatch):
    """The progress engine has one poll period: patching it moves both
    the waitall wake spacing and the fusion scheme's discovery delay."""
    monkeypatch.setattr(schemes_base, "POLL_INTERVAL", us(3.0))
    # 0.5 µs ticks, each followed by a 3 µs sleep, until the request
    # lands at 10 µs and wakes the last iteration early.
    ticks, end = _wait_with_tick(0.5, [10.0])
    assert ticks == [0.0, 3.5, 7.0, 10.0]
    assert end == 10.5

    sim = Simulator()
    site = Cluster(sim, LASSEN, nodes=1).site(0)
    scheme = KernelFusionScheme(site, Trace(sim))
    dev = site.device
    op = dev.pack_op(dev.alloc(96), DataLayout([0, 64], [16, 16]), dev.alloc(32))
    seen = {}

    def proc():
        handle = yield from scheme.submit(op)
        request = scheme.scheduler.request_list.lookup(handle.uid)
        request.done_event.add_callback(lambda _ev: seen.setdefault("done", sim.now))
        yield from scheme.scheduler.flush()
        yield handle.done_event
        seen["visible"] = sim.now

    sim.run(sim.process(proc()))
    # Half a poll period plus one response-flag read after completion.
    assert seen["visible"] - seen["done"] == pytest.approx(
        0.5 * us(3.0) + framework.FLAG_POLL_COST
    )


def test_completion_during_tick_causes_no_extra_wake():
    # Polls at 0, 3, 6 (2 µs tick + 1 µs sleep).  The first request
    # lands at 4, inside the second tick: it is counted, but wakes
    # nothing — the third iteration still starts on its timer at 6.
    # The second lands at 7.5, inside the third tick, so the loop
    # returns when that tick ends without sleeping again.
    ticks, end = _wait_with_tick(2.0, [4.0, 7.5])
    assert ticks == [0.0, 3.0, 6.0]
    assert end == 8.0


def test_stale_poll_timer_never_wakes_a_later_sleep():
    # Iteration 1 sleeps at 0.2 with its timer due at 1.2, but the first
    # request wakes it at 0.5.  Iteration 2 sleeps at 0.7 (timer at
    # 1.7): the old 1.2 timer must not cut that sleep short.
    ticks, end = _wait_with_tick(0.2, [0.5, 5.0])
    assert ticks == [0.0, 0.5, 1.7, 2.9, 4.1, 5.0]
    assert end == 5.2
