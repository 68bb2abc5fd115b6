"""Unified span/event recorder.

One stream for everything that *happens* during a run: the Fig.-11 cost
buckets, recorded by :meth:`~repro.sim.trace.Trace.charge` at the
moment a scheme charges them, per-request fusion lifecycle spans
(enqueue → fuse → launch → complete), rendezvous RTS instants and
their watchdog retransmissions, and link transfers.  The recorder is
the only place individual spans are kept; nothing copies them in
after the fact.

Events carry a *track* (rendered as a Chrome-trace process row — one
per rank, ``<scheme>/rank<n>``, or per link) and a *category*
(rendered as a thread row).  The one export,
:meth:`Recorder.export_chrome_trace`, writes ``chrome://tracing`` /
Perfetto JSON: spans as complete ('X') events, instants as 'i'.

A :class:`NullRecorder` (the default on every simulator) turns every
recording call into a constant-time no-op: with telemetry disabled the
instrumented hot paths allocate nothing and never touch the event
calendar, so the simulated timeline is bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["ObsEvent", "Recorder", "NullRecorder"]


@dataclass(frozen=True)
class ObsEvent:
    """One recorded occurrence (span or instant), times in seconds."""

    name: str
    category: str
    ts: float
    #: span duration; 0.0 and ``instant=True`` for point events
    dur: float = 0.0
    instant: bool = False
    #: process row in the Chrome export (e.g. "rank0", "Proposed/rank1")
    track: str = ""
    #: free-form context (uid, peer, attempt number, ...)
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def end(self) -> float:
        """End time of the interval (== ``ts`` for instants)."""
        return self.ts + self.dur


class Recorder:
    """Append-only event stream with Chrome-trace export."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []

    # -- recording ---------------------------------------------------------
    def span(
        self,
        category: str,
        name: str,
        start: float,
        end: float,
        track: str = "",
        **args: object,
    ) -> None:
        """Record a completed interval ``[start, end]``."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts: {start}..{end}")
        self.events.append(
            ObsEvent(
                name=name,
                category=category,
                ts=start,
                dur=end - start,
                track=track,
                args=tuple(args.items()),
            )
        )

    def instant(
        self, category: str, name: str, ts: float, track: str = "", **args: object
    ) -> None:
        """Record a point event at time ``ts``."""
        self.events.append(
            ObsEvent(
                name=name,
                category=category,
                ts=ts,
                instant=True,
                track=track,
                args=tuple(args.items()),
            )
        )

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def tracks(self) -> List[str]:
        """Distinct track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    # -- exports -----------------------------------------------------------
    def chrome_trace_events(self) -> List[dict]:
        """Chrome ``traceEvents`` list (times in µs, sorted by ``ts``).

        Tracks map to process rows, categories to thread rows; metadata
        events name both.  'X' and 'i' events are emitted in non-decreasing
        ``ts`` order (asserted by the round-trip tests).
        """
        pids = {track: i for i, track in enumerate(self.tracks())}
        tids: Dict[Tuple[int, str], int] = {}
        out: List[dict] = []
        for track, pid in pids.items():
            out.append(
                {"name": "process_name", "ph": "M", "pid": pid,
                 "args": {"name": track or "events"}}
            )
        for event in self.events:
            pid = pids[event.track]
            tid_key = (pid, event.category)
            if tid_key not in tids:
                tid = sum(1 for (p, _c) in tids if p == pid)
                tids[tid_key] = tid
                out.append(
                    {"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": tid, "args": {"name": event.category}}
                )
        for event in sorted(self.events, key=lambda e: (e.ts, e.dur)):
            pid = pids[event.track]
            record = {
                "name": event.name,
                "cat": event.category,
                "ph": "i" if event.instant else "X",
                "ts": event.ts * 1e6,
                "pid": pid,
                "tid": tids[(pid, event.category)],
            }
            if event.instant:
                record["s"] = "t"  # thread-scoped instant
            else:
                record["dur"] = event.dur * 1e6
            if event.args:
                record["args"] = dict(event.args)
            out.append(record)
        return out

    def export_chrome_trace(self, path: str) -> int:
        """Write a Chrome trace JSON file; returns the event count."""
        events = self.chrome_trace_events()
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
        return sum(1 for e in events if e.get("ph") in ("X", "i"))


class NullRecorder(Recorder):
    """Disabled recorder: every recording call is a constant-time no-op."""

    enabled = False

    def span(self, category, name, start, end, track="", **args) -> None:
        return None

    def instant(self, category, name, ts, track="", **args) -> None:
        return None
