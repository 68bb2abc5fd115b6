"""ASCII timeline rendering of cost spans (developer tooling).

Turns the Fig.-11 cost spans of a recorded event stream (the
:class:`~repro.obs.recorder.ObsEvent` spans that
:meth:`~repro.sim.trace.Trace.charge` records) into a per-category
Gantt-style text chart, so scheme behaviour is inspectable without a
profiler:

    pack   |  ####      ##### |
    launch |##   ###          |
    comm   |      ============|

Used by ``repro timeline`` and handy when calibrating cost models; rendering
is deterministic so it is also asserted in tests.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..obs.recorder import ObsEvent
from .trace import Category

__all__ = ["render_timeline"]

_GLYPH = {
    Category.PACK: "#",
    Category.LAUNCH: "L",
    Category.SCHED: "s",
    Category.SYNC: "y",
    Category.COMM: "=",
    Category.OTHER: ".",
}


def render_timeline(
    events: Iterable[ObsEvent],
    *,
    width: int = 72,
    start: Optional[float] = None,
    end: Optional[float] = None,
    categories: Optional[Iterable[Category]] = None,
) -> str:
    """Render the cost spans among ``events`` as one text row per category.

    Events outside the Fig.-11 buckets (fusion, protocol, link, ...)
    and instants are skipped.  ``start``/``end`` default to the span
    extremes; spans shorter than a character cell still paint one
    glyph (so µs-scale costs remain visible on ms-scale charts).
    """
    if width < 8:
        raise ValueError(f"width must be >= 8, got {width}")
    # Category is a str enum, so a bucket's name finds its glyph.
    spans = [e for e in events if e.category in _GLYPH and not e.instant]
    if not spans:
        return "(empty trace)"
    lo = min(s.ts for s in spans) if start is None else start
    hi = max(s.end for s in spans) if end is None else end
    if hi <= lo:
        hi = lo + 1e-9
    scale = width / (hi - lo)
    cats = list(categories) if categories is not None else [
        c for c in Category if any(s.category == c for s in spans)
    ]
    label_w = max(len(c.value) for c in cats) + 1

    rows = []
    for cat in cats:
        cells = [" "] * width
        for span in (s for s in spans if s.category == cat):
            a = max(0, min(width - 1, int((span.ts - lo) * scale)))
            b = max(a, min(width - 1, int((span.end - lo) * scale - 1e-12)))
            for i in range(a, b + 1):
                cells[i] = _GLYPH[cat]
        rows.append(f"{cat.value:<{label_w}}|{''.join(cells)}|")
    header = (
        f"{'':<{label_w}} {lo * 1e6:.1f}us"
        f"{'':>{max(1, width - 16)}}{hi * 1e6:.1f}us"
    )
    return "\n".join([header] + rows)
