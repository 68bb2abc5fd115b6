"""Time-breakdown accounting (reproduces the cost taxonomy of Fig. 11).

The paper decomposes the end-to-end cost of a bulk non-contiguous
transfer into five buckets:

1. ``PACK``   — time spent inside packing/unpacking GPU kernels (or CPU
   copy loops for the hybrid scheme),
2. ``LAUNCH`` — GPU kernel-launch driver overhead,
3. ``SCHED``  — scheduling work: ``cudaEventRecord``-style bookkeeping
   for GPU-Async, enqueue/dequeue of fusion requests for the proposed
   scheme,
4. ``SYNC``   — CPU<->GPU synchronization (``cudaStreamSynchronize``,
   ``cudaEventQuery`` polling, or the fusion scheduler's flag polling),
5. ``COMM``   — *observed* communication time, i.e. wire time that was
   not hidden behind packing/unpacking.

Schemes charge time to buckets explicitly through a :class:`Trace`
carried by the benchmark harness; the harness prints per-bucket totals
in the same shape as the paper's stacked bars.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Category", "Span", "Trace"]


class Category(str, enum.Enum):
    """The five cost buckets of Fig. 11 (plus a catch-all)."""

    PACK = "pack"
    LAUNCH = "launch"
    SCHED = "sched"
    SYNC = "sync"
    COMM = "comm"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Span:
    """A single charged interval.

    ``start``/``end`` are simulation times in seconds; ``label`` is a
    free-form tag (e.g. the workload buffer index) used by tests.
    """

    category: Category
    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")


@dataclass
class Trace:
    """Accumulator of charged :class:`Span` intervals.

    A fresh trace is attached per benchmark iteration; totals are read
    through :meth:`total` / :meth:`breakdown`.
    """

    spans: List[Span] = field(default_factory=list)

    def charge(
        self,
        category: Category,
        start: float,
        end: float,
        label: str = "",
    ) -> None:
        """Record a charged interval ``[start, end]`` in ``category``."""
        self.spans.append(Span(category, start, end, label))

    def total(self, category: Optional[Category] = None) -> float:
        """Sum of charged durations, optionally restricted to a category."""
        if category is None:
            return sum(s.duration for s in self.spans)
        return sum(s.duration for s in self.spans if s.category is category)

    def breakdown(self) -> Dict[Category, float]:
        """Per-category totals for every category (zeros included)."""
        out = {cat: 0.0 for cat in Category}
        for span in self.spans:
            out[span.category] += span.duration
        return out

    def iter_category(self, category: Category) -> Iterator[Span]:
        """Iterate spans of one category in charge order."""
        return (s for s in self.spans if s.category is category)

    def clear(self) -> None:
        """Drop all recorded spans."""
        self.spans.clear()
