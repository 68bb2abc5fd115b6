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

Schemes charge time to buckets through their rank's :class:`Trace`,
which keeps the per-bucket totals the harness prints as the paper's
stacked bars; with telemetry on, each charge is also one span on the
event stream (``sim.obs``), the only place spans are kept.
"""

from __future__ import annotations

import enum
from typing import Dict

from .engine import Simulator

__all__ = ["Category", "Trace"]


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


class Trace:
    """One rank's Fig.-11 accumulator: per-category charged totals.

    ``track`` names the rank's row on the event stream (e.g.
    ``"Proposed/rank0"``).  The harness clears the totals when the
    warm-up ends and reads them through :meth:`total` /
    :meth:`breakdown`.
    """

    __slots__ = ("sim", "track", "_totals")

    def __init__(self, sim: Simulator, track: str = "") -> None:
        self.sim = sim
        self.track = track
        self._totals: Dict[Category, float] = dict.fromkeys(Category, 0.0)

    def charge(
        self,
        category: Category,
        start: float,
        end: float,
        label: str = "",
    ) -> None:
        """Charge the interval ``[start, end]`` to ``category``."""
        if end < start:
            raise ValueError(
                f"{category} charge {label!r} ends before it starts: {start}..{end}"
            )
        self._totals[category] += end - start
        obs = self.sim.obs
        if obs.enabled:
            obs.span(
                str(category), label or str(category), start, end, track=self.track
            )

    def total(self, category: Category) -> float:
        """Total charged to ``category``."""
        return self._totals[category]

    def breakdown(self) -> Dict[Category, float]:
        """Per-category totals for every category (zeros included)."""
        return dict(self._totals)

    def clear(self) -> None:
        """Reset every total to zero."""
        self._totals = dict.fromkeys(Category, 0.0)
