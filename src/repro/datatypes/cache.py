"""Per-rank datatype layout store (the "Layout Cache" column of Table I).

Chu et al. [24] showed that extracting an MPI derived datatype's layout
on every message is a significant cost and introduced a cache keyed by
the committed type; the kernel-fusion framework of this paper *assumes*
that cache ("the sender process first retrieves the cached data
layout", Section IV-B1).  :class:`LayoutCache` is that cache and each
rank's only layout store.  Entries are keyed by ``(datatype, count)``
and hold the flattened layout of ``count`` instances together with
whether its flatten cost has been charged, so the hit/miss statistics
are exactly the cost model's: a hit is a timed resolution that paid
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Tuple

from .layout import DataLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Datatype

__all__ = ["LayoutCache", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`LayoutCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LayoutCache:
    """Layouts of one rank, keyed by ``(datatype, count)``.

    Keys hash by the type itself: a type memoises the hash of its
    signature and equal-signature types compare equal, so structurally
    identical handles share one entry.  Each entry is ``(layout,
    charged)``; only :meth:`insert` marks it charged.
    """

    def __init__(self) -> None:
        self._entries: Dict[Hashable, Tuple[DataLayout, bool]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def layout(self, datatype: "Datatype", count: int = 1) -> DataLayout:
        """Layout of ``count`` instances, flattened on first use.

        Free and uncounted: the host-side store behind both the timed
        and the untimed resolution paths.
        """
        key = (datatype, count)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (datatype.flatten().replicate(count), False)
        return entry[0]

    def lookup(self, key: Hashable) -> Optional[DataLayout]:
        """The layout for ``key`` if its flatten cost has been charged,
        else ``None``; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None or not entry[1]:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry[0]

    def insert(self, key: Hashable, layout: DataLayout) -> None:
        """Keep ``layout`` for ``key`` as charged: later lookups hit."""
        self._entries[key] = (layout, True)

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        self._entries.clear()
