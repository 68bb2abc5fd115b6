"""Datatype base class and commit semantics.

A :class:`Datatype` mirrors an MPI datatype handle: it has a *size*
(payload bytes per instance), an *extent* (stride between consecutive
instances), a structural *signature* (its equality and hash, and so the
layout-cache key, per the caching scheme of Chu et al. [24]), and can be
*flattened* into a :class:`~repro.datatypes.layout.DataLayout`.

Like MPI, a type must be committed before use in communication; in this
reproduction :meth:`Datatype.commit` is where the single-instance
flattening happens.  Each rank then keeps the layouts it communicates
with in its own :class:`~repro.datatypes.cache.LayoutCache`, so that
per-message datatype handling is a cache lookup rather than a tree walk
— the exact property the paper's framework assumes ("retrieves the
cached data layout", Section IV-B1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Optional, Tuple

from .layout import DataLayout

__all__ = ["Datatype", "DatatypeError"]


class DatatypeError(ValueError):
    """Raised for invalid datatype construction or misuse."""


class Datatype(ABC):
    """Abstract MPI-like datatype.

    Subclasses implement :meth:`_flatten` (one instance, displacements
    relative to the instance base address) and :meth:`signature`.
    """

    __slots__ = ("_committed", "_flat", "_hash")

    def __init__(self) -> None:
        self._committed = False
        self._flat: Optional[DataLayout] = None
        #: memoised ``hash(signature())``; valid because a type's
        #: structure is immutable once constructed
        self._hash: Optional[int] = None

    # -- metrics -------------------------------------------------------------
    @property
    @abstractmethod
    def size(self) -> int:
        """Payload bytes in one instance of the type."""

    @property
    @abstractmethod
    def extent(self) -> int:
        """Stride in bytes between consecutive instances."""

    @abstractmethod
    def signature(self) -> Tuple[Hashable, ...]:
        """Hashable structural identity (a type's equality and hash)."""

    @abstractmethod
    def _flatten(self) -> DataLayout:
        """Compute the flattened layout of a single instance."""

    # -- commit / flatten ------------------------------------------------------
    @property
    def committed(self) -> bool:
        """Whether :meth:`commit` has been called."""
        return self._committed

    def commit(self) -> "Datatype":
        """Flatten the type.

        Idempotent, returns ``self`` for chaining — mirrors
        ``MPI_Type_commit``.
        """
        if self._flat is None:
            self._flat = self._flatten()
        self._committed = True
        return self

    def flatten(self) -> DataLayout:
        """The flattened single-instance layout (commits on demand)."""
        if self._flat is None:
            self.commit()
        assert self._flat is not None
        return self._flat

    def layout(self, count: int = 1) -> DataLayout:
        """Flattened layout of ``count`` consecutive instances."""
        if count < 0:
            raise DatatypeError(f"count must be non-negative, got {count}")
        return self.flatten().replicate(count)

    # -- identity ----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datatype):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        # Signatures of indexed types are O(blocks) to build and hash;
        # per-message layout lookups key on the type itself, so pay
        # that once per type rather than once per message.
        h = self._hash
        if h is None:
            h = self._hash = hash(self.signature())
        return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} size={self.size} extent={self.extent}"
            f"{' committed' if self._committed else ''}>"
        )

