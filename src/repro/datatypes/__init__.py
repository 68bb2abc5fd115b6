"""MPI derived-datatype engine.

Constructors, flattening ("flattening on the fly"), layout caching, and
the byte-exact reference pack/unpack that every scheme's data plane
funnels through.
"""

from .base import Datatype, DatatypeError
from .cache import CacheStats, LayoutCache
from .constructors import (
    Contiguous,
    HIndexed,
    Hvector,
    Indexed,
    IndexedBlock,
    Resized,
    Struct,
    Subarray,
    Vector,
)
from .introspect import describe, envelope
from .layout import DataLayout, coalesce_blocks
from .pack import as_byte_view, pack_bytes, unpack_bytes
from .primitives import (
    BYTE,
    CHAR,
    COMPLEX,
    DOUBLE,
    DOUBLE_COMPLEX,
    FLOAT,
    INT,
    LONG,
    PREDEFINED,
    SHORT,
    Primitive,
)

__all__ = [
    "Datatype",
    "DatatypeError",
    "DataLayout",
    "coalesce_blocks",
    "describe",
    "envelope",
    "LayoutCache",
    "CacheStats",
    "Primitive",
    "Contiguous",
    "Vector",
    "Hvector",
    "Indexed",
    "HIndexed",
    "IndexedBlock",
    "Struct",
    "Subarray",
    "Resized",
    "pack_bytes",
    "unpack_bytes",
    "as_byte_view",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "COMPLEX",
    "DOUBLE_COMPLEX",
    "PREDEFINED",
]
