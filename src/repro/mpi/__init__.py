"""MPI-like runtime: ranks, matching, protocols, progress."""

from .collectives import allreduce
from .communicator import Rank, Runtime
from .matching import ANY_SOURCE, ANY_TAG, MatchingEngine, MessageRecord
from .protocols import DIRECT, EAGER, RGET, RPUT
from .request import RecvRequest, Request, SendRequest

__all__ = [
    "Runtime",
    "Rank",
    "allreduce",
    "Request",
    "SendRequest",
    "RecvRequest",
    "MatchingEngine",
    "MessageRecord",
    "ANY_SOURCE",
    "ANY_TAG",
    "EAGER",
    "RGET",
    "RPUT",
    "DIRECT",
]
