"""Interconnect and cluster substrate.

Link cost models, the Table II system configurations (Lassen, ABCI),
cluster topology wiring ranks to GPUs and links, and the RDMA transfer
helpers the MPI protocols build on.
"""

from .link import Link, LinkSpec
from .systems import ABCI, LASSEN, SYSTEMS, SystemConfig
from .topology import Cluster, RankSite
from .transfer import rdma_read, rdma_write

__all__ = [
    "Link",
    "LinkSpec",
    "SystemConfig",
    "LASSEN",
    "ABCI",
    "SYSTEMS",
    "Cluster",
    "RankSite",
    "rdma_write",
    "rdma_read",
]
