"""Cluster topology: nodes, GPUs, and the links between them.

A :class:`Cluster` instantiates one :class:`~repro.gpu.device.GPUDevice`
per MPI rank (the paper's experiments run one rank per GPU) and wires
the Table II links between them:

* ranks on the same node talk over the node's GPU–GPU link (NVLink-2),
* ranks on different nodes talk over per-node-pair inter-node links
  (GPUDirect-RDMA-capable InfiniBand).

The benchmark experiments use the default ``nodes=2, ranks_per_node=1``
— "bulk non-contiguous inter-node data transfer between two GPU nodes"
— but the topology supports other shapes for the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..gpu.device import GPUDevice
from ..sim.engine import Simulator
from .link import Link
from .systems import SystemConfig

__all__ = ["RankSite", "Cluster"]


@dataclass
class RankSite:
    """Where one MPI rank lives: its node and GPU."""

    rank: int
    node: int
    device: GPUDevice


class Cluster:
    """A set of GPU nodes connected per a :class:`SystemConfig`."""

    def __init__(
        self,
        sim: Simulator,
        system: SystemConfig,
        nodes: int = 2,
        ranks_per_node: int = 1,
        functional: bool = True,
    ):
        if nodes < 1 or ranks_per_node < 1:
            raise ValueError("need at least one node and one rank per node")
        if ranks_per_node > system.gpus_per_node:
            raise ValueError(
                f"{system.name} has {system.gpus_per_node} GPUs per node; "
                f"cannot place {ranks_per_node} ranks"
            )
        self.sim = sim
        self.system = system
        self.nodes = nodes
        self.ranks_per_node = ranks_per_node
        #: when False, devices price operations but move no bytes
        self.functional = functional

        self._node_gpu_gpu: List[Link] = [
            Link(sim, system.gpu_gpu, name=f"n{node}:{system.gpu_gpu.name}")
            for node in range(nodes)
        ]
        self.sites: List[RankSite] = [
            RankSite(
                rank=rank,
                node=rank // ranks_per_node,
                device=GPUDevice(
                    sim,
                    arch=system.gpu_arch,
                    name=f"r{rank}:{system.gpu_arch.name}",
                    functional=functional,
                ),
            )
            for rank in range(nodes * ranks_per_node)
        ]
        self._internode: Dict[Tuple[int, int], Link] = {}

    @property
    def size(self) -> int:
        """Total number of ranks."""
        return len(self.sites)

    def site(self, rank: int) -> RankSite:
        """The placement record of ``rank``."""
        return self.sites[rank]

    def device(self, rank: int) -> GPUDevice:
        """The GPU of ``rank``."""
        return self.sites[rank].device

    def same_node(self, a: int, b: int) -> bool:
        """Whether two ranks share a node."""
        return self.sites[a].node == self.sites[b].node

    def data_link(self, src: int, dst: int) -> Tuple[Link, str]:
        """The payload link between two ranks and its direction key.

        Intra-node pairs ride the node's GPU–GPU link; inter-node pairs
        get a dedicated per-node-pair fabric link (dual-rail EDR is
        already folded into the spec's bandwidth).
        """
        if src == dst:
            raise ValueError("no link from a rank to itself")
        a, b = self.sites[src], self.sites[dst]
        if a.node == b.node:
            return self._node_gpu_gpu[a.node], f"{src}->{dst}"
        key = (min(a.node, b.node), max(a.node, b.node))
        link = self._internode.get(key)
        if link is None:
            link = Link(
                self.sim,
                self.system.internode,
                name=f"n{key[0]}-n{key[1]}:{self.system.internode.name}",
            )
            self._internode[key] = link
        return link, f"{src}->{dst}"

    def links(self):
        """Every live link of the cluster (node-local and inter-node).

        Used by the harness to aggregate byte counters and fault
        recovery statistics (retransmits) across the whole fabric.
        """
        yield from self._node_gpu_gpu
        yield from self._internode.values()

    def control_latency(self, src: int, dst: int) -> float:
        """One-way latency of a control packet (RTS/CTS) between ranks."""
        link, _ = self.data_link(src, dst)
        return link.control_delay()
