"""System configurations: the Table II machines.

Encodes the two evaluation platforms exactly as the paper's Table II
describes them:

========================  ======================  =====================
Spec                      LLNL Lassen             ABCI
========================  ======================  =====================
CPU                       2× POWER9, 44 c/socket  2× Xeon 6148, 20 c/s
GPU                       4× Tesla V100 16 GB     4× Tesla V100 16 GB
CPU–GPU interconnect      NVLink-2, 75 GB/s       PCIe Gen3, 32 GB/s
GPU–GPU interconnect      NVLink-2, 75 GB/s       NVLink-2, 50 GB/s
Inter-node                2× IB EDR, 25 GB/s      2× IB EDR, 25 GB/s
========================  ======================  =====================

The CPU–GPU link speed is the key architectural difference the paper
calls out: ABCI's slower PCIe widens the overlap window (GPU-Async can
beat GPU-Sync there, Fig. 13c/d) and amplifies the proposed design's
advantage (19× vs 8× on sparse layouts).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.archs import GPUArchitecture, TESLA_V100, TESLA_V100_PCIE
from ..sim.engine import us
from .link import LinkSpec

__all__ = ["SystemConfig", "LASSEN", "ABCI", "SYSTEMS"]

GB = 1e9


@dataclass(frozen=True)
class SystemConfig:
    """One evaluation platform (a Table II column)."""

    name: str
    gpu_arch: GPUArchitecture
    gpus_per_node: int
    #: CPU <-> GPU link (NVLink-2 on Lassen, PCIe Gen3 on ABCI)
    cpu_gpu: LinkSpec
    #: GPU <-> GPU peer link within a node
    gpu_gpu: LinkSpec
    #: inter-node fabric (per-rank effective, GPUDirect-RDMA capable)
    internode: LinkSpec
    #: per-message software overhead of posting a network operation, s
    net_post_overhead: float = us(0.7)
    #: eager/rendezvous switch-over point of the MPI runtime, bytes
    eager_threshold: int = 8192

    def describe(self) -> str:
        """One-line summary used by benchmark headers."""
        return (
            f"{self.name}: {self.gpus_per_node}x {self.gpu_arch.name}, "
            f"CPU-GPU {self.cpu_gpu.bandwidth / GB:.0f} GB/s, "
            f"GPU-GPU {self.gpu_gpu.bandwidth / GB:.0f} GB/s, "
            f"inter-node {self.internode.bandwidth / GB:.0f} GB/s"
        )


#: LLNL Lassen — POWER9 + V100, NVLink-2 everywhere, dual-rail IB EDR.
LASSEN = SystemConfig(
    name="Lassen",
    gpu_arch=TESLA_V100,
    gpus_per_node=4,
    cpu_gpu=LinkSpec("NVLink-2 (CPU-GPU)", bandwidth=75 * GB, latency=us(1.0)),
    gpu_gpu=LinkSpec("NVLink-2 (GPU-GPU)", bandwidth=75 * GB, latency=us(1.0)),
    internode=LinkSpec("2x IB EDR", bandwidth=25 * GB, latency=us(1.3)),
)

#: ABCI — Xeon + V100, PCIe Gen3 to the CPU, NVLink-2 between GPUs.
#:
#: The inter-node spec is nominally the same dual-rail EDR as Lassen,
#: but GPUDirect RDMA must traverse the PCIe switches to reach GPU
#: memory, so the *effective* GPU-to-GPU inter-node path is slower and
#: longer-latency than on Lassen's NVLink-attached POWER9 — the paper's
#: explanation for why overlap matters more on ABCI (§V-C).
ABCI = SystemConfig(
    name="ABCI",
    gpu_arch=TESLA_V100_PCIE,
    gpus_per_node=4,
    cpu_gpu=LinkSpec("PCIe Gen3 x16", bandwidth=32 * GB, latency=us(1.8)),
    gpu_gpu=LinkSpec("NVLink-2 (GPU-GPU)", bandwidth=50 * GB, latency=us(1.0)),
    internode=LinkSpec("2x IB EDR via PCIe", bandwidth=12 * GB, latency=us(2.5)),
    # The PCIe path adds per-message cost on the host side as well.
    net_post_overhead=us(0.9),
)

#: Name → config registry.
SYSTEMS = {s.name: s for s in (LASSEN, ABCI)}
