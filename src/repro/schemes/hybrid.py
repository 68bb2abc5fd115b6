"""CPU-GPU-Hybrid: the adaptive GDRCopy baseline (Chu et al. [24]).

The HiPC'19 design this paper compares against keeps the datatype
layout cache and *adaptively* picks, per operation:

* a **CPU-driven** path for small/dense layouts — the host CPU
  load-stores GPU memory directly through a GDRCopy BAR mapping.  It
  moves data at only a few GB/s and pays a per-block loop cost, but it
  has **zero GPU driver overhead** (no launch, no synchronize), which
  makes it unbeatable for small dense transfers (Fig. 10, Fig. 12c);
* the **GPU-Sync** kernel path otherwise (large or very sparse
  layouts), inheriting that scheme's per-operation launch+sync costs.

The crossover mirrors [24]: CPU path while the per-byte and per-block
host costs stay below the fixed GPU driver cost, kernels beyond.  The
scheme requires the GDRCopy kernel module (Table I's footnote — "may
not be available in all HPC systems"); construct with
``system.has_gdrcopy`` to model machines without it.
"""

from __future__ import annotations

from ..gpu.kernels import KernelOp
from ..net.topology import RankSite
from ..sim.engine import Event, us
from ..sim.trace import Category, Trace
from .base import PackingScheme, SchemeCapabilities, SchemeGen
from .gpu_sync import GPUSyncScheme

__all__ = ["CPUGPUHybridScheme"]


class CPUGPUHybridScheme(PackingScheme):
    """Adaptive host-driven (GDRCopy) / GPU-Sync datatype processing."""

    name = "CPU-GPU-Hybrid"
    capabilities = SchemeCapabilities(
        layout_cache=True,
        driver_overhead="medium",
        latency="low",
        overlap="high",
        requires_gdrcopy=True,
    )

    def __init__(
        self,
        site: RankSite,
        trace: Trace | None = None,
        *,
        cpu_path_max_bytes: int = 32 * 1024,
        cpu_path_max_blocks: int = 256,
        gdrcopy_available: bool = True,
        software_overhead: float = us(0.8),
    ):
        super().__init__(site, trace)
        self.cpu_path_max_bytes = cpu_path_max_bytes
        self.cpu_path_max_blocks = cpu_path_max_blocks
        self.gdrcopy_available = gdrcopy_available
        #: per-operation adaptive-decision + cache bookkeeping; the
        #: MVAPICH2-GDR model raises this to full production-stack cost
        self.software_overhead = software_overhead
        self.fallback = GPUSyncScheme(site, self.trace)
        #: decision counters reported by the ablation benchmarks
        self.cpu_path_count = 0
        self.gpu_path_count = 0

    def _use_cpu_path(self, op: KernelOp) -> bool:
        if not self.gdrcopy_available:
            return False
        return (
            op.nbytes <= self.cpu_path_max_bytes
            and op.num_blocks <= self.cpu_path_max_blocks
        )

    def host_copy_time(self, op: KernelOp) -> float:
        """Cost of the GDRCopy host loop for one operation."""
        arch = self.site.device.arch
        return (
            op.num_blocks * arch.host_block_cost
            + op.nbytes / arch.host_mapped_bandwidth
        )

    def submit(self, op: KernelOp, label: str = "") -> SchemeGen:
        if self.software_overhead > 0:
            yield from self._charge(Category.SCHED, self.software_overhead, label)
        if self._use_cpu_path(op):
            self.cpu_path_count += 1
            # Host-driven copy: pure CPU time, no GPU driver involvement.
            yield from self._charge(Category.PACK, self.host_copy_time(op), label)
            op.apply()
            done = Event(self.sim, name=f"hybrid:{label}")
            done.succeed()
            # Zero-delay events still need one calendar step to process;
            # mark by waiting on it so the handle reads as done.
            yield done
            return self._handle(op, done, label=label)
        self.gpu_path_count += 1
        handle = yield from self.fallback.submit(op, label=label)
        return handle

    def wait(self, handles) -> SchemeGen:
        """Both paths complete inside :meth:`submit`."""
        return
        yield  # pragma: no cover - generator marker
