"""Extension — local datatype-processing microbenchmark (ddtbench-style).

ddtbench [32] measures pure pack/unpack performance without any
communication; this bench does the same for every workload layout and
scheme: 16 pack operations submitted back-to-back on one device, timed
from first submit to last completion.  It reports effective packing
throughput (payload GB/s including all per-operation overheads) — the
"Throughput" column of Table I, quantified.

Expected shape: all GPU schemes achieve similar *kernel* throughput,
but per-operation overheads divide the effective number — fusion keeps
the most; the hybrid CPU path tops out at GDRCopy's few GB/s.
"""

import pytest

from repro.core import KernelFusionScheme
from repro.net import Cluster, LASSEN
from repro.schemes import (
    CPUGPUHybridScheme,
    GPUAsyncScheme,
    GPUSyncScheme,
)
from repro.sim import Simulator, Trace
from repro.workloads import WORKLOADS

N_OPS = 16


def _throughput(scheme_cls, spec):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1, functional=False)
    site = cluster.site(0)
    scheme = scheme_cls(site, Trace(sim))
    lay = spec.datatype.flatten()
    dev = site.device
    src = dev.alloc(spec.buffer_bytes() + 8)
    ops = [dev.pack_op(src, lay, dev.alloc(lay.size)) for _ in range(N_OPS)]

    def driver():
        handles = []
        for op in ops:
            h = yield from scheme.submit(op)
            handles.append(h)
        yield from scheme.flush()
        yield from scheme.wait(handles)

    sim.run(sim.process(driver()))
    total_bytes = N_OPS * lay.size
    return total_bytes / sim.now / 1e9  # GB/s


SCHEMES = {
    "GPU-Sync": GPUSyncScheme,
    "GPU-Async": GPUAsyncScheme,
    "CPU-GPU-Hybrid": CPUGPUHybridScheme,
    "Proposed": KernelFusionScheme,
}


def test_pack_throughput_microbench(report):
    cases = {
        "specfem3D_cm": WORKLOADS["specfem3D_cm"](4000),
        "MILC": WORKLOADS["MILC"](32),
        "NAS_MG": WORKLOADS["NAS_MG"](256),
    }
    table = {}
    header = f"{'scheme':<16}" + "".join(f"{w:>16}" for w in cases)
    lines = [header, "-" * len(header)]
    for name, cls in SCHEMES.items():
        row = {}
        for wl, spec in cases.items():
            row[wl] = _throughput(cls, spec)
        table[name] = row
        lines.append(
            f"{name:<16}" + "".join(f"{row[w]:>12.2f}GB/s" for w in cases)
        )
    report(
        "pack_microbench",
        f"Extension — local packing throughput ({N_OPS} ops, ddtbench-style)\n"
        "===============================================================\n"
        + "\n".join(lines),
    )

    for wl in cases:
        # Fusion keeps the most effective throughput on every layout...
        best = max(table[name][wl] for name in SCHEMES)
        assert table["Proposed"][wl] == pytest.approx(best), wl
        # ...and beats GPU-Sync clearly (launch+sync amortized away).
        assert table["Proposed"][wl] > 1.5 * table["GPU-Sync"][wl], wl

    # The hybrid CPU path caps near GDRCopy bandwidth on its chosen
    # layouts; for these large inputs it uses the GPU path, so it
    # tracks GPU-Sync minus its decision overhead.
    assert table["CPU-GPU-Hybrid"]["MILC"] < table["Proposed"]["MILC"]
