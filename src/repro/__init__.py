"""repro — reproduction of "Dynamic Kernel Fusion for Bulk Non-contiguous
Data Transfer on GPU Clusters" (Chu et al., IEEE CLUSTER 2020).

A pure-Python implementation of the paper's dynamic kernel-fusion
framework and every substrate it needs, built on a discrete-event
GPU-cluster simulator with a byte-exact NumPy data plane:

* :mod:`repro.sim`       — discrete-event simulation kernel
* :mod:`repro.datatypes` — MPI derived-datatype engine + layout cache
* :mod:`repro.gpu`       — simulated GPUs: cost model, streams, memory
* :mod:`repro.net`       — interconnects and the Lassen/ABCI systems
* :mod:`repro.mpi`       — MPI-like runtime (isend/irecv, protocols)
* :mod:`repro.schemes`   — baseline datatype-processing schemes
* :mod:`repro.core`      — the proposed dynamic kernel-fusion framework
* :mod:`repro.workloads` — ddtbench-style application layouts
* :mod:`repro.bench`     — experiment runner + reporting

Quickstart::

    from repro import quick_compare
    print(quick_compare())
"""

from . import bench, core, datatypes, gpu, mpi, net, schemes, sim, workloads
from .bench import ExperimentResult, run_bulk_exchange
from .core import FusionPolicy, KernelFusionScheme
from .mpi import Rank, Runtime
from .net import ABCI, LASSEN, Cluster
from .schemes import SCHEME_REGISTRY
from .sim import Simulator
from .workloads import WORKLOADS

__version__ = "1.0.0"

__all__ = [
    "sim",
    "datatypes",
    "gpu",
    "net",
    "mpi",
    "schemes",
    "core",
    "workloads",
    "bench",
    "Simulator",
    "Cluster",
    "Runtime",
    "Rank",
    "LASSEN",
    "ABCI",
    "SCHEME_REGISTRY",
    "WORKLOADS",
    "KernelFusionScheme",
    "FusionPolicy",
    "run_bulk_exchange",
    "ExperimentResult",
    "quick_compare",
    "__version__",
]


def quick_compare(workload: str = "specfem3D_cm", dim: int = 2000, nbuffers: int = 16) -> str:
    """Run every scheme on one workload and return a latency table."""
    from .bench import format_latency_table
    from .config import ExperimentConfig

    base = ExperimentConfig().with_overrides(
        {
            "workload.name": workload,
            "workload.dim": dim,
            "workload.nbuffers": nbuffers,
            "harness.iterations": 3,
        }
    )
    results = {
        name: {dim: run_bulk_exchange(base.with_overrides({"scheme.name": name}))}
        for name in SCHEME_REGISTRY
    }
    return format_latency_table(
        results,
        title=f"{workload} (dim={dim}, {nbuffers} buffers) on Lassen",
        baseline="GPU-Sync",
    )
