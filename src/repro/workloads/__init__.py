"""Workload generators: the application kernels of §V-A.

ddtbench-derived datatype layouts (specfem3D_oc/_cm, MILC, NAS_MG) and
Comb-style multi-dimensional halo-exchange schedules.
"""

from .base import WORKLOADS, WorkloadSpec, register_workload
from .halo import HaloNeighbor, HaloSchedule, halo_2d, halo_3d
from .milc import milc_su3_zdown
from .nas_mg import nas_mg_face
from .specfem3d import boundary_displacements, specfem3d_cm, specfem3d_oc

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "register_workload",
    "specfem3d_oc",
    "specfem3d_cm",
    "boundary_displacements",
    "milc_su3_zdown",
    "nas_mg_face",
    "HaloSchedule",
    "HaloNeighbor",
    "halo_2d",
    "halo_3d",
]
