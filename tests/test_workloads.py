"""Unit tests for the workload generators."""

import numpy as np
import pytest

from repro.datatypes import DOUBLE
from repro.workloads import (
    WORKLOADS,
    boundary_displacements,
    halo_2d,
    halo_3d,
    milc_su3_zdown,
    nas_mg_face,
    specfem3d_cm,
    specfem3d_oc,
)


def test_registry_has_core_four():
    """Exactly the paper's four evaluated workloads are registered."""
    assert {"specfem3D_oc", "specfem3D_cm", "MILC", "NAS_MG"} == set(WORKLOADS)


# -- specfem (sparse) ----------------------------------------------------------


def test_specfem_oc_is_sparse_tiny_blocks():
    spec = specfem3d_oc(2000)
    assert spec.layout_class == "sparse"
    lay = spec.datatype.flatten()
    assert lay.num_blocks > 1000  # "thousands of small blocks"
    assert lay.mean_block == pytest.approx(4.0)  # single floats
    assert spec.message_bytes == 2000 * 4


def test_specfem_cm_struct_on_indexed():
    spec = specfem3d_cm(1000)
    lay = spec.datatype.flatten()
    assert spec.layout_class == "sparse"
    assert lay.num_blocks > 2000  # 3 components x ~1000 blocks
    assert lay.mean_block < 16
    assert spec.message_bytes == 3 * 1000 * 12


def test_specfem_deterministic_given_seed():
    a = specfem3d_oc(500).datatype.flatten()
    b = specfem3d_oc(500).datatype.flatten()
    assert a == b


def test_boundary_displacements_non_adjacent():
    disp = boundary_displacements(1000, 4000)
    assert len(disp) == 1000
    assert np.all(np.diff(disp) >= 1)
    assert disp[-1] < 4000


def test_boundary_displacements_validation():
    with pytest.raises(ValueError):
        boundary_displacements(0, 100)
    with pytest.raises(ValueError):
        boundary_displacements(100, 150)


# -- MILC / NAS (dense) ---------------------------------------------------------------


def test_milc_dense_nested_vector():
    spec = milc_su3_zdown(16)
    lay = spec.datatype.flatten()
    assert spec.layout_class == "dense"
    assert lay.num_blocks == 16 * 16  # L^2 runs
    assert lay.mean_block == pytest.approx(24 * 16)  # 24 B/site x L
    assert spec.message_bytes == 24 * 16 ** 3


def test_milc_validation():
    with pytest.raises(ValueError):
        milc_su3_zdown(1)


def test_nas_mg_vector_face():
    spec = nas_mg_face(64)
    lay = spec.datatype.flatten()
    assert spec.layout_class == "dense"
    assert lay.num_blocks == 64
    assert lay.mean_block == pytest.approx(64 * 8)
    assert spec.message_bytes == 64 * 64 * 8


def test_nas_validation():
    with pytest.raises(ValueError):
        nas_mg_face(1)


def test_sparse_vs_dense_block_taxonomy():
    """The paper's classification: sparse has far more, far smaller
    blocks than dense at comparable message size."""
    sparse = specfem3d_cm(2000)  # ~70 KB
    dense = milc_su3_zdown(14)  # ~66 KB
    s_lay = sparse.datatype.flatten()
    d_lay = dense.datatype.flatten()
    assert s_lay.num_blocks > 10 * d_lay.num_blocks
    assert s_lay.mean_block < d_lay.mean_block / 10


def test_spec_helpers():
    spec = nas_mg_face(32)
    assert spec.num_blocks == 32
    assert spec.buffer_bytes() >= spec.message_bytes
    assert "NAS_MG" in spec.summary()


# -- halo schedules --------------------------------------------------------------------


def test_halo_2d_four_neighbors():
    sched = halo_2d((16, 16))
    assert len(sched.neighbors) == 4
    dirs = {n.direction for n in sched.neighbors}
    assert dirs == {(-1, 0), (1, 0), (0, -1), (0, 1)}


def test_halo_2d_corners():
    assert len(halo_2d((8, 8), corners=True).neighbors) == 8


def test_halo_3d_neighbor_counts():
    assert len(halo_3d((8, 8, 8), corners=False).neighbors) == 6
    assert len(halo_3d((8, 8, 8), corners=True).neighbors) == 26


def test_halo_send_recv_sizes_match():
    sched = halo_3d((8, 8, 8))
    for n in sched.neighbors:
        assert n.send_type.size == n.recv_type.size == n.nbytes


def test_halo_face_bigger_than_corner():
    sched = halo_3d((8, 8, 8))
    sizes = {n.direction: n.nbytes for n in sched.neighbors}
    assert sizes[(1, 0, 0)] == 8 * 8 * 8  # face: 64 doubles
    assert sizes[(1, 1, 1)] == 8  # corner: 1 double


def test_halo_regions_well_formed():
    """Recv ghost regions are pairwise disjoint (each ghost cell has
    exactly one producer); send regions live in the interior, recv
    regions in the ghost shell, so the two never overlap.  (Send
    regions of different directions legitimately share corner cells —
    the same interior value goes to face, edge, and corner neighbors.)
    """
    sched = halo_2d((6, 6), corners=True)
    n_side = 6 + 2  # interior + ghost
    ghost = sched.ghost

    def is_interior(byte_idx):
        elem = byte_idx // 8
        i, j = divmod(elem, n_side)
        return ghost <= i < n_side - ghost and ghost <= j < n_side - ghost

    recv_bytes = set()
    for n in sched.neighbors:
        s = set(n.send_type.flatten().gather_index().tolist())
        r = set(n.recv_type.flatten().gather_index().tolist())
        assert all(is_interior(b) for b in s)
        assert not any(is_interior(b) for b in r)
        assert not (recv_bytes & r)
        recv_bytes |= r


def test_halo_symmetric_exchange_consistency():
    """A neighbor's send box has the same shape as the opposite
    direction's recv box (what makes peer exchanges line up)."""
    sched = halo_3d((6, 6, 6))
    by_dir = {n.direction: n for n in sched.neighbors}
    for direction, n in by_dir.items():
        opposite = tuple(-d for d in direction)
        assert n.send_type.size == by_dir[opposite].recv_type.size


def test_halo_validation():
    with pytest.raises(ValueError):
        halo_2d((4, 4), ghost=0)
    with pytest.raises(ValueError):
        halo_2d((2, 2), ghost=3)
    with pytest.raises(ValueError):
        halo_2d((4, 4, 4))  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        halo_3d((4, 4))  # type: ignore[arg-type]


def test_halo_schedule_totals():
    sched = halo_2d((8, 8))
    assert sched.array_bytes == 10 * 10 * 8
    assert sched.total_bytes == sum(n.nbytes for n in sched.neighbors)
    assert sched.base is DOUBLE
