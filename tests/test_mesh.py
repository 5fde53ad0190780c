import numpy as np
import pytest

from _helpers import linspace_mesh_edges, random_slab, split_geometry
from slab_sn import (FineMesh, FluxField, MeshAlignmentError, SlabGeometry,
                     SourceField, ValidationError, ZeroFluxError, build_fine_mesh,
                     gauss_legendre, mesh_from_edges)

SLAB = SlabGeometry(edges=[0.0, 1.0, 2.0, 3.0], materials=("a", "b", "a"))
MESH = build_fine_mesh(SLAB, 6)

# one bad input per typed check: (constructor, error type, message fragment)
MESH_ERRORS = {
    "cells_per_region": (lambda: FineMesh(edges=[0.0, 1.0, 2.0], region_of_cell=[0]),
                         ValidationError, "one entry per cell"),
    "too_few_cells": (lambda: build_fine_mesh(SLAB, 2),
                      ValidationError, "fine_mesh_size (2) must be >= number of regions (3)"),
    "short_cover": (lambda: mesh_from_edges([0.0, 1.0, 2.0], SLAB),
                    MeshAlignmentError, "cover the slab exactly"),
    "emission_shape": (lambda: SourceField(MESH, np.ones(6)),
                       ValidationError, "emission must be (n_cells, G)"),
    "source_on_other_mesh": (lambda: SourceField(MESH, np.ones((6, 1))).require_on(
        build_fine_mesh(SLAB, 9), 1),
        ValidationError, "source mesh differs from the operator's mesh"),
    "source_groups": (lambda: SourceField(MESH, np.ones((6, 2))).require_on(MESH, 3),
                      ValidationError, "emission has shape (6, 2), expected (cells, G) = (6, 3)"),
    "emission_nan": (lambda: SourceField(MESH, np.full((6, 1), np.nan)),
                     ValidationError, "emission must be finite"),
    "flux_rows": (lambda: FluxField(points=[0.0, 1.0], psi=np.ones((3, 2)),
                                    phi=np.ones((2, 1))),
                  ValidationError, "one row per point"),
    "flux_inf": (lambda: FluxField(points=[0.0], psi=[[np.inf, 0.0]], phi=[[1.0]]),
                 ValidationError, "flux values must be finite"),
}


@pytest.mark.parametrize("case", MESH_ERRORS)
def test_typed_input_errors(case):
    build, error, fragment = MESH_ERRORS[case]
    with pytest.raises(error) as exc:
        build()
    assert fragment in str(exc.value)


def test_flux_constructor_copies_and_from_psi_takes_psi():
    quad = gauss_legendre(2)
    points, psi, phi = np.array([0.0, 1.0]), np.full((2, 2), 3.0), np.ones((2, 1))
    copied = FluxField(points=points, psi=psi, phi=phi)
    assert not np.shares_memory(copied.psi, psi) and not copied.psi.flags.writeable
    assert psi.flags.writeable
    # from_psi keeps psi itself, read-only, and scales it in place to a
    # unit integral when given the widths; the points are copied
    taken = FluxField.from_psi(points, psi, quad, np.array([0.5, 0.5]))
    assert taken.psi is psi and not psi.flags.writeable and points.flags.writeable
    assert np.sum(taken.phi * 0.5) == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(taken.psi, np.full((2, 2), 0.5))
    with pytest.raises(ZeroFluxError):
        FluxField.from_psi(points, np.zeros((2, 2)), quad, np.array([0.5, 0.5]))


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n_cells", [None, 700, 5000, 20000])
def test_edges_equal_per_region_linspace(pincell, split, n_cells):
    # None: one cell per region (M = 3 on the pincell, 60 on its split)
    geometry = split_geometry(pincell.geometry, 60, seed=1) if split else pincell.geometry
    mesh = build_fine_mesh(geometry, n_cells or geometry.n_regions)
    counts = np.diff(mesh.offsets)
    assert n_cells or np.all(counts == 1)
    assert np.array_equal(mesh.edges, linspace_mesh_edges(geometry, counts))


def test_edges_equal_per_region_linspace_on_random_slabs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        geometry, _ = random_slab(rng, 1, int(rng.integers(1, 9)), 2)
        mesh = build_fine_mesh(geometry, int(rng.integers(geometry.n_regions, 200)))
        assert np.array_equal(mesh.edges, linspace_mesh_edges(geometry, np.diff(mesh.offsets)))
