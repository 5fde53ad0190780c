"""Fine source mesh, piecewise-constant isotropic source fields (checked
against a solver's mesh and group count by SourceField.require_on), the
Solution of a solve, bound to its operator, and flux fields."""

from dataclasses import dataclass

import numpy as np

from .exceptions import MeshAlignmentError, ValidationError, ZeroFluxError
from .model import QuadratureSet, SlabGeometry, _readonly

ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class FineMesh:
    """Fine mesh carrying the piecewise-constant source representation.

    Region r is the run of cells offsets[r] .. offsets[r + 1] - 1 (a
    non-decreasing region_of_cell); require_fit checks the runs on a geometry.
    """

    edges: np.ndarray
    region_of_cell: np.ndarray

    def __post_init__(self):
        edges = _readonly(self.edges)
        roc = _readonly(self.region_of_cell, dtype=int)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "region_of_cell", roc)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValidationError("mesh edges must be strictly increasing")
        if roc.shape != (edges.size - 1,):
            raise ValidationError("region_of_cell must have one entry per cell")
        if roc[0] < 0 or np.any(np.diff(roc) < 0):
            raise ValidationError("region_of_cell must be >= 0 and non-decreasing: each "
                                  "region one contiguous run of cells")
        object.__setattr__(self, "offsets", _readonly(
            np.searchsorted(roc, np.arange(roc[-1] + 2)), dtype=int))

    @property
    def n_cells(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def require_fit(self, geometry: SlabGeometry) -> None:
        """Raise MeshAlignmentError unless the mesh covers the slab, every
        region of geometry holds at least one cell, and each region's end
        edges are its interfaces, all to ALIGN_RTOL of the slab width."""
        x, offsets = geometry.edges, self.offsets
        tol = ALIGN_RTOL * (x[-1] - x[0])
        if abs(self.edges[0] - x[0]) > tol or abs(self.edges[-1] - x[-1]) > tol:
            raise MeshAlignmentError("mesh must cover the slab exactly")
        if offsets.size != x.size or np.any(np.diff(offsets) == 0):
            raise MeshAlignmentError(f"each of the {geometry.n_regions} regions needs a cell, "
                                     f"got cells per region {np.diff(offsets).tolist()}")
        if np.any(np.abs(self.edges[offsets] - x) > tol):
            raise MeshAlignmentError("every region interface must be a mesh edge")


def build_fine_mesh(geometry: SlabGeometry, n_cells: int) -> FineMesh:
    """Uniform-per-region mesh with exactly n_cells cells total.

    Cells are allocated to regions proportionally to width (largest
    remainder, at least one per region), so interfaces land exactly on
    mesh edges.
    """
    geometry.require_cells(n_cells)
    r = geometry.n_regions
    widths = geometry.widths
    quota = n_cells * widths / widths.sum()
    counts = np.maximum(np.floor(quota).astype(int), 1)
    while counts.sum() > n_cells:
        # never below the one cell every region keeps
        counts[np.argmax(np.where(counts > 1, counts - quota, -np.inf))] -= 1
    # hand leftover cells to the regions shortest-changed by flooring
    order = np.argsort(-(quota - counts))
    for i in range(n_cells - counts.sum()):
        counts[order[i % r]] += 1
    # every region's np.linspace(x[i], x[i + 1], counts[i] + 1)[1:] at once,
    # bit for bit: edge j of region i is j * step[i] + x[i], its last pinned
    # to x[i + 1]
    x = geometry.edges
    region = np.repeat(np.arange(r), counts)
    ends = np.cumsum(counts)
    j = np.arange(1, n_cells + 1) - (ends - counts)[region]
    edges = j * (np.diff(x) / counts)[region] + x[region]
    edges[ends - 1] = x[1:]
    return FineMesh(edges=np.concatenate([x[:1], edges]), region_of_cell=region)


def mesh_from_edges(edges, geometry: SlabGeometry) -> FineMesh:
    """Mesh over explicit edges; raises MeshAlignmentError unless it covers
    the slab and every region interface is a mesh edge."""
    edges = np.asarray(edges, dtype=float)
    centers = 0.5 * (edges[:-1] + edges[1:])
    region_of_cell = np.searchsorted(geometry.edges[1:-1], centers, side="right")
    mesh = FineMesh(edges=edges, region_of_cell=region_of_cell)
    mesh.require_fit(geometry)
    return mesh


@dataclass(frozen=True)
class SourceField:
    """Isotropic emission density S[m, g] (cm^-3 s^-1), constant on each
    cell; every ordinate sees S/2, the angular measure on [-1, 1] being 2."""

    mesh: FineMesh
    emission: np.ndarray

    def __post_init__(self):
        emission = _readonly(self.emission)
        object.__setattr__(self, "emission", emission)
        if emission.ndim != 2 or emission.shape[0] != self.mesh.n_cells:
            raise ValidationError(f"emission must be (n_cells, G) = "
                                  f"({self.mesh.n_cells}, G), got {emission.shape}")
        if np.any(~np.isfinite(emission)):
            raise ValidationError("emission must be finite")

    def require_on(self, mesh: FineMesh, n_groups: int) -> None:
        """Raise ValidationError unless this source lies on mesh's cell
        edges with n_groups groups."""
        if self.mesh is not mesh and not np.array_equal(self.mesh.edges, mesh.edges):
            raise ValidationError("source mesh differs from the operator's mesh")
        shape = (mesh.n_cells, n_groups)
        if self.emission.shape != shape:
            raise ValidationError(
                f"emission has shape {self.emission.shape}, expected (cells, G) = {shape}")


@dataclass(frozen=True, eq=False)
class Solution:
    """A fixed-source solve's answer, read only by operator, which solved
    it: coefficients (the analytic alphas (R, N G), or the sweep's blocked
    angular fluxes), the source and the sweep count (0 for the analytic
    solver).  Compared by identity: a generated == would compare arrays."""

    operator: object
    coefficients: np.ndarray
    source: SourceField
    sweeps: int = 0

    def require_from(self, operator) -> None:
        if self.operator is not operator:
            raise ValidationError("solution is from another operator")


@dataclass(frozen=True)
class FluxField:
    """Angular and scalar fluxes sampled at a set of points; the
    constructor copies the arrays it is given."""

    points: np.ndarray
    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for key in ("points", "psi", "phi"):
            object.__setattr__(self, key, _readonly(getattr(self, key)))
        self._check()

    def _check(self):
        if self.psi.shape[0] != self.points.size or self.phi.shape[0] != self.points.size:
            raise ValidationError("psi and phi must have one row per point")
        if not (np.isfinite(self.psi).all() and np.isfinite(self.phi).all()):
            raise ValidationError("flux values must be finite")

    @classmethod
    def from_psi(cls, points, psi: np.ndarray, quad: QuadratureSet,
                 widths=None) -> "FluxField":
        """The field of the angular flux psi (points, N G), which it takes
        without a copy and makes read-only.  Given the cell widths (points,),
        psi and phi are first scaled in place so that the summed group
        integrals of phi equal one, the package's one flux normalization
        (ZeroFluxError when they vanish or are not finite)."""
        psi, n = np.asarray(psi, dtype=float), quad.n
        phi = psi.reshape(np.size(points), psi.shape[1] // n, n) @ quad.weight
        if widths is not None:
            total = float(np.sum(phi * widths[:, None]))
            if not np.isfinite(total) or total == 0.0:
                raise ZeroFluxError("flux integrates to zero; cannot normalize")
            scale = 1.0 / total
            psi *= scale
            phi *= scale
        flux = cls.__new__(cls)
        for key, value in (("points", _readonly(points)), ("psi", psi), ("phi", phi)):
            value.setflags(write=False)
            object.__setattr__(flux, key, value)
        flux._check()
        return flux

    @property
    def n_groups(self) -> int:
        return self.phi.shape[1]

    def scaled(self, factor: float) -> "FluxField":
        return FluxField(points=self.points, psi=self.psi * factor, phi=self.phi * factor)

