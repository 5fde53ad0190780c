"""Fine source mesh, piecewise-constant source fields, and flux fields."""

from dataclasses import dataclass

import numpy as np

from .exceptions import MeshAlignmentError, ValidationError
from .model import QuadratureSet, SlabGeometry, _readonly

ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class FineMesh:
    """Fine mesh carrying the piecewise-constant source representation.

    Every region interface coincides with a mesh edge, so each cell lies
    inside exactly one region.
    """

    edges: np.ndarray
    region_of_cell: np.ndarray

    def __post_init__(self):
        edges = _readonly(self.edges)
        roc = _readonly(self.region_of_cell, dtype=int)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "region_of_cell", roc)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValidationError("mesh edges must be strictly increasing")
        if roc.size != edges.size - 1:
            raise ValidationError("region_of_cell must have one entry per cell")

    @property
    def n_cells(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def cells_of_region(self, r: int) -> np.ndarray:
        return np.nonzero(self.region_of_cell == r)[0]

    def require_same(self, other: "FineMesh") -> None:
        """Raise ValidationError unless other has this mesh's cell edges
        (a source built on other cannot be solved on this mesh)."""
        if other is not self and not np.array_equal(other.edges, self.edges):
            raise ValidationError("source mesh differs from the operator's mesh")


def build_fine_mesh(geometry: SlabGeometry, n_cells: int) -> FineMesh:
    """Uniform-per-region mesh with exactly n_cells cells total.

    Cells are allocated to regions proportionally to width (largest
    remainder, at least one per region), so interfaces land exactly on
    mesh edges.
    """
    r = geometry.n_regions
    if n_cells < r:
        raise ValidationError(f"need at least {r} cells for {r} regions, got {n_cells}")
    widths = geometry.widths
    quota = n_cells * widths / widths.sum()
    counts = np.maximum(np.floor(quota).astype(int), 1)
    while counts.sum() > n_cells:
        counts[np.argmax(counts - quota)] -= 1
    # hand leftover cells to the regions shortest-changed by flooring
    order = np.argsort(-(quota - counts))
    for i in range(n_cells - counts.sum()):
        counts[order[i % r]] += 1
    edges = [geometry.edges[0]]
    region_of_cell = []
    for i in range(r):
        sub = np.linspace(geometry.edges[i], geometry.edges[i + 1], counts[i] + 1)
        edges.extend(sub[1:])
        region_of_cell.extend([i] * counts[i])
    edges[-1] = geometry.edges[-1]
    return FineMesh(edges=np.array(edges), region_of_cell=np.array(region_of_cell))


def mesh_from_edges(edges, geometry: SlabGeometry) -> FineMesh:
    """Mesh over explicit edges; raises MeshAlignmentError if any region
    interface does not coincide with a mesh edge."""
    edges = np.asarray(edges, dtype=float)
    scale = geometry.edges[-1] - geometry.edges[0]
    if abs(edges[0] - geometry.edges[0]) > ALIGN_RTOL * scale or \
       abs(edges[-1] - geometry.edges[-1]) > ALIGN_RTOL * scale:
        raise MeshAlignmentError("mesh must cover the slab exactly")
    for x in geometry.edges[1:-1]:
        if np.min(np.abs(edges - x)) > ALIGN_RTOL * scale:
            raise MeshAlignmentError(f"region interface at {x} is not a mesh edge")
    centers = 0.5 * (edges[:-1] + edges[1:])
    region_of_cell = np.searchsorted(geometry.edges[1:-1], centers, side="right")
    return FineMesh(edges=edges, region_of_cell=region_of_cell)


@dataclass(frozen=True)
class SourceField:
    """Per-ordinate source density q[m, (g-1)N+n], constant on each cell."""

    mesh: FineMesh
    q: np.ndarray

    def __post_init__(self):
        q = _readonly(self.q)
        object.__setattr__(self, "q", q)
        if q.ndim != 2 or q.shape[0] != self.mesh.n_cells:
            raise ValidationError("source values must be (n_cells, N*G)")
        if np.any(~np.isfinite(q)):
            raise ValidationError("source values must be finite")

    @property
    def ng(self) -> int:
        return self.q.shape[1]

    @classmethod
    def isotropic(cls, mesh: FineMesh, emission: np.ndarray, n_ordinates: int) -> "SourceField":
        """Build from a per-cell, per-group emission density S (cm^-3 s^-1).

        The per-ordinate density is S/2 (the angular measure on [-1, 1]).
        """
        emission = np.atleast_2d(np.asarray(emission, dtype=float))
        q = np.repeat(emission / 2.0, n_ordinates, axis=1)
        return cls(mesh=mesh, q=q)


@dataclass(frozen=True)
class FluxField:
    """Angular and scalar fluxes sampled at a set of points."""

    points: np.ndarray
    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for key in ("points", "psi", "phi"):
            object.__setattr__(self, key, _readonly(getattr(self, key)))
        if self.psi.shape[0] != self.points.size or self.phi.shape[0] != self.points.size:
            raise ValidationError("psi and phi must have one row per point")
        if np.any(~np.isfinite(self.psi)) or np.any(~np.isfinite(self.phi)):
            raise ValidationError("flux values must be finite")

    @classmethod
    def from_psi(cls, points, psi: np.ndarray, quad: QuadratureSet) -> "FluxField":
        points = np.asarray(points, dtype=float)
        n = quad.n
        g = psi.shape[1] // n
        phi = psi.reshape(points.size, g, n) @ quad.weight
        return cls(points=points, psi=psi, phi=phi)

    @property
    def n_groups(self) -> int:
        return self.phi.shape[1]

    def scaled(self, factor: float) -> "FluxField":
        return FluxField(points=self.points, psi=self.psi * factor, phi=self.phi * factor)
