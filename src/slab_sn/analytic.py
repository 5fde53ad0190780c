"""Analytic fixed-source solver on a heterogeneous slab.

Per region the solution is an eigensystem expansion

    Psi(x) = P (Gtilde(t) alpha + J(t)),   t = x - x_left(region),

where Gtilde is the block exponential with each block anchored at the edge
that keeps its argument nonpositive (decaying blocks at the left edge,
growing blocks at the right edge) and J is the particular response to the
piecewise-constant source, accumulated cell by cell with bounded
multipliers.  Anchoring keeps every matrix entry and intermediate value
O(1); expanding all blocks from the left edge instead produces condition
numbers around e^(lambda L), which for thick regions at high S_N order is
far beyond double precision.

The alpha coefficients of all regions solve one (N G R) x (N G R) linear
system: N G / 2 rows per boundary condition and N G rows of angular-flux
continuity per interior interface.

Only J and the right-hand side depend on the source.  A FixedSourceOperator
is therefore built once per problem and holds, per region, the anchored
block rates, the half-cell step and integral multipliers, the homogeneous
factors at the cell centres, and the projection and expansion matrices,
plus the global matrix, checked once for singularity and inverted once.
Applying it to a source projects the source onto the blocks, runs the cell
recurrence for J as one FirstOrderScan per region, forms the right-hand
side, multiplies by the inverse and evaluates Psi at the cell centres.

Every block is handled as one complex scalar, taken with the encoding
from the BlockSpectrum: a real eigenvalue lambda as itself, a 2x2 pair
block as conj(z), which is how it acts on u1 + i u2.  Within a region the
blocks are kept in scan order: those anchored at the left edge first, then
those anchored at the right edge, whose per-cell arrays run in reversed
cell order.  Both kinds then march forward in one recurrence with the
decaying rate rho (Re rho <= 0), and a cell's upwind edge is the one its
recurrence enters through.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import (PointOutOfDomainError, SingularSystemError,
                         ValidationError)
from .mesh import FineMesh, FluxField, SourceField
from .model import QuadratureSet, SlabGeometry
from .recurrence import FirstOrderScan
from .spectral import BlockSpectrum, exp_block, phi_block

SOLVE_RCOND_MIN = 1e-14


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled boundary/continuity system M alpha = rhs.

    inverse, when present, is M^-1 already checked against SOLVE_RCOND_MIN.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    ng: int
    n_regions: int
    inverse: Optional[np.ndarray] = None


def select_rows(matrix: np.ndarray, quad: QuadratureSet, sign: str) -> np.ndarray:
    """Rows of an (N G) x ... matrix whose ordinate matches the mu sign.

    Row (g-1)N + n is kept iff sign(mu_n) matches; original order is
    preserved.
    """
    if sign not in ("positive", "negative"):
        raise ValidationError(f"sign must be 'positive' or 'negative', got {sign!r}")
    n = quad.n
    if matrix.shape[0] % n != 0:
        raise ValidationError("matrix rows are not a multiple of the quadrature size")
    g = matrix.shape[0] // n
    mask = np.tile(quad.mu > 0.0 if sign == "positive" else quad.mu < 0.0, g)
    return matrix[mask]


def _pair_rows(quad: QuadratureSet, g: int):
    """Row indices (positive-mu row, mirrored negative-mu row) pairing
    ordinates of equal |mu|, group-major."""
    n = quad.n
    pos = np.arange(n // 2, n)
    neg = n - 1 - pos
    pos_rows = (np.arange(g)[:, None] * n + pos[None, :]).ravel()
    neg_rows = (np.arange(g)[:, None] * n + neg[None, :]).ravel()
    return pos_rows, neg_rows


def _bc_combination(bc, quad: QuadratureSet, side: str, values: np.ndarray) -> np.ndarray:
    """The N G / 2 combinations of values' (N G) leading rows that one
    boundary condition constrains: incoming ordinates, or incoming minus
    mirrored outgoing for a reflective end."""
    if bc.kind == "reflective":
        pos, neg = _pair_rows(quad, values.shape[0] // quad.n)
        return values[pos] - values[neg]
    return select_rows(values, quad, "positive" if side == "left" else "negative")


def _factors(rho, anchor, upwind):
    """Per (point, block): e^{rho anchor}, the homogeneous factor at distance
    anchor from the block's anchor edge, and the step e^{rho u} and source
    integral phi(rho, u) over distance u from the upwind cell edge."""
    return exp_block(rho, anchor), exp_block(rho, upwind), phi_block(rho, upwind)


class _Particular(NamedTuple):
    """Source-dependent data of one region, per cell in scan order."""

    theta: np.ndarray   # (cells, blocks) source over mu, signed along the march
    j: np.ndarray       # (cells + 1, blocks) particular solution at the edges


class _Region:
    """Source-independent data of one region (blocks in scan order)."""

    def __init__(self, spec: BlockSpectrum, x_left: float, x_right: float,
                 t_edges: np.ndarray, t_centres: np.ndarray, cells: slice,
                 quad: QuadratureSet):
        self.spec = spec
        self.x_left = x_left
        self.length = x_right - x_left
        self.t_edges = t_edges
        self.cells = cells
        order = np.argsort(spec.rates.real > 0.0, kind="stable")
        rate = spec.rates.conj()[order]
        self.forward = rate.real <= 0.0
        self.nf = int(np.count_nonzero(self.forward))
        self.rho = np.where(self.forward, rate, -rate)
        # enc maps real coefficients to block scalars; expand maps block
        # scalars back to angular flux rows (psi = Re(x @ expand))
        self.enc = spec.encoding[order]
        self.expand = self.enc.conj() @ spec.P.T
        g = spec.size // quad.n
        sign = np.where(self.forward, 1.0, -1.0)
        self.project = (spec.P_inv / np.tile(quad.mu, g)[None, :]).T @ (self.enc.T * sign)
        # cell-centre factors; the recurrence's full-cell step and source
        # multipliers are half**2 (kept in the scan) and phi_half * (1 + half)
        widths = np.diff(t_edges)
        anchor = np.where(self.forward, t_centres[:, None], (self.length - t_centres)[::-1, None])
        upwind = np.where(self.forward, widths[:, None], widths[::-1, None]) / 2.0
        self.hom, self.half, self.phi_half = _factors(self.rho, anchor, upwind)
        for arr in (self.forward, self.rho, self.enc, self.expand, self.project,
                    self.hom, self.half, self.phi_half):
            arr.setflags(write=False)
        self.march = FirstOrderScan(self.half * self.half)

    def scan_order(self, x: np.ndarray) -> np.ndarray:
        """Swap a (cells, blocks) array between cell and scan order."""
        return np.concatenate([x[:, :self.nf], x[::-1, self.nf:]], axis=1)

    def particular(self, q: np.ndarray) -> _Particular:
        """Project the region's (cells, N G) source and march J across it."""
        theta = self.scan_order(q @ self.project)
        b = self.half + 1.0
        b *= self.phi_half
        b *= theta
        return _Particular(theta, np.concatenate([np.zeros_like(b[:1]), self.march(b)]))

    def pg(self, side: str) -> np.ndarray:
        """P @ Gtilde at the left or right edge, in the real block basis."""
        far = ~self.forward if side == "left" else self.forward
        scale = exp_block(self.rho, np.where(far, self.length, 0.0))
        return ((self.expand.T * scale[None, :]) @ self.enc).real

    def edge_psi(self, part: _Particular):
        """Particular angular flux at the (left, right) region edges."""
        far = part.j[-1]       # the edge each block's march ends on
        return ((far[self.nf:] @ self.expand[self.nf:]).real,
                (far[:self.nf] @ self.expand[:self.nf]).real)

    def _psi(self, factors, alpha, j_in, theta) -> np.ndarray:
        """Block scalars hom alpha + half j_in + phi_half theta."""
        hom, half, phi_half = factors
        x = hom * (self.enc @ alpha)
        x += half * j_in
        x += phi_half * theta
        return x

    def psi_at_centres(self, alpha: np.ndarray, part: _Particular) -> np.ndarray:
        """Psi (cells, N G) at every cell centre of the region."""
        x = self._psi((self.hom, self.half, self.phi_half), alpha, part.j[:-1],
                      part.theta)
        return (self.scan_order(x) @ self.expand).real

    def psi_at(self, alpha: np.ndarray, part: _Particular, t: np.ndarray) -> np.ndarray:
        """Psi (points, N G) at local coordinates t, each in [0, L]."""
        m = self.t_edges.size - 1
        cell = np.clip(np.searchsorted(self.t_edges[1:], t, side="left"), 0, m - 1)
        row = np.where(self.forward, cell[:, None], m - 1 - cell[:, None])
        anchor = np.where(self.forward, t[:, None], (self.length - t)[:, None])
        upwind = np.where(self.forward, (t - self.t_edges[cell])[:, None],
                          (self.t_edges[cell + 1] - t)[:, None])
        j_in = np.take_along_axis(part.j, row, axis=0)
        theta = np.take_along_axis(part.theta, row, axis=0)
        x = self._psi(_factors(self.rho, anchor, upwind), alpha, j_in, theta)
        return (x @ self.expand).real


def _region(geometry: SlabGeometry, spectra, mesh: FineMesh, centres, quad, r: int):
    cells = mesh.cells_of_region(r)
    if cells.size == 0 or cells[-1] - cells[0] + 1 != cells.size:
        raise ValidationError(f"region {r} must hold one contiguous run of source cells")
    cells = slice(cells[0], cells[-1] + 1)
    x_left = geometry.edges[r]
    return _Region(spectra[geometry.materials[r]], x_left, geometry.edges[r + 1],
                   mesh.edges[cells.start:cells.stop + 1] - x_left,
                   centres[cells] - x_left, cells, quad)


def _checked_inverse(matrix: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(matrix, compute_uv=False)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if not np.isfinite(rcond) or rcond < SOLVE_RCOND_MIN:
        raise SingularSystemError(
            f"global system is numerically singular (rcond={rcond:.3e}); "
            "the shift may sit on an eigenvalue of the problem")
    return np.linalg.inv(matrix)


def _incoming(bc):
    return bc.values if bc.kind == "incoming" else 0.0


class FixedSourceOperator:
    """The source-independent part of the analytic fixed-source solve.

    Built once per (geometry, spectra, mesh, quadrature): the per-region
    block data and cell-centre factors, and the global boundary/continuity
    matrix with its inverse, checked once (SingularSystemError below rcond
    1e-14).  spectra maps material name -> BlockSpectrum.  Nothing here
    changes after construction; solve_fixed_source and fixed_source_solve
    apply it to one source at a time.
    """

    def __init__(self, geometry: SlabGeometry, spectra, mesh: FineMesh,
                 quad: QuadratureSet):
        self.geometry = geometry
        self.mesh = mesh
        self.quad = quad
        centres = mesh.centers
        self.regions = tuple(_region(geometry, spectra, mesh, centres, quad, r)
                             for r in range(geometry.n_regions))
        self.ng = self.regions[0].spec.size
        ng, n_reg, half = self.ng, len(self.regions), self.ng // 2
        mat = np.zeros((ng * n_reg, ng * n_reg))
        mat[:half, :ng] = _bc_combination(geometry.bc_left, quad, "left",
                                          self.regions[0].pg("left"))
        mat[half:ng, (n_reg - 1) * ng:] = _bc_combination(
            geometry.bc_right, quad, "right", self.regions[-1].pg("right"))
        for i in range(n_reg - 1):
            rows = slice(ng * (i + 1), ng * (i + 2))
            mat[rows, ng * i:ng * (i + 1)] = self.regions[i].pg("right")
            mat[rows, ng * (i + 1):ng * (i + 2)] = -self.regions[i + 1].pg("left")
        self.inverse = _checked_inverse(mat)
        self.matrix = mat
        for arr in (self.matrix, self.inverse):
            arr.setflags(write=False)

    def particular(self, source: SourceField):
        """Per-region projected source and particular solution."""
        self.mesh.require_same(source.mesh)
        return [reg.particular(source.q[reg.cells]) for reg in self.regions]

    def system(self, particular) -> GlobalSystem:
        """Global system for one source, carrying the checked inverse."""
        edges = [reg.edge_psi(part) for reg, part in zip(self.regions, particular)]
        geo, quad, ng, half = self.geometry, self.quad, self.ng, self.ng // 2
        rhs = np.empty(self.matrix.shape[0])
        rhs[:half] = _incoming(geo.bc_left) - _bc_combination(
            geo.bc_left, quad, "left", edges[0][0])
        rhs[half:ng] = _incoming(geo.bc_right) - _bc_combination(
            geo.bc_right, quad, "right", edges[-1][1])
        for i in range(len(edges) - 1):
            rhs[ng * (i + 1):ng * (i + 2)] = edges[i + 1][0] - edges[i][1]
        return GlobalSystem(matrix=self.matrix, rhs=rhs, ng=ng,
                            n_regions=len(self.regions), inverse=self.inverse)

    def flux_at_centres(self, alphas, particular) -> FluxField:
        psi = np.empty((self.mesh.n_cells, self.ng))
        for reg, alpha, part in zip(self.regions, alphas, particular):
            psi[reg.cells] = reg.psi_at_centres(alpha, part)
        return FluxField.from_psi(self.mesh.centers, psi, self.quad)


def assemble_global_system(geometry: SlabGeometry, spectra, source: SourceField,
                           quad: QuadratureSet) -> GlobalSystem:
    """Boundary + continuity system for the expansion coefficients.

    The first N G rows hold the two boundary conditions (N G / 2 each); each
    interior interface contributes N G continuity rows coupling the two
    adjacent regions.  spectra maps material name -> BlockSpectrum.
    """
    operator = FixedSourceOperator(geometry, spectra, source.mesh, quad)
    return operator.system(operator.particular(source))


def solve_alpha(system: GlobalSystem):
    """Dense solve, one alpha per region.

    Uses the inverse the system carries; without one, raises
    SingularSystemError below rcond 1e-14 before solving.
    """
    inverse = system.inverse
    if inverse is None:
        inverse = _checked_inverse(system.matrix)
    alpha = inverse @ system.rhs
    return [alpha[i * system.ng:(i + 1) * system.ng] for i in range(system.n_regions)]


def _locate_regions(geometry: SlabGeometry, points: np.ndarray) -> np.ndarray:
    if np.any(points < geometry.edges[0]) or np.any(points > geometry.edges[-1]):
        raise PointOutOfDomainError(
            f"points outside [{geometry.edges[0]}, {geometry.edges[-1]}]")
    # a point exactly on an interface belongs to the region on its left
    return np.searchsorted(geometry.edges[1:], points, side="left")


def evaluate_flux(operator: FixedSourceOperator, solution, points) -> FluxField:
    """Angular and scalar flux at arbitrary points inside the slab.

    solution is the (alphas, particular) pair solve_fixed_source returns for
    this operator.  Points on a region interface are evaluated from the
    left region; continuity of the solution makes the choice immaterial to
    within the solver tolerance.
    """
    alphas, particular = solution
    points = np.atleast_1d(np.asarray(points, dtype=float))
    region = _locate_regions(operator.geometry, points)
    psi = np.zeros((points.size, operator.ng))
    for r, (reg, alpha, part) in enumerate(zip(operator.regions, alphas, particular)):
        idx = np.nonzero(region == r)[0]
        if idx.size:
            psi[idx] = reg.psi_at(alpha, part, points[idx] - reg.x_left)
    return FluxField.from_psi(points, psi, operator.quad)


def solve_fixed_source(operator: FixedSourceOperator, source: SourceField):
    """Per-region expansion coefficients (no evaluation) and the per-region
    particular data; evaluate_flux and evaluation at the cell centres take
    the pair."""
    particular = operator.particular(source)
    return solve_alpha(operator.system(particular)), particular


def fixed_source_solve(operator: FixedSourceOperator, source: SourceField) -> FluxField:
    """Full fixed-source solve evaluated at the source-cell centers."""
    alphas, particular = solve_fixed_source(operator, source)
    return operator.flux_at_centres(alphas, particular)
