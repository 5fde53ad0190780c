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
system M: N G / 2 rows per boundary condition and N G rows of angular-flux
continuity per interior interface.  Each interface row touches only the
two regions beside it, so with the rows ordered left boundary, interface
0 .. R-2, right boundary, one QR per region column eliminates M into block
upper-bidiagonal form (interface elimination, as in the analytical
discrete-ordinates method) in O(R (N G)^3) time and O(R (N G)^2) memory:
see InterfaceFactor.

Only J and the right-hand side depend on the source.  A FixedSourceOperator
is therefore built once per problem and holds, per region, the anchored
block rates, the homogeneous factors at the cell centres (cells, blocks),
the width-only factors (the half-cell step, its source integral and the
recurrence's source multiplier), and the projection and expansion
matrices, plus the factored global system, checked once for singularity.
The width-only factors have one row per distinct cell width: one row at
the nominal width L / m when the region's widths agree to WIDTH_RTOL, as
on build_fine_mesh meshes, else one row per cell; both broadcast along
the cell axis.  A source is an isotropic emission S (cells, G), S/2 on
every ordinate, so applying the operator projects it onto the blocks with
one (G, blocks) matrix per region, runs the cell recurrence for J as one
FirstOrderScan per region, forms the right-hand side, solves with the
factor (one forward pass and one block back-substitution) and evaluates
only the scalar flux at the cell centres, through one (blocks, G)
expansion.  FixedSourceOperator.flux gives Psi and phi at the cell centres
from the same stored factors; evaluate_flux gives them at any points.

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
from typing import NamedTuple

import numpy as np

from .exceptions import (PointOutOfDomainError, SingularSystemError,
                         ValidationError)
from .mesh import FineMesh, FluxField, SourceField
from .model import QuadratureSet, SlabGeometry
from .recurrence import FirstOrderScan
from .spectral import BlockSpectrum, exp_block, phi_block

SOLVE_RCOND_MIN = 1e-14
# a region's cells share one row of width-only factors when their widths
# spread by at most this much relative to the nominal width; uniform
# linspace meshes spread by 7e-14 (pincell, M = 700) to 3e-12 (M = 20000)
WIDTH_RTOL = 1e-10
RCOND_ITERATIONS = 5
EVAL_CHUNK = 256


@dataclass(frozen=True)
class GlobalSystem:
    """Boundary/continuity system M alpha = rhs for one source, M held as
    its InterfaceFactor.  rhs rows run left boundary, interface 0 .. R-2,
    right boundary."""

    rhs: np.ndarray
    factor: "InterfaceFactor"


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
        # scalars back to angular flux rows (psi = Re(x @ expand)) and
        # expand_phi to the scalar flux (phi = Re(x @ expand_phi))
        self.enc = spec.encoding[order]
        self.expand = self.enc.conj() @ spec.P.T
        g = spec.size // quad.n
        self.expand_phi = self.expand.reshape(-1, g, quad.n) @ quad.weight
        # project maps an emission S, S/2 on every ordinate, to block sources
        sign = np.where(self.forward, 1.0, -1.0)
        per_group = (spec.P_inv.reshape(-1, g, quad.n) / quad.mu).sum(axis=2) / 2.0
        self.project = per_group.T @ (self.enc.T * sign)
        # cell-centre factors: hom per cell; the half-cell step half and
        # its integral phi_half at one row per cell, or at one row of the
        # nominal width when the widths agree to WIDTH_RTOL.  The
        # recurrence's full-cell step and source multipliers are half**2
        # (kept in the scan) and source_coef = (1 + half) phi_half
        widths = np.diff(t_edges)
        nominal = self.length / widths.size
        if np.ptp(widths) <= WIDTH_RTOL * nominal:
            widths = np.full(1, nominal)
        anchor = np.where(self.forward, t_centres[:, None], (self.length - t_centres)[::-1, None])
        upwind = np.where(self.forward, widths[:, None], widths[::-1, None]) / 2.0
        self.hom = exp_block(self.rho, anchor)
        self.half = exp_block(self.rho, upwind)
        self.phi_half = phi_block(self.rho, upwind)
        self.source_coef = (1.0 + self.half) * self.phi_half
        for arr in (self.forward, self.rho, self.enc, self.expand, self.expand_phi,
                    self.project, self.hom, self.half, self.phi_half, self.source_coef):
            arr.setflags(write=False)
        self.march = FirstOrderScan(self.half * self.half, t_centres.size)

    def scan_order(self, x: np.ndarray) -> np.ndarray:
        """Swap a (cells, blocks) array between cell and scan order."""
        return np.concatenate([x[:, :self.nf], x[::-1, self.nf:]], axis=1)

    def particular(self, emission: np.ndarray) -> _Particular:
        """Project the region's (cells, G) emission and march J across it."""
        theta = self.scan_order(emission @ self.project)
        b = self.source_coef * theta
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

    def at_centres(self, alpha: np.ndarray, part: _Particular) -> np.ndarray:
        """Block scalars (cells, blocks) at every cell centre, in cell order,
        from the stored factors."""
        return self.scan_order(self._psi((self.hom, self.half, self.phi_half), alpha,
                                         part.j[:-1], part.theta))

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


def _singular(rcond: float) -> SingularSystemError:
    return SingularSystemError(
        f"global system is numerically singular (1-norm rcond={rcond:.3e}); "
        "the source-free problem has a nonzero solution: give the slab "
        "absorption or leakage, or move k_e off the eigenvalue")


def _inverse(r: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(r)
    except np.linalg.LinAlgError:
        raise _singular(0.0) from None


def _rcond_estimate(norm: float, solve, solve_t, size: int) -> float:
    """1 / (norm ||M^-1||_1), ||M^-1||_1 estimated from solves with M and
    M^T: Hager's method with Higham's alternating test vector (Higham, ACM
    TOMS 14, 1988; LAPACK xLACON), at most RCOND_ITERATIONS steps."""
    x = np.full(size, 1.0 / size)
    est = 0.0
    for _ in range(RCOND_ITERATIONS):
        y = solve(x)
        y_norm = np.abs(y).sum()
        if not y_norm > est:
            break
        est = y_norm
        z = solve_t(np.where(y >= 0.0, 1.0, -1.0))
        j = np.argmax(np.abs(z))
        if np.abs(z[j]) <= z @ x:
            break
        x = np.zeros(size)
        x[j] = 1.0
    alt = np.where(np.arange(size) % 2, -1.0, 1.0) * (1.0 + np.arange(size) / (size - 1))
    est = max(est, 2.0 * np.abs(solve(alt)).sum() / (3.0 * size))
    return 1.0 / (norm * est) if np.isfinite(est) and est > 0.0 else 0.0


class InterfaceFactor:
    """Orthogonal block elimination of the boundary/continuity system.

    Built from the left boundary rows (h, n) on alpha_0, the R-1 interface
    pairs (rows on alpha_k, rows on alpha_k+1), each (n, n), and the right
    boundary rows (h, n) on alpha_R-1, with h = n / 2.  Column k's panel is
    the h rows carried from column k-1 (the left boundary for k = 0) over
    interface k; its complete QR leaves n pivot rows
    R_k alpha_k + C_k alpha_k+1 and h rows carried to column k+1.  The last
    panel, carried rows over the right boundary, is square.  Per column the
    factor keeps

        step[k] = [R_k^-1 Q_k^T[:n]; Q_k^T[n:]]   (h+n, h+n)
        coupling[k] = R_k^-1 C_k                   (n, n)

    and last = R^-1 Q^T of the final panel, so a solve is one forward pass
    through the steps and one block back-substitution
    alpha_k = y_k - coupling[k] alpha_k+1.  rcond is the Hager/Higham
    estimate of the reciprocal 1-norm condition number of M; below
    SOLVE_RCOND_MIN the build raises SingularSystemError.
    """

    def __init__(self, left: np.ndarray, interfaces, right: np.ndarray):
        h, n = left.shape
        self.n_regions = len(interfaces) + 1
        self.step = np.empty((self.n_regions - 1, h + n, h + n))
        self.coupling = np.empty((self.n_regions - 1, n, n))
        column_sums = np.zeros((self.n_regions, n))
        column_sums[0] += np.abs(left).sum(axis=0)
        column_sums[-1] += np.abs(right).sum(axis=0)
        carried = left
        for k, (on_k, on_next) in enumerate(interfaces):
            column_sums[k] += np.abs(on_k).sum(axis=0)
            column_sums[k + 1] += np.abs(on_next).sum(axis=0)
            q, r = np.linalg.qr(np.vstack([carried, on_k]), mode="complete")
            r_inv = _inverse(r[:n])
            c = q[h:].T @ on_next
            self.step[k, :n] = r_inv @ q[:, :n].T
            self.step[k, n:] = q[:, n:].T
            self.coupling[k] = r_inv @ c[:n]
            carried = c[n:]
        q, r = np.linalg.qr(np.vstack([carried, right]))
        self.last = _inverse(r) @ q.T
        for arr in (self.step, self.coupling, self.last):
            arr.setflags(write=False)
        self.rcond = _rcond_estimate(column_sums.max(), self.solve,
                                     self.solve_transposed, self.n_regions * n)
        if not self.rcond >= SOLVE_RCOND_MIN:
            raise _singular(self.rcond)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """alpha (R, n) with M alpha = rhs, rhs in row order."""
        n = self.last.shape[0]
        h = n // 2
        # the interface rows' share of every step, all columns at once
        pre = (self.step[:, :, h:] @ rhs[h:-h].reshape(-1, n, 1))[:, :, 0]
        y = np.empty((self.n_regions, n))
        carried = rhs[:h]
        for k in range(self.n_regions - 1):
            t = self.step[k, :, :h] @ carried + pre[k]
            y[k] = t[:n]
            carried = t[n:]
        y[-1] = self.last @ np.concatenate([carried, rhs[-h:]])
        for k in range(self.n_regions - 2, -1, -1):
            y[k] -= self.coupling[k] @ y[k + 1]
        return y

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """x in row order with M^T x = b, b (R n) in alpha order: the
        transposes of solve's steps in reverse order."""
        n = self.last.shape[0]
        h = n // 2
        w = b.reshape(self.n_regions, n).copy()
        for k in range(1, self.n_regions):
            w[k] -= self.coupling[k - 1].T @ w[k - 1]
        x = np.empty(b.size)
        t = self.last.T @ w[-1]
        x[-h:] = t[h:]
        carried = t[:h]
        for k in range(self.n_regions - 2, -1, -1):
            t = self.step[k].T @ np.concatenate([w[k], carried])
            x[h + k * n:h + (k + 1) * n] = t[h:]
            carried = t[:h]
        x[:h] = carried
        return x


def _incoming(bc):
    return bc.values if bc.kind == "incoming" else 0.0


class FixedSourceOperator:
    """The source-independent part of the analytic fixed-source solve.

    Built once per (geometry, spectra, mesh, quadrature): the per-region
    block data and cell-centre factors, and the InterfaceFactor of the
    global boundary/continuity system, checked once (SingularSystemError
    below an estimated 1-norm rcond of 1e-14; rcond keeps the estimate).
    spectra maps material name -> BlockSpectrum.  Nothing here changes
    after construction; solve_fixed_source and fixed_source_solve apply it
    to one source at a time, and flux reads a solution's angular flux at
    the cell centres.
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
        self.n_groups = self.ng // quad.n
        regs = self.regions
        self.factor = InterfaceFactor(
            _bc_combination(geometry.bc_left, quad, "left", regs[0].pg("left")),
            [(a.pg("right"), -b.pg("left")) for a, b in zip(regs[:-1], regs[1:])],
            _bc_combination(geometry.bc_right, quad, "right", regs[-1].pg("right")))
        self.rcond = self.factor.rcond

    def particular(self, source: SourceField):
        """Per-region projected source and particular solution."""
        self.mesh.require_same(source.mesh)
        shape = (self.mesh.n_cells, self.n_groups)
        if source.emission.shape != shape:
            raise ValidationError(
                f"emission has shape {source.emission.shape}, expected (cells, G) = {shape}")
        return [reg.particular(source.emission[reg.cells]) for reg in self.regions]

    def system(self, particular) -> GlobalSystem:
        """Global system for one source, carrying the operator's factor."""
        edges = [reg.edge_psi(part) for reg, part in zip(self.regions, particular)]
        geo, quad = self.geometry, self.quad
        left = _incoming(geo.bc_left) - _bc_combination(geo.bc_left, quad, "left", edges[0][0])
        right = _incoming(geo.bc_right) - _bc_combination(
            geo.bc_right, quad, "right", edges[-1][1])
        interfaces = [b[0] - a[1] for a, b in zip(edges[:-1], edges[1:])]
        return GlobalSystem(rhs=np.concatenate([left, *interfaces, right]),
                            factor=self.factor)

    def flux(self, solution) -> FluxField:
        """Angular and scalar flux at the cell centres for the (alphas,
        particular) pair solve_fixed_source returns, from the stored
        factors: one (cells, blocks) @ (blocks, N G) per region."""
        psi = np.empty((self.mesh.n_cells, self.ng))
        for reg, alpha, part in zip(self.regions, *solution):
            psi[reg.cells] = (reg.at_centres(alpha, part) @ reg.expand).real
        return FluxField.from_psi(self.mesh.centers, psi, self.quad)


def solve_alpha(system: GlobalSystem) -> np.ndarray:
    """One alpha per region, (R, N G), from the system's factor."""
    return system.factor.solve(system.rhs)


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
    within the solver tolerance.  Every point's factors are computed
    afresh, in chunks of EVAL_CHUNK points, which bounds the (points,
    blocks) temporaries; at the cell centres FixedSourceOperator.flux reads
    the stored factors instead.
    """
    alphas, particular = solution
    points = np.atleast_1d(np.asarray(points, dtype=float))
    region = _locate_regions(operator.geometry, points)
    psi = np.zeros((points.size, operator.ng))
    for r, (reg, alpha, part) in enumerate(zip(operator.regions, alphas, particular)):
        idx = np.nonzero(region == r)[0]
        for i in range(0, idx.size, EVAL_CHUNK):
            chunk = idx[i:i + EVAL_CHUNK]
            psi[chunk] = reg.psi_at(alpha, part, points[chunk] - reg.x_left)
    return FluxField.from_psi(points, psi, operator.quad)


def solve_fixed_source(operator: FixedSourceOperator, source: SourceField):
    """Per-region expansion coefficients (no evaluation) and the per-region
    particular data; evaluate_flux takes the pair."""
    particular = operator.particular(source)
    return solve_alpha(operator.system(particular)), particular


def fixed_source_solve(operator: FixedSourceOperator, source: SourceField):
    """Fixed-source solve: (scalar flux (cells, G) at the source-cell centres,
    the solution for evaluate_flux)."""
    solution = solve_fixed_source(operator, source)
    phi = np.empty((operator.mesh.n_cells, operator.n_groups))
    for reg, alpha, part in zip(operator.regions, *solution):
        phi[reg.cells] = (reg.at_centres(alpha, part) @ reg.expand_phi).real
    return phi, solution
