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
is therefore built once per problem, by eigen.build_operator.  It gathers
the regions into groups, one per material and row of width-only factors:
regions whose cell widths agree to WIDTH_RTOL, as on build_fine_mesh
meshes, share one row at their nominal width L / m, and the other regions
of a material (graded meshes) share a group with one row per cell.  Each
group holds, for its cells concatenated in slab order, the anchored block
rates, the homogeneous factors at the cell centres (cells, blocks), the
width-only factors (the half-cell step, its source integral and the
recurrence's source multiplier) and the projection and expansion matrices;
the operator adds the factored global system, built from each group's edge
blocks in one product per side and checked once for singularity.
A source is a SourceField on the operator's mesh, an isotropic emission
S (cells, G) with S/2 on every ordinate, so applying the operator costs,
per group and not per region: one (G, blocks) projection, one
FirstOrderScan for J in which each region is a segment, the particular
edge values read at the segment ends, and one (blocks, G) expansion of the
scalar flux at the cell centres.  Between them
FixedSourceOperator.rhs forms the right-hand side and solve_alpha solves it
with the factor: one forward pass and one block back-substitution, two
numpy calls a region column on views made once.
FixedSourceOperator.flux gives Psi and phi at the cell centres from the
same stored factors; evaluate_flux gives them at any points.

Every block is handled as one complex scalar, taken with the encoding
from the BlockSpectrum: a real eigenvalue lambda as itself, a 2x2 pair
block as conj(z), which is how it acts on u1 + i u2.  The blocks are kept
in scan order: those anchored at the left edge first, then those anchored
at the right edge, whose per-cell arrays run in each region's reversed
cell order.  Both kinds then march forward in one recurrence with the
decaying rate rho (Re rho <= 0), and a cell's upwind edge is the one its
recurrence enters through.
"""

from typing import NamedTuple

import numpy as np

from .exceptions import PointOutOfDomainError, SingularSystemError
from .mesh import FineMesh, FluxField, SourceField
from .model import QuadratureSet, SlabGeometry
from .recurrence import FirstOrderScan
from .spectral import BlockSpectrum, exp_block, phi_block

SOLVE_RCOND_MIN = 1e-14
# a region's cells share one row of width-only factors when their widths
# spread by at most this much relative to the nominal width, and regions of
# one material share the row when their nominal widths agree as closely;
# uniform linspace meshes spread by 7e-14 (pincell, M = 700) to 3e-12
# (M = 20000)
WIDTH_RTOL = 1e-10
RCOND_ITERATIONS = 5
EVAL_CHUNK = 256


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
    boundary condition constrains: incoming ordinates (group-major), or
    incoming minus mirrored outgoing for a reflective end."""
    g = values.shape[0] // quad.n
    if bc.kind == "reflective":
        pos, neg = _pair_rows(quad, g)
        return values[pos] - values[neg]
    return values[np.tile(quad.mu > 0.0 if side == "left" else quad.mu < 0.0, g)]


class _Particular(NamedTuple):
    """Source-dependent data of one group, per row in scan order."""

    theta: np.ndarray   # (rows, blocks) source over mu, signed along the march
    j_in: np.ndarray    # (rows, blocks) particular solution at each cell's upwind edge
    ends: np.ndarray    # (regions, blocks) particular solution where each region's march ends


class _Group:
    """Source-independent data of the regions of one material that share one
    row of width-only factors (blocks in scan order).

    The regions' cells are concatenated in slab order; each region is one
    segment of the group's FirstOrderScan and keeps its left edge x_left,
    its length and its first mesh cell, first.  The forward
    blocks run in cell order and the backward blocks in each region's
    reversed cell order, so both restart at the same rows and a region's
    rows hold the layout a region of its own would have.
    """

    def __init__(self, spec: BlockSpectrum, quad: QuadratureSet, width, regions,
                 geometry: SlabGeometry, mesh: FineMesh):
        self.regions = np.asarray(regions)
        self.x_left = geometry.edges[self.regions]
        self.length = geometry.edges[self.regions + 1] - self.x_left
        # region i's cells are mesh cells first[i] .. and its rows run from
        # starts[i] to (exclusive) ends[i]
        self.mesh_edges, self.first = mesh.edges, mesh.offsets[self.regions]
        counts = mesh.offsets[self.regions + 1] - self.first
        offsets = np.concatenate([[0], np.cumsum(counts)])
        self.starts, self.ends = offsets[:-1], offsets[1:]
        # segment[m]: the group's region that row m belongs to
        self.segment = np.repeat(np.arange(counts.size), counts)
        rows = np.arange(offsets[-1])
        self.cells = (self.first - self.starts)[self.segment] + rows
        # back[m]: the row of cells that scan row m of the backward blocks
        # holds (each region reversed in place, so back is its own inverse)
        self.back = (self.starts + self.ends - 1)[self.segment] - rows
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
        # its integral phi_half at one row of the shared width, or at one row
        # per cell when width is None.  The recurrence's full-cell step and
        # source multipliers are half**2 (kept in the scan) and
        # source_coef = (1 + half) phi_half
        length = self.length[self.segment]
        t = mesh.centers[self.cells] - self.x_left[self.segment]
        anchor = np.where(self.forward, t[:, None], (length - t)[self.back, None])
        fwd = np.full(1, width) if width is not None else mesh.widths[self.cells]
        bwd = fwd if width is not None else fwd[self.back]
        upwind = np.where(self.forward, fwd[:, None], bwd[:, None]) / 2.0
        self.hom = exp_block(self.rho, anchor)
        self.half = exp_block(self.rho, upwind)
        self.phi_half = phi_block(self.rho, upwind)
        self.source_coef = (1.0 + self.half) * self.phi_half
        for arr in (self.regions, self.x_left, self.length, self.first, self.starts, self.ends,
                    self.segment, self.cells, self.back, self.forward, self.rho, self.enc,
                    self.expand, self.expand_phi, self.project, self.hom, self.half,
                    self.phi_half, self.source_coef):
            arr.setflags(write=False)
        self.march = FirstOrderScan(self.half * self.half, self.cells.size, self.starts)
        # kept for every outer iteration's scan, and between scans the
        # room in which the source and the centre values are built
        self.work = self.march.workspace(complex)

    def particular(self, emission: np.ndarray) -> _Particular:
        """Project the group's share of the (cells, G) emission and march J
        across every region at once."""
        nf = self.nf
        # theta and J share one allocation, so that the next outer
        # iteration's can take its place; j[m + 1] is J after scan row m,
        # and once the segment ends are read j[:-1] becomes J at every row's
        # upwind edge, zero at the starts
        theta, j = np.empty((2, self.cells.size + 1, self.rho.size), dtype=complex)
        theta = theta[:-1]
        own = emission[self.cells]
        np.matmul(own, self.project[:, :nf], out=theta[:, :nf])
        np.matmul(own[self.back], self.project[:, nf:], out=theta[:, nf:])
        b = np.multiply(self.source_coef, theta, out=self.march.rows(self.work[1]))
        self.march(b, out=j[1:], work=self.work)
        ends = j[self.ends]
        j[self.starts] = 0.0
        return _Particular(theta, j[:-1], ends)

    def edge_blocks(self, side: str) -> np.ndarray:
        """P @ Gtilde at the left or right edge of each of the group's
        regions, (regions, N G, N G) in the real block basis."""
        far = ~self.forward if side == "left" else self.forward
        scale = exp_block(self.rho, np.where(far, self.length[:, None], 0.0))
        return ((self.expand.T * scale[:, None, :]) @ self.enc).real

    def centres_into(self, alphas: np.ndarray, part: _Particular, expand: np.ndarray,
                     out: np.ndarray):
        """out[cells] = Re(x @ expand) for the block scalars
        x = hom alpha + half j_in + phi_half theta at every cell centre,
        from the stored factors.  x is built in scan order in the
        workspace."""
        x, term = (self.march.rows(w) for w in self.work[:2])
        np.multiply(self.half, part.j_in, out=x)
        x += np.multiply(self.phi_half, part.theta, out=term)
        # each region's enc @ alpha on its rows
        np.take(alphas[self.regions] @ self.enc.T, self.segment, axis=0, out=term)
        term *= self.hom
        x += term
        nf = self.nf
        # the backward half's rows return to cell order by a gather of the
        # real result, before the forward half's product is formed
        values = (x[:, nf:] @ expand[nf:]).real[self.back]
        values += (x[:, :nf] @ expand[:nf]).real
        out[self.cells] = values

    def psi_at(self, i: int, alpha: np.ndarray, part: _Particular,
               t: np.ndarray) -> np.ndarray:
        """Psi (points, N G) at local coordinates t, each in [0, L], of the
        group's region i."""
        rows = slice(self.starts[i], self.ends[i])
        m = rows.stop - rows.start
        t_edges = self.mesh_edges[self.first[i]:self.first[i] + m + 1] - self.x_left[i]
        cell = np.clip(np.searchsorted(t_edges[1:], t, side="left"), 0, m - 1)
        row = np.where(self.forward, cell[:, None], m - 1 - cell[:, None])
        anchor = np.where(self.forward, t[:, None], (self.length[i] - t)[:, None])
        upwind = np.where(self.forward, (t - t_edges[cell])[:, None],
                          (t_edges[cell + 1] - t)[:, None])
        j_in = np.take_along_axis(part.j_in[rows], row, axis=0)
        theta = np.take_along_axis(part.theta[rows], row, axis=0)
        x = exp_block(self.rho, anchor) * (self.enc @ alpha)
        x += exp_block(self.rho, upwind) * j_in
        x += phi_block(self.rho, upwind) * theta
        return (x @ self.expand).real


def _groups(geometry: SlabGeometry, spectra, mesh: FineMesh, quad: QuadratureSet):
    """The (group, index there) of every region, and the groups, keyed by
    (material, width row).

    The mesh must fit the geometry (FineMesh.require_fit).  A region whose
    cell widths spread by at most WIDTH_RTOL of its nominal width L / m
    joins the first group of its material whose width agrees with that
    nominal width to WIDTH_RTOL, or starts one; the others (graded meshes)
    share one group per material with a row per cell.
    """
    mesh.require_fit(geometry)
    widths, first = mesh.widths, mesh.offsets[:-1]
    nominal = np.diff(geometry.edges) / np.diff(mesh.offsets)
    uneven = np.maximum.reduceat(widths, first) - np.minimum.reduceat(widths, first) \
        > WIDTH_RTOL * nominal
    members = {}
    for r, (material, width) in enumerate(zip(geometry.materials, nominal.tolist())):
        if uneven[r]:
            width = None
        else:
            width = next((w for m, w in members if m == material and w is not None
                          and abs(w - width) <= WIDTH_RTOL * w), width)
        members.setdefault((material, width), []).append(r)
    groups, regions = [], [None] * geometry.n_regions
    for (material, width), index in members.items():
        for i, r in enumerate(index):
            regions[r] = (len(groups), i)
        groups.append(_Group(spectra[material], quad, width, index, geometry, mesh))
    return tuple(regions), tuple(groups)


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
    pairs stacked as on_k (R-1, n, n), rows on alpha_k, and on_next
    (R-1, n, n), rows on alpha_k+1, and the right boundary rows (h, n) on
    alpha_R-1, with h = n / 2.  Column k's panel is the h rows carried from
    column k-1 (the left boundary for k = 0) over interface k; its complete
    QR leaves n pivot rows R_k alpha_k + C_k alpha_k+1 and h rows carried to
    column k+1, both from one product Q_k^T[:, h:] on_next[k].  The last
    panel, carried rows over the right boundary, is square.  Per column the
    factor keeps

        step[k] = [R_k^-1 Q_k^T[:n]; Q_k^T[n:]]   (h+n, h+n)
        coupling[k] = R_k^-1 C_k                   (n, n)

    and last = R^-1 Q^T of the final panel, so a solve is one forward pass
    through the steps and one block back-substitution
    alpha_k = y_k - coupling[k] alpha_k+1.  Both passes, and those of
    solve_transposed, run on buffers and per-column views made at build,
    two numpy calls a column, so a solve allocates only its result (and a
    factor serves one caller at a time).  Each product takes the operands
    of the plain loop, so BLAS runs the same gemv: np.dot where the matrix
    is contiguous (C or F order), at less call overhead than np.matmul,
    and np.matmul for the forward pass's strided column block, which
    np.dot would copy.  rcond is the Hager/Higham estimate of the
    reciprocal 1-norm condition number of M; below SOLVE_RCOND_MIN the
    build raises SingularSystemError.
    """

    def __init__(self, left: np.ndarray, on_k: np.ndarray, on_next: np.ndarray,
                 right: np.ndarray):
        h, n = left.shape
        m = self.n_regions = on_k.shape[0] + 1
        self.step = np.empty((m - 1, h + n, h + n))
        self.coupling = np.empty((m - 1, n, n))
        column_sums = np.zeros((m, n))
        column_sums[:-1] += np.abs(on_k).sum(axis=1)
        column_sums[1:] += np.abs(on_next).sum(axis=1)
        column_sums[0] += np.abs(left).sum(axis=0)
        column_sums[-1] += np.abs(right).sum(axis=0)
        # the rows carried from the previous column over the next interface
        panel = np.empty((h + n, n))
        panel[:h] = left
        for k in range(m - 1):
            panel[h:] = on_k[k]
            q, r = np.linalg.qr(panel, mode="complete")
            r_inv = _inverse(r[:n])
            c = q[h:].T @ on_next[k]
            np.matmul(r_inv, q[:, :n].T, out=self.step[k, :n])
            self.step[k, n:] = q[:, n:].T
            np.matmul(r_inv, c[:n], out=self.coupling[k])
            panel[:h] = c[n:]
        panel[h:n] = right
        q, r = np.linalg.qr(panel[:n])
        self.last = _inverse(r) @ q.T
        for arr in (self.step, self.coupling, self.last):
            arr.setflags(write=False)
        # solve: y[k n:k n + h] holds the rows carried into column k, which
        # its sum replaces by alpha_k and the rows carried on.  Transposed:
        # w[k] holds b's row k, then the rows carried into step k, whose
        # product lands at x[k n:k n + h + n]; its carried part is copied
        # beside w[k - 1] (column 0's into the spare end of w's last row)
        y, w, x = np.empty(m * n), np.empty((m, n + h)), np.empty(m * n)
        self._y, self._w, self._x, self._tmp = y, w, x, np.empty(h + n)
        self._pre = np.empty((m - 1, h + n))
        self._forward = [(self.step[k, :, :h], y[k * n:k * n + h], self._pre[k],
                          y[k * n:k * n + h + n]) for k in range(m - 1)]
        rows = y.reshape(m, n)
        self._back = [(self.coupling[k], rows[k + 1], rows[k]) for k in range(m - 2, -1, -1)]
        self._back_t = [(self.coupling[k - 1].T, w[k - 1, :n], w[k, :n]) for k in range(1, m)]
        self._steps_t = [(self.last.T, w[m - 1, :n], x[-n:], x[-n:-h], w[m - 2, n:])] + [
            (self.step[k].T, w[k], x[k * n:k * n + h + n], x[k * n:k * n + h], w[k - 1, n:])
            for k in range(m - 2, -1, -1)]
        self.rcond = _rcond_estimate(column_sums.max(), self.solve,
                                     self.solve_transposed, m * n)
        if not self.rcond >= SOLVE_RCOND_MIN:
            raise _singular(self.rcond)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """alpha (R, n) with M alpha = rhs, rhs in row order."""
        n = self.last.shape[0]
        h = n // 2
        y, tmp = self._y, self._tmp
        # the interface rows' share of every step, all columns at once
        np.matmul(self.step[:, :, h:], rhs[h:-h].reshape(-1, n, 1), self._pre[:, :, None])
        y[:h] = rhs[:h]
        for matrix, previous, pre, row in self._forward:
            np.add(np.matmul(matrix, previous, tmp), pre, row)
        y[-h:] = rhs[-h:]
        tmp = tmp[:n]
        y[-n:] = np.dot(self.last, y[-n:], tmp)
        for matrix, previous, row in self._back:
            np.subtract(row, np.dot(matrix, previous, tmp), row)
        return y.reshape(self.n_regions, n).copy()

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """x in row order with M^T x = b, b (R n) in alpha order: the
        transposes of solve's steps in reverse order."""
        n = self.last.shape[0]
        self._w[:, :n] = b.reshape(self.n_regions, n)
        tmp = self._tmp[:n]
        for matrix, previous, row in self._back_t:
            np.subtract(row, np.dot(matrix, previous, tmp), row)
        for matrix, vector, out, carried, beside in self._steps_t:
            np.dot(matrix, vector, out)
            np.copyto(beside, carried)
        return self._x.copy()


def _incoming(bc):
    return bc.values if bc.kind == "incoming" else 0.0


class FixedSourceOperator:
    """The source-independent part of the analytic fixed-source solve.

    Built once per (geometry, spectra, mesh, quadrature), on a mesh that
    fits the geometry: the per-group block data and cell-centre factors,
    regions[r] = (group, index) of region r there, and the InterfaceFactor
    of the global boundary/continuity system, checked once
    (SingularSystemError below an estimated 1-norm rcond of 1e-14; rcond
    keeps the estimate).  spectra (kept) maps material name ->
    BlockSpectrum.  Nothing here changes after construction;
    solve_fixed_source and fixed_source_solve apply it to one source at a
    time, and flux reads a solution's angular flux at the cell centres.
    """

    def __init__(self, geometry: SlabGeometry, spectra, mesh: FineMesh,
                 quad: QuadratureSet):
        self.geometry = geometry
        self.mesh = mesh
        self.quad = quad
        self.spectra = spectra
        self.regions, self.groups = _groups(geometry, spectra, mesh, quad)
        self.ng = self.groups[0].enc.shape[1]
        self.n_groups = self.ng // quad.n

        # P @ Gtilde at every region's left and right edge
        left = np.empty((geometry.n_regions, self.ng, self.ng))
        right = np.empty_like(left)
        for group in self.groups:
            left[group.regions] = group.edge_blocks("left")
            right[group.regions] = group.edge_blocks("right")
        self.factor = InterfaceFactor(
            _bc_combination(geometry.bc_left, quad, "left", left[0]), right[:-1], -left[1:],
            _bc_combination(geometry.bc_right, quad, "right", right[-1]))
        self.rcond = self.factor.rcond

    def particular(self, source: SourceField):
        """Per-group projected source and particular solution of a source
        that SourceField.require_on accepts for this operator."""
        source.require_on(self.mesh, self.n_groups)
        return [group.particular(source.emission) for group in self.groups]

    def rhs(self, particular) -> np.ndarray:
        """Right-hand side of the global system for one source, rows left
        boundary, interface 0 .. R-2, right boundary."""
        left = np.empty((len(self.regions), self.ng))
        right = np.empty_like(left)
        # the particular angular flux at every region's edges: the backward
        # blocks' march ends at the left edge, the forward blocks' at the right
        for group, part in zip(self.groups, particular):
            nf = group.nf
            left[group.regions] = (part.ends[:, nf:] @ group.expand[nf:]).real
            right[group.regions] = (part.ends[:, :nf] @ group.expand[:nf]).real
        geo, quad = self.geometry, self.quad
        return np.concatenate([
            _incoming(geo.bc_left) - _bc_combination(geo.bc_left, quad, "left", left[0]),
            (left[1:] - right[:-1]).ravel(),
            _incoming(geo.bc_right) - _bc_combination(geo.bc_right, quad, "right", right[-1])])

    def flux(self, solution) -> FluxField:
        """Angular and scalar flux at the cell centres for the (alphas,
        particular) pair solve_fixed_source returns, from the stored
        factors: one (rows, blocks) @ (blocks, N G) per group."""
        psi = np.empty((self.mesh.n_cells, self.ng))
        for group, part in zip(self.groups, solution[1]):
            group.centres_into(solution[0], part, group.expand, psi)
        return FluxField.from_psi(self.mesh.centers, psi, self.quad)


def solve_alpha(factor: InterfaceFactor, rhs: np.ndarray) -> np.ndarray:
    """One alpha per region, (R, N G), solving the factored global system."""
    return factor.solve(rhs)


def _locate_regions(geometry: SlabGeometry, points: np.ndarray) -> np.ndarray:
    if not np.all((points >= geometry.edges[0]) & (points <= geometry.edges[-1])):
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
    for r, ((g, i), alpha) in enumerate(zip(operator.regions, alphas)):
        group = operator.groups[g]
        idx = np.nonzero(region == r)[0]
        for k in range(0, idx.size, EVAL_CHUNK):
            chunk = idx[k:k + EVAL_CHUNK]
            psi[chunk] = group.psi_at(i, alpha, particular[g], points[chunk] - group.x_left[i])
    return FluxField.from_psi(points, psi, operator.quad)


def solve_fixed_source(operator: FixedSourceOperator, source: SourceField):
    """Per-region expansion coefficients (no evaluation) and the per-group
    particular data; evaluate_flux takes the pair."""
    particular = operator.particular(source)
    return solve_alpha(operator.factor, operator.rhs(particular)), particular


def fixed_source_solve(operator: FixedSourceOperator, source: SourceField):
    """Fixed-source solve: (scalar flux (cells, G) at the source-cell centres,
    the solution for evaluate_flux)."""
    solution = solve_fixed_source(operator, source)
    phi = np.empty((operator.mesh.n_cells, operator.n_groups))
    for group, part in zip(operator.groups, solution[1]):
        group.centres_into(solution[0], part, group.expand_phi, phi)
    return phi, solution
