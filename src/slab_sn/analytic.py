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
system M: N G / 2 rows per slab end, its conditions E psi = f on the
angular flux at that edge (_end), and N G rows of angular-flux continuity
per interior interface.  Each interface row touches only the
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
group holds its regions and, for their cells concatenated in slab order,
the anchored block rates, the homogeneous factors at the cell centres
(cells, blocks), the width-only factors (the half-cell step, its source
integral and the recurrence's source multiplier) and the projection and
expansion matrices; the operator adds the factored global system, built
from each group's edge blocks in one product per side, checked once for
singularity.
A source is a SourceField on the operator's mesh, an isotropic emission
S (cells, G) with S/2 on every ordinate, so applying the operator costs,
per group and not per region, with no (rows, blocks) array formed: one
product gathering the emission into the blocked workspace of one
FirstOrderScan for J (each region a segment), the scan in place there,
the particular edge values read at the segment ends, and three products
with G columns for the scalar flux at the cell centres (J's term, hom
alpha, and the source term straight from the emission).  Between them
FixedSourceOperator.rhs forms the right-hand side and solve_alpha solves it
with the factor: one forward pass and one block back-substitution in
place on one kept buffer, one contiguous product a region column in each,
on views made once.  A solution is the pair (alphas, source): flux and
evaluate_flux march it again through particular, which checks it, for Psi
and phi at the cell centres and at any points (EVAL_CHUNK a call).

Every block is handled as one complex scalar, taken with the encoding
from the BlockSpectrum: a real eigenvalue lambda as itself, a 2x2 pair
block as conj(z), which is how it acts on u1 + i u2.  The blocks are kept
in scan order: those anchored at the left edge first, then those anchored
at the right edge, whose per-cell arrays run in each region's reversed
cell order.  Both kinds then march forward in one recurrence with the
decaying rate rho (Re rho <= 0), and a cell's upwind edge is the one its
recurrence enters through.
"""

import numpy as np

from .exceptions import PointOutOfDomainError, SingularSystemError, ValidationError
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


def _end(bc, quad: QuadratureSet, side: str, g: int):
    """(E, f): one slab end's N G / 2 conditions E psi = f on the
    group-major angular flux psi (N G) at that edge.  A vacuum or incoming
    end fixes each entering ordinate (mu > 0 on the left, mu < 0 on the
    right), group-major in ascending mu as incoming values run, to f, the
    values or zeros; a reflective end asks psi(mu) - psi(-mu) = 0 for each
    mu > 0, at either end."""
    eye = np.eye(quad.n * g)
    f = bc.values if bc.kind == "incoming" else np.zeros(eye.shape[0] // 2)
    if bc.kind == "reflective":
        # ordinates run in ascending mu, so -mu mirrors mu within its group
        positive = np.tile(quad.mu > 0.0, g)
        return eye[positive] - eye.reshape(g, quad.n, -1)[:, ::-1].reshape(eye.shape)[positive], f
    return eye[np.tile(quad.mu > 0.0 if side == "left" else quad.mu < 0.0, g)], f


def _real_part(matrix: np.ndarray) -> np.ndarray:
    """R with x.view(float) @ R = Re(x @ matrix) for complex x."""
    return np.stack([matrix.real, -matrix.imag], axis=1).reshape(-1, matrix.shape[1])


class _Group:
    """Source-independent data of the regions of one material that share one
    row of width-only factors (blocks in scan order).

    The regions' cells are concatenated in slab order; each region is one
    segment of the group's FirstOrderScan and keeps its left edge x_left,
    its length and its first mesh cell, first.  The forward
    blocks run in cell order and the backward blocks in each region's
    reversed cell order, so both restart at the same rows and a region's
    rows hold the layout a region of its own would have.

    J lives in the scan's blocked workspace, from the gathered sources to
    the centre values.  One row of width-only factors is folded into the
    matrices of those products; a row per cell (graded meshes) is kept in
    the blocked layout, per_row, and applied as one multiply before them.
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
        # (1 + half) phi_half
        length = self.length[self.segment]
        t = mesh.centers[self.cells] - self.x_left[self.segment]
        anchor = np.where(self.forward, t[:, None], (length - t)[self.back, None])
        fwd = np.full(1, width) if width is not None else mesh.widths[self.cells]
        bwd = fwd if width is not None else fwd[self.back]
        upwind = np.where(self.forward, fwd[:, None], bwd[:, None]) / 2.0
        self.hom = exp_block(self.rho, anchor)
        self.half = exp_block(self.rho, upwind)
        self.phi_half = phi_block(self.rho, upwind)
        source_coef = (1.0 + self.half) * self.phi_half
        self.march = march = FirstOrderScan(self.half * self.half, self.cells.size, self.starts)
        # kept for every outer iteration's scan, whose J it holds until the
        # next; its spare buffer is the room in which centre values are built
        self.work = march.workspace(complex)
        # previous[m]: the flattened workspace row before scan row m's, which
        # holds J at row m's upwind edge
        self.previous = np.roll(march.index, 1)
        # the emission's flat index for every blocked row: the G values of
        # the forward blocks' cell, then those of the backward blocks'
        flat = self.cells[:, None] * g + np.arange(g)
        self.gather = march.blocks(np.hstack([flat, flat[self.back]]))
        self.emitted = np.empty(self.gather.shape)
        # source_map takes the gathered emission to the march's sources as
        # real pairs; a row per cell multiplies them by source_coef, and the
        # centre terms by half (one row on, for J's shift) and phi_half
        self.halves = np.stack([self.forward, ~self.forward])
        project = (self.halves[:, None, :] * self.project).reshape(2 * g, -1)
        if width is None:
            half_next = np.concatenate([self.half[1:], self.half[-1:]])
            self.per_row = tuple(march.blocks(a) for a in (source_coef, half_next, self.phi_half))
        else:
            project = project * source_coef
            self.per_row = None
        self.source_map = project.view(float)
        # gather, previous and segment stay writeable: take copies a
        # read-only index array on every call
        for arr in (self.regions, self.x_left, self.length, self.first, self.starts, self.ends,
                    self.cells, self.back, self.forward, self.rho, self.enc,
                    self.expand, self.expand_phi, self.project, self.hom, self.half,
                    self.phi_half, self.halves, self.source_map, *(self.per_row or ())):
            arr.setflags(write=False)
        self.phi_folds = self.folds(self.expand_phi)

    def _sources_into(self, emission: np.ndarray, out: np.ndarray):
        """out (the blocked layout) = the gathered emission @ source_map."""
        np.take(emission, self.gather, out=self.emitted, mode="clip")
        np.matmul(self.emitted.reshape(-1, self.gather.shape[2]), self.source_map,
                  out=out.reshape(-1, self.rho.size).view(float))

    def particular(self, emission: np.ndarray) -> np.ndarray:
        """J where each region's march ends, (regions, blocks), marched across
        every region at once from the group's share of the (cells, G)
        emission in the workspace, where it stays until the next march."""
        y = self.work[0]
        self._sources_into(emission, y)
        if self.per_row is not None:
            y *= self.per_row[0]
        self.march.in_place(self.work)
        return y.reshape(-1, self.rho.size)[self.march.last]

    def folds(self, expand: np.ndarray):
        """centres_into's matrices to Re(x @ expand): theta's from the
        emission (None for a row per cell), then J's and hom alpha's from
        the real view of the blocks to the forward and backward halves."""
        split = (self.halves.T[:, :, None] * expand[:, None, :]).reshape(self.rho.size, -1)
        if self.per_row is not None:
            return None, _real_part(split), _real_part(split)
        theta = ((self.project * self.phi_half) @ expand).real
        return theta, _real_part(self.half.T * split), _real_part(split)

    def edge_blocks(self, side: str) -> np.ndarray:
        """P @ Gtilde at the left or right edge of each of the group's
        regions, (regions, N G, N G) in the real block basis."""
        far = ~self.forward if side == "left" else self.forward
        scale = exp_block(self.rho, np.where(far, self.length[:, None], 0.0))
        return ((self.expand.T * scale[:, None, :]) @ self.enc).real

    def centres_into(self, alphas: np.ndarray, emission: np.ndarray, folds, out: np.ndarray):
        """out[cells] = Re(x @ expand) for the block scalars
        x = hom alpha + half j_in + phi_half theta at every cell centre,
        folds = self.folds(expand), from the march of emission that the
        workspace holds: J's term from the blocked iterate, one row down
        and zero at the segment starts, hom alpha's from the spare rows."""
        theta, j_fold, fold = folds
        y, spare = self.work[:2]
        b = self.rho.size
        if self.per_row is not None:
            y = np.multiply(y, self.per_row[1], out=spare)
        values = (y.reshape(-1, b).view(float) @ j_fold).take(self.previous, axis=0)
        values[self.starts] = 0.0
        if self.per_row is not None:
            self._sources_into(emission, spare)
            spare *= self.per_row[2]
            values += (spare.reshape(-1, b).view(float) @ fold)[self.march.index]
        x = self.march.rows(spare)
        np.take(alphas[self.regions] @ self.enc.T, self.segment, axis=0, out=x, mode="clip")
        x *= self.hom
        values += x.view(float) @ fold
        k = values.shape[1] // 2
        # the backward half's rows return to cell order by a gather
        centre = values[:, :k] + values[self.back, k:]
        if theta is not None:
            centre += emission[self.cells] @ theta
        out[self.cells] = centre

    def psi_at(self, alphas: np.ndarray, emission: np.ndarray, cell: np.ndarray,
               x: np.ndarray) -> np.ndarray:
        """Psi (points, N G) at points x of the group's regions, each in the
        mesh cell given by cell, a cell of its region, from the march of
        emission that the workspace holds."""
        segment = np.searchsorted(self.first, cell, side="right") - 1
        x_left, start = self.x_left[segment], self.starts[segment]
        t = x - x_left
        row = start + cell - self.first[segment]
        row = np.where(self.forward, row[:, None], self.back[row][:, None])
        anchor = np.where(self.forward, t[:, None], (self.length[segment] - t)[:, None])
        upwind = np.where(self.forward, (t - (self.mesh_edges[cell] - x_left))[:, None],
                          ((self.mesh_edges[cell + 1] - x_left) - t)[:, None])
        y = self.work[0].reshape(-1, self.rho.size)
        j_in = np.take_along_axis(y, self.previous[row], axis=0)
        j_in[row == start[:, None]] = 0.0
        x = exp_block(self.rho, anchor) * (alphas[self.regions[segment]] @ self.enc.T)
        x += exp_block(self.rho, upwind) * j_in
        x += phi_block(self.rho, upwind) * (emission[cell] @ self.project)
        return (x @ self.expand).real


def _groups(geometry: SlabGeometry, spectra, mesh: FineMesh, quad: QuadratureSet):
    """The groups, one per (material, width row), each holding its regions.

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
    return tuple(_Group(spectra[material], quad, width, index, geometry, mesh)
                 for (material, width), index in members.items())


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
    alpha_k = y_k - coupling[k] alpha_k+1.  Both run in place on one kept
    buffer y holding rhs: its slice y[k n:k n + h + n] is the rows carried
    into column k followed by interface k's rows, and step[k]'s product
    overwrites it with alpha_k's rows and the rows carried on.
    solve_transposed is the mirror image: it copies b into y and runs the
    transposed coupling blocks, last and steps back over the same views.
    Every product is one np.dot on contiguous operands, so a solve
    allocates only its result (and a factor serves one caller at a time).
    rcond is the Hager/Higham estimate of the reciprocal 1-norm condition
    number of M; below SOLVE_RCOND_MIN the build raises
    SingularSystemError.
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
        y = self._y = np.empty(m * n)
        tmp = np.empty(h + n)
        rows = y.reshape(m, n)
        self._steps = [(self.step[k], y[k * n:k * n + h + n], tmp) for k in range(m - 1)]
        self._steps.append((self.last, y[-n:], tmp[:n]))
        self._back = [(self.coupling[k], rows[k + 1], rows[k], tmp[:n])
                      for k in range(m - 2, -1, -1)]
        self._steps_t = [(a.T, part, out) for a, part, out in reversed(self._steps)]
        self._back_t = [(a.T, row, previous, out)
                        for a, previous, row, out in reversed(self._back)]
        self.rcond = _rcond_estimate(column_sums.max(), self.solve,
                                     self.solve_transposed, m * n)
        if not self.rcond >= SOLVE_RCOND_MIN:
            raise _singular(self.rcond)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """alpha (R, n) with M alpha = rhs, rhs in row order."""
        np.copyto(self._y, rhs)
        for matrix, part, out in self._steps:
            np.copyto(part, np.dot(matrix, part, out))
        for matrix, previous, row, out in self._back:
            np.subtract(row, np.dot(matrix, previous, out), row)
        return self._y.reshape(self.n_regions, -1).copy()

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """x in row order with M^T x = b, b (R n) in alpha order: solve's
        passes transposed, in reverse order."""
        np.copyto(self._y, b.reshape(-1))
        for matrix, previous, row, out in self._back_t:
            np.subtract(row, np.dot(matrix, previous, out), row)
        for matrix, part, out in self._steps_t:
            np.copyto(part, np.dot(matrix, part, out))
        return self._y.copy()


class FixedSourceOperator:
    """The source-independent part of the analytic fixed-source solve.

    Built once per (geometry, spectra, mesh, quadrature), on a mesh that
    fits the geometry: the groups, each with its regions, block data and
    cell-centre factors, and the InterfaceFactor of the global
    boundary/continuity system, checked once (SingularSystemError below an
    estimated 1-norm rcond of 1e-14; rcond keeps the estimate).  spectra
    (kept) maps material name -> BlockSpectrum.  Nothing here changes
    after construction; solve_fixed_source and fixed_source_solve apply it
    to one source at a time, and flux reads the cell-centre angular flux.
    """

    def __init__(self, geometry: SlabGeometry, spectra, mesh: FineMesh,
                 quad: QuadratureSet):
        self.geometry = geometry
        self.mesh = mesh
        self.quad = quad
        self.spectra = spectra
        self.groups = _groups(geometry, spectra, mesh, quad)
        self.ng = self.groups[0].enc.shape[1]
        self.n_groups = self.ng // quad.n

        # P @ Gtilde at every region's left and right edge
        left = np.empty((geometry.n_regions, self.ng, self.ng))
        right = np.empty_like(left)
        for group in self.groups:
            left[group.regions] = group.edge_blocks("left")
            right[group.regions] = group.edge_blocks("right")
        # each end's conditions (E, f), for the factor and every rhs
        self.bcs = (_end(geometry.bc_left, quad, "left", self.n_groups),
                    _end(geometry.bc_right, quad, "right", self.n_groups))
        (e_left, _), (e_right, _) = self.bcs
        self.factor = InterfaceFactor(e_left @ left[0], right[:-1], -left[1:],
                                      e_right @ right[-1])
        self.rcond = self.factor.rcond

    def particular(self, source: SourceField):
        """Each group's J where its regions' marches end, (regions, blocks),
        for a source that SourceField.require_on accepts for this operator."""
        source.require_on(self.mesh, self.n_groups)
        return [group.particular(source.emission) for group in self.groups]

    def rhs(self, ends) -> np.ndarray:
        """Right-hand side of the global system from the groups' march ends
        (particular), rows left boundary, interface 0 .. R-2, right boundary."""
        left = np.empty((self.geometry.n_regions, self.ng))
        right = np.empty_like(left)
        # the particular angular flux at every region's edges: the backward
        # blocks' march ends at the left edge, the forward blocks' at the right
        for group, end in zip(self.groups, ends):
            nf = group.nf
            left[group.regions] = (end[:, nf:] @ group.expand[nf:]).real
            right[group.regions] = (end[:, :nf] @ group.expand[:nf]).real
        (e_left, f_left), (e_right, f_right) = self.bcs
        return np.concatenate([f_left - e_left @ left[0], (left[1:] - right[:-1]).ravel(),
                               f_right - e_right @ right[-1]])

    def flux(self, solution) -> FluxField:
        """Angular and scalar flux at the cell centres for the (alphas,
        source) pair solve_fixed_source returns, from the stored factors:
        the source marches once more (particular), and each group's terms
        reach Psi through products with N G columns."""
        alphas, source = solution
        self.particular(source)
        psi = np.empty((self.mesh.n_cells, self.ng))
        for group in self.groups:
            group.centres_into(alphas, source.emission, group.folds(group.expand), psi)
        return FluxField.from_psi(self.mesh.centers, psi, self.quad)


def solve_alpha(factor: InterfaceFactor, rhs: np.ndarray) -> np.ndarray:
    """One alpha per region, (R, N G), solving the factored global system."""
    return factor.solve(rhs)


def evaluate_flux(operator: FixedSourceOperator, solution, points) -> FluxField:
    """Angular and scalar flux at arbitrary points inside the slab.

    solution is the (alphas, source) pair solve_fixed_source returns for
    this operator; points is a scalar or a 1-D sequence.  A point on a
    region interface is evaluated in the region on its left (continuity
    makes the choice immaterial to within the solver tolerance), in the
    cell of that region whose closed span holds it, the left one on a cell
    edge.  The source marches once more (particular), and each group
    computes its points' factors afresh, EVAL_CHUNK points a call, which
    bounds the (points, blocks) temporaries; FixedSourceOperator.flux reads
    the stored factors at the cell centres instead.
    """
    alphas, source = solution
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if points.ndim != 1:
        raise ValidationError(f"points must be a scalar or a 1-D sequence, not shape {points.shape}")
    edges, offsets = operator.geometry.edges, operator.mesh.offsets
    if not np.all((points >= edges[0]) & (points <= edges[-1])):
        raise PointOutOfDomainError(f"points outside [{edges[0]}, {edges[-1]}]")
    region = np.searchsorted(edges[1:], points, side="left")
    cell = np.clip(np.searchsorted(operator.mesh.edges[1:], points, side="left"),
                   offsets[region], offsets[region + 1] - 1)
    operator.particular(source)
    psi = np.empty((points.size, operator.ng))
    for group in operator.groups:
        idx = np.flatnonzero(np.isin(region, group.regions))
        for k in range(0, idx.size, EVAL_CHUNK):
            chunk = idx[k:k + EVAL_CHUNK]
            psi[chunk] = group.psi_at(alphas, source.emission, cell[chunk], points[chunk])
    return FluxField.from_psi(points, psi, operator.quad)


def solve_fixed_source(operator: FixedSourceOperator, source: SourceField):
    """Per-region expansion coefficients (no evaluation) and the source:
    the (alphas, source) pair that evaluate_flux and
    FixedSourceOperator.flux take."""
    rhs = operator.rhs(operator.particular(source))
    return solve_alpha(operator.factor, rhs), source


def fixed_source_solve(operator: FixedSourceOperator, source: SourceField):
    """Fixed-source solve: (scalar flux (cells, G) at the source-cell centres,
    the solution for evaluate_flux).  The flux is read from each group's
    march, which its workspace holds until the group's next one."""
    solution = solve_fixed_source(operator, source)
    phi = np.empty((operator.mesh.n_cells, operator.n_groups))
    for group in operator.groups:
        group.centres_into(solution[0], source.emission, group.phi_folds, phi)
    return phi, solution
