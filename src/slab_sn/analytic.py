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
the regions into groups, one per material, row of width-only factors and
kind of block (below): regions whose cell widths agree to WIDTH_RTOL, as
on build_fine_mesh meshes, share one row at their nominal width L / m, and
the other regions of a material (graded meshes) share a group with one
row per cell.  Each group holds its regions and, for their cells
concatenated in slab order, the anchored block rates, the homogeneous
factors at the cell centres as two power tables (of about sqrt(cells) rows
at a shared width), the width-only factors (the half-cell step, its source
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
alpha's over the power tables' rows, gathered to the cells, and the
source term straight from the emission).  Between them
FixedSourceOperator.rhs forms the right-hand side and solve_alpha solves it
with the factor: one forward pass and one block back-substitution in
place on one kept buffer, one contiguous product a region column in each,
on views made once.  A Solution (operator, alphas, source) is read only by
its operator, from the march of its source, which the operator records
and marches again only after marching another: flux at the cell centres
a chunk of rows at a time, and evaluate_flux at EVAL_CHUNK points a call.

Every block is handled as one scalar, taken with the encoding from the
BlockSpectrum: a real eigenvalue lambda as itself, a 2x2 pair block as the
complex conj(z), which is how it acts on u1 + i u2.  Each group holds one
kind of block: for every (material, width row) one group takes the real
rates and holds all its block data in float64, and, when the material has
complex pairs, a second group of the same regions takes the pairs in
complex128, sharing the first's row data (_Rows) and gathered emission.
Each group so owns its blocks' columns of alpha, and the groups of a
region add their shares of its edge blocks, right-hand side and flux.
Within a group the blocks are kept in scan order: those anchored at the
left edge first, then those anchored at the right edge, whose per-cell
arrays run in each region's reversed cell order.  Both kinds then march
forward in one recurrence with the decaying rate rho (Re rho <= 0), and
a cell's upwind edge is the one its recurrence enters through.
"""

import threading

import numpy as np

from .exceptions import PointOutOfDomainError, SingularSystemError, ValidationError
from .mesh import FineMesh, FluxField, Solution, SourceField
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


def _end(kind: str, f: np.ndarray, quad: QuadratureSet, side: str):
    """(E, f): one slab end's N G / 2 conditions E psi = f on the
    group-major angular flux psi (N G) at that edge, f the end's entering
    fluxes (SlabGeometry.entering).  A vacuum or incoming end fixes each
    entering ordinate (mu > 0 on the left, mu < 0 on the right),
    group-major in ascending mu, to f; a reflective end asks
    psi(mu) - psi(-mu) = 0 for each mu > 0, at either end."""
    eye = np.eye(2 * f.size)
    g = eye.shape[0] // quad.n
    if kind == "reflective":
        # ordinates run in ascending mu, so -mu mirrors mu within its group
        positive = np.tile(quad.mu > 0.0, g)
        return eye[positive] - eye.reshape(g, quad.n, -1)[:, ::-1].reshape(eye.shape)[positive], f
    return eye[np.tile(quad.mu > 0.0 if side == "left" else quad.mu < 0.0, g)], f


def _real_part(matrix: np.ndarray) -> np.ndarray:
    """R with _floats(x) @ R = Re(x @ matrix) for x of matrix's dtype: a
    real matrix itself."""
    if not np.iscomplexobj(matrix):
        return matrix
    return np.stack([matrix.real, -matrix.imag], axis=1).reshape(-1, matrix.shape[1])


def _floats(x: np.ndarray) -> np.ndarray:
    """x's values as float64: a complex array's (re, im) pairs, a real
    array itself."""
    return x.view(float) if np.iscomplexobj(x) else x


class _Rows:
    """Block-independent data of the regions of one material that share one
    row of width-only factors, kept once for the groups of their kinds of
    block.

    The regions' cells are concatenated in slab order; each region is one
    segment of a group's FirstOrderScan and keeps its left edge x_left,
    its length and its first mesh cell, first.  The forward blocks run in
    cell order and the backward blocks in each region's reversed cell
    order, so both restart at the same rows and a region's rows hold the
    layout a region of its own would have.  emitted holds the emission
    gathered into that layout, which every group of the rows marches.
    """

    def __init__(self, width, regions, geometry: SlabGeometry, mesh: FineMesh, g: int):
        self.width = width
        self.regions = np.asarray(regions)
        self.x_left = geometry.edges[self.regions]
        self.length = geometry.edges[self.regions + 1] - self.x_left
        # region i's cells are mesh cells first[i] .. and its rows run from
        # starts[i] to (exclusive) ends[i]
        self.mesh_edges, self.first = mesh.edges, mesh.offsets[self.regions]
        counts = mesh.offsets[self.regions + 1] - self.first
        offsets = np.concatenate([[0], np.cumsum(counts)])
        self.starts, self.ends = offsets[:-1], offsets[1:]
        # segment[m]: the region that row m belongs to
        segment = np.repeat(np.arange(counts.size), counts)
        rows = np.arange(offsets[-1])
        self.cells = (self.first - self.starts)[segment] + rows
        # back[m]: the row of cells that scan row m of the backward blocks
        # holds (each region reversed in place, so back is its own inverse)
        self.back = (self.starts + self.ends - 1)[segment] - rows
        # the cell widths of the forward and the backward blocks' rows: one
        # row of the shared width, or one row per cell when width is None
        self.fwd = np.full(1, width) if width is not None else mesh.widths[self.cells]
        self.bwd = self.fwd if width is not None else self.fwd[self.back]
        # the homogeneous factor exp(rho anchor) at row m is p[i] q[k], (k,
        # i) = divmod(l, span) of its local row l.  At a shared width both
        # kinds of block anchor row l of a segment at (l + 1/2) width, so p
        # and q are powers of one factor, span = ceil(sqrt(longest segment))
        # rows each; a row per cell keeps its anchors in p (l = m, span =
        # rows) and q is one row of ones.  anchors holds p's anchors for the
        # forward and the backward blocks, and q_anchor q's
        if width is None:
            t = mesh.centers[self.cells] - self.x_left[segment]
            span, local = rows.size, rows
            self.anchors = (t[:, None], (self.length[segment] - t)[self.back, None])
        else:
            span = int(np.ceil(np.sqrt(counts.max())))
            local = rows - self.starts[segment]
            self.anchors = (((np.arange(span) + 0.5) * width)[:, None],) * 2
        k, i = np.divmod(local, span)
        self.q_anchor = np.arange(k.max() + 1)[:, None] * (span * self.fwd[0])
        # each (segment, k) pair that occurs is a row of _coefficients, and
        # pick[m] = pair[m] span + i
        keys, pair = np.unique(segment * len(self.q_anchor) + k, return_inverse=True)
        self.pair_segment, self.pair_k = np.divmod(keys, len(self.q_anchor))
        self.pick = pair * span + i
        # the row layout of the groups' scans, whatever their columns
        layout = FirstOrderScan(np.ones((len(self.fwd), 1)), rows.size, self.starts)
        # previous[m]: the flattened workspace row before scan row m's, which
        # holds J at row m's upwind edge
        self.previous = np.roll(layout.index, 1)
        # the emission's flat index for every blocked row: the G values of
        # the forward blocks' cell, then those of the backward blocks'; flat
        # holds the same index in cell order, through which centres_into
        # adds to the scalar flux
        flat = self.cells[:, None] * g + np.arange(g)
        self.gather = layout.blocks(np.hstack([flat, flat[self.back]]))
        self.flat = flat.reshape(-1)
        self.emitted = np.empty(self.gather.shape)
        # gather, previous and pick stay writeable: take copies a
        # read-only index array on every call
        for arr in (self.regions, self.x_left, self.length, self.first, self.starts, self.ends,
                    self.cells, self.back, self.fwd, self.bwd, *self.anchors, self.q_anchor,
                    self.pair_segment, self.pair_k, self.flat):
            arr.setflags(write=False)


class _Group:
    """Source-independent data of one kind of block (in scan order) of the
    regions of one material that share one row of width-only factors: the
    real rates, all data float64, or the complex pairs, complex128.  The
    rows' data (_Rows) is shared with the group of the regions' other kind,
    and read as the group's own attributes.

    J lives in the scan's blocked workspace, from the gathered sources to
    the centre values, which its scratch builds a chunk of rows at a time.
    One row of width-only factors is folded into the matrices of the
    scalar flux's products; a row per cell (graded meshes) multiplies the
    march's sources in the blocked layout, per_row, and its terms before
    the products with the expansion (scalars_into).  The homogeneous
    factor at row m is p[i] q[k], two power tables of about sqrt(rows) rows
    at a shared width, read through pick: no (rows, blocks) table is kept.
    """

    def __init__(self, spec: BlockSpectrum, blocks: np.ndarray, dtype, quad: QuadratureSet,
                 rows: _Rows):
        self.rows = rows
        vars(self).update(vars(rows))
        # blocks masks the spectrum's blocks that the group takes, all of
        # them real rates (dtype float) or all complex pairs (complex)
        self.dtype = dtype
        rates, enc = spec.rates[blocks], spec.encoding[blocks]
        if dtype is float:
            rates, enc = rates.real, enc.real
        order = np.argsort(rates.real > 0.0, kind="stable")
        rate = rates.conj()[order]
        self.forward = rate.real <= 0.0
        self.nf = int(np.count_nonzero(self.forward))
        self.rho = np.where(self.forward, rate, -rate)
        # enc maps real coefficients to block scalars; expand maps block
        # scalars back to angular flux rows (psi = Re(x @ expand)) and
        # expand_phi to the scalar flux (phi = Re(x @ expand_phi))
        self.enc = enc[order]
        self.expand = self.enc.conj() @ spec.P.T
        g = spec.size // quad.n
        self.expand_phi = self.expand.reshape(-1, g, quad.n) @ quad.weight
        # project maps an emission S, S/2 on every ordinate, to block sources
        sign = np.where(self.forward, 1.0, -1.0)
        per_group = (spec.P_inv.reshape(-1, g, quad.n) / quad.mu).sum(axis=2) / 2.0
        self.project = per_group.T @ (self.enc.T * sign)
        # cell-centre factors: the half-cell step half and its integral
        # phi_half at the rows' widths.  The recurrence's full-cell step and
        # source multipliers are half**2 (kept in the scan) and (1 + half)
        # phi_half
        upwind = np.where(self.forward, rows.fwd[:, None], rows.bwd[:, None]) / 2.0
        self.p = exp_block(self.rho, np.where(self.forward, *rows.anchors))
        self.q = exp_block(self.rho, rows.q_anchor)
        self.half = exp_block(self.rho, upwind)
        self.phi_half = phi_block(self.rho, upwind)
        source_coef = (1.0 + self.half) * self.phi_half
        self.march = march = FirstOrderScan(self.half * self.half, self.cells.size, self.starts)
        # kept for every outer iteration's scan, whose J it holds until the
        # next; its scratch is the room in which centre values are built
        self.work = march.workspace(dtype)
        # emitted_map takes a gathered emission row to its block sources and
        # source_map to the march's, both as _floats; a row per cell
        # keeps source_coef in the blocked layout, per_row, instead
        self.halves = np.stack([self.forward, ~self.forward])
        project = (self.halves[:, None, :] * self.project).reshape(2 * g, -1)
        self.emitted_map = _floats(project)
        self.per_row = march.blocks(source_coef) if rows.width is None else None
        self.source_map = _floats(project * (1.0 if rows.width is None else source_coef))
        # Re(x @ expand) and Re(x @ expand_phi) from each direction half's
        # block scalars (scalars_into)
        self.psi_maps, self.phi_maps = ((_real_part(e[:self.nf]), _real_part(e[self.nf:]))
                                        for e in (self.expand, self.expand_phi))
        # folds, a shared row's matrices to Re(x @ expand_phi) in
        # centres_into, split to the forward and backward halves: theta's
        # from the emission, J's from the _floats of the blocks, and hom
        # alpha's from the _floats of a row of _coefficients to every p
        # row at once, Re(c p[i] split) for each i in turn
        split = (self.halves.T[:, :, None] * self.expand_phi[:, None, :]).reshape(self.rho.size, -1)
        self.folds = () if rows.width is None else (
            ((self.project * self.phi_half) @ self.expand_phi).real,
            _real_part(self.half.T * split),
            _real_part((self.p.T[:, :, None] * split[:, None, :]).reshape(self.rho.size, -1)))
        for arr in (self.forward, self.rho, self.enc, self.expand, self.expand_phi, self.project,
                    self.p, self.q, self.half, self.phi_half, self.halves, self.emitted_map,
                    self.source_map, *self.psi_maps, *self.phi_maps, *self.folds):
            arr.setflags(write=False)

    def particular(self) -> np.ndarray:
        """J where each region's march ends, (regions, blocks), marched across
        every region at once from the group's share of the emission that
        its rows gathered (FixedSourceOperator.particular), in the
        workspace, where it stays until the next march, as the gathered
        emission stays in emitted."""
        y = self.work[0]
        np.matmul(self.emitted.reshape(-1, self.gather.shape[2]), self.source_map,
                  out=_floats(y.reshape(-1, self.rho.size)))
        if self.per_row is not None:
            y *= self.per_row
        self.march.in_place(self.work)
        return y.reshape(-1, self.rho.size)[self.march.last]

    def edge_blocks(self, side: str) -> np.ndarray:
        """P @ Gtilde at the left or right edge of each of the group's
        regions, (regions, N G, N G) in the real block basis."""
        far = ~self.forward if side == "left" else self.forward
        scale = exp_block(self.rho, np.where(far, self.length[:, None], 0.0))
        return ((self.expand.T * scale[:, None, :]) @ self.enc).real

    def _coefficients(self, alphas: np.ndarray) -> np.ndarray:
        """c_s q[k] (pairs, blocks), c_s region s's alpha as block scalars:
        row m's hom alpha is p[i] times row pair, (pair, i) = divmod(pick[m],
        len(p))."""
        c = alphas[self.regions] @ self.enc.T
        return c[self.pair_segment] * self.q[self.pair_k]

    def _add_hom(self, alphas: np.ndarray, fold: np.ndarray, values: np.ndarray):
        """values += hom alpha's share of each half's phi at every row: one
        product with fold for every (pair, p row), gathered through pick
        into the scan scratch, as many rows as it holds at a time."""
        hom = (_floats(self._coefficients(alphas)) @ fold).reshape(-1, values.shape[1])
        scratch = _floats(self.work[1].reshape(-1))
        n = scratch.size // values.shape[1]
        if n == 0:
            # a scratch narrower than one row of values (few rows and
            # blocks) gathers into a temporary of values' size
            values += hom.take(self.pick, axis=0)
            return
        for r in range(0, len(values), n):
            part = values[r:r + n]
            part += np.take(hom, self.pick[r:r + n], axis=0, mode="clip",
                            out=scratch[:part.size].reshape(part.shape))

    def centres_into(self, alphas: np.ndarray, emission: np.ndarray, out: np.ndarray):
        """out[cells] += Re(x @ expand_phi), the scalar flux, for the block
        scalars x = hom alpha + half j_in + phi_half theta at every cell
        centre, from the march of emission that the workspace holds: for
        a shared row each term through folds, J's from the blocked iterate,
        one row down and zero at the segment starts, and hom alpha's for
        every (pair, p row) at once (_add_hom); a row per cell through
        scalars_into.  out must be C-contiguous (ValidationError otherwise):
        a shared row adds to it through a flat view, which a reshape of any
        other out would silently copy."""
        if self.per_row is not None:
            return self.scalars_into(alphas, out, self.phi_maps)
        theta, j_fold, hom_fold = self.folds
        y = self.work[0].reshape(-1, self.rho.size)
        values = (_floats(y) @ j_fold).take(self.previous, axis=0)
        values[self.starts] = 0.0
        self._add_hom(alphas, hom_fold, values)
        k = values.shape[1] // 2
        # the backward half's rows return to cell order by a gather
        centre = values[:, :k] + values.take(self.back, axis=0)[:, k:]
        centre += emission.take(self.cells, axis=0) @ theta
        if not out.flags.c_contiguous:
            raise ValidationError("centres_into needs a C-contiguous out")
        out.reshape(-1)[self.flat] += centre.reshape(-1)

    def scalars_into(self, alphas: np.ndarray, out: np.ndarray, maps):
        """out[cells] += Re(x @ expand) for maps = psi_maps (expand_phi for
        phi_maps) and the block scalars x = hom alpha + half j_in + phi_half
        (emission @ project) at every cell centre, from the march that the
        workspace holds: x a chunk of rows at a time in the scratch, hom
        alpha's term p[i] times the row of _coefficients that pick names,
        then one product per direction half, added to the forward blocks'
        cells and, in reverse, the backward blocks', one slice of out per
        region piece of the chunk."""
        y, scratch = (buffer.reshape(-1, self.rho.size) for buffer in self.work[:2])
        emitted = self.emitted.reshape(-1, self.emitted.shape[2])
        coefficients = self._coefficients(alphas)
        opens = np.zeros(self.cells.size, dtype=bool)
        opens[self.starts] = True
        segments = list(zip(self.starts.tolist(), self.ends.tolist(), self.first.tolist()))
        # x takes half the scratch's rows and its terms as many more, so a
        # chunk's temporaries stay within the scratch's size
        rows = scratch[:max(1, len(scratch) // 2)]
        term = np.empty_like(rows)
        part = np.empty((len(rows), out.shape[1]))
        for r in range(0, self.cells.size, len(rows)):
            chunk = slice(r, r + len(rows))
            pair, i = np.divmod(self.pick[chunk], len(self.p))
            x = rows[:len(i)]
            t = term[:len(x)]
            np.take(coefficients, pair, axis=0, out=x, mode="clip")
            x *= np.take(self.p, i, axis=0, out=t, mode="clip")
            np.take(y, self.previous[chunk], axis=0, out=t, mode="clip")
            t[opens[chunk]] = 0.0
            t *= self.half if self.per_row is None else self.half[chunk]
            x += t
            np.matmul(emitted.take(self.march.index[chunk], axis=0), self.emitted_map,
                      out=_floats(t))
            t *= self.phi_half if self.per_row is None else self.phi_half[chunk]
            x += t
            # row start + l of a region of n rows is cell first + l for the
            # forward blocks and first + n - 1 - l for the backward
            for backward, blocks in enumerate((x[:, :self.nf], x[:, self.nf:])):
                values = np.matmul(_floats(blocks), maps[backward], out=part[:len(x)])
                for start, end, first in segments:
                    lo, hi = max(start, r), min(end, r + len(x))
                    if lo < hi:
                        cells = (out[first + end - hi:first + end - lo][::-1] if backward
                                 else out[first + lo - start:first + hi - start])
                        cells += values[lo - r:hi - r]

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
        x = exp_block(self.rho, anchor)
        x *= alphas[self.regions[segment]] @ self.enc.T
        x += exp_block(self.rho, upwind) * j_in
        x += phi_block(self.rho, upwind) * (emission[cell] @ self.project)
        return (x @ self.expand).real


def _groups(geometry: SlabGeometry, spectra, mesh: FineMesh, quad: QuadratureSet):
    """The groups, each holding its regions: per (material, width row) one
    of the real rates and, when the material has complex pairs, one of the
    pairs.

    The mesh must fit the geometry (FineMesh.require_fit).  A region whose
    cell widths spread by at most WIDTH_RTOL of its nominal width L / m
    joins the first width row of its material that agrees with that
    nominal width to WIDTH_RTOL, or starts one; the others (graded meshes)
    share one row per cell for each material.
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
    kinds = {name: [(blocks, dtype) for blocks, dtype in ((spec.rates.imag == 0.0, float),
                                                           (spec.rates.imag > 0.0, complex))
                     if blocks.any()] for name, spec in spectra.items()}
    g = next(iter(spectra.values())).size // quad.n
    groups = []
    for (material, width), index in members.items():
        rows = _Rows(width, index, geometry, mesh, g)
        groups += [_Group(spectra[material], blocks, dtype, quad, rows)
                   for blocks, dtype in kinds[material]]
    return tuple(groups)


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
    (kept) maps each region material to a BlockSpectrum of one size, a
    multiple of quad.n, and the ends come from SlabGeometry.entering
    (ValidationError otherwise).  G is read off that size, so the spectra
    must come from assemble_A(material, quad, ...) at this quad: S8 spectra
    under S4 build and solve as twice the groups, with no error.
    solve_fixed_source and fixed_source_solve apply it to one source at a
    time, and flux reads the cell-centre angular flux.  Every solve and
    read writes state that the operator keeps (each group's workspace and
    gathered emission, marched and the factor's buffer), so each runs under
    the operator's lock, an RLock: calls from other threads wait their turn.
    """

    def __init__(self, geometry: SlabGeometry, spectra, mesh: FineMesh,
                 quad: QuadratureSet):
        missing = sorted(set(geometry.materials).difference(spectra))
        sizes = sorted({spectra[name].size for name in geometry.materials if name in spectra})
        if missing or len(sizes) != 1 or sizes[0] % quad.n:
            raise ValidationError(f"spectra must give every region material one size, a multiple "
                                  f"of N = {quad.n}: missing {missing}, sizes {sizes}")
        self.geometry = geometry
        self.mesh = mesh
        self.quad = quad
        self.spectra = spectra
        self.groups = _groups(geometry, spectra, mesh, quad)
        # each group's rows, once for the groups that share them
        self.rows = tuple(dict.fromkeys(group.rows for group in self.groups))
        self.ng = sizes[0]
        self.n_groups = self.ng // quad.n

        # P @ Gtilde at every region's left and right edge, the sum of its
        # groups' shares
        left = np.zeros((geometry.n_regions, self.ng, self.ng))
        right = np.zeros_like(left)
        for group in self.groups:
            left[group.regions] += group.edge_blocks("left")
            right[group.regions] += group.edge_blocks("right")
        # each end's conditions (E, f), for the factor and every rhs
        f_left, f_right = geometry.entering(self.ng // 2)
        self.bcs = (_end(geometry.bc_left.kind, f_left, quad, "left"),
                    _end(geometry.bc_right.kind, f_right, quad, "right"))
        (e_left, _), (e_right, _) = self.bcs
        self.factor = InterfaceFactor(e_left @ left[0], right[:-1], -left[1:],
                                      e_right @ right[-1])
        self.rcond = self.factor.rcond
        # the SourceField whose march every group's workspace holds
        self.marched = None
        self.lock = threading.RLock()

    def particular(self, source: SourceField):
        """Each group's J where its regions' marches end, (regions, blocks),
        for a source that SourceField.require_on accepts for this operator,
        its emission gathered once for the groups that share their rows;
        marched names source once every group has marched it."""
        source.require_on(self.mesh, self.n_groups)
        self.marched = None
        for rows in self.rows:
            np.take(source.emission, rows.gather, out=rows.emitted, mode="clip")
        ends = [group.particular() for group in self.groups]
        self.marched = source
        return ends

    def _hold(self, solution: Solution):
        """Check that this operator solved solution (ValidationError if not)
        and leave its source's march in every group's workspace, marching
        it again only when the last march was of another source."""
        solution.require_from(self)
        if self.marched is not solution.source:
            self.particular(solution.source)

    def rhs(self, ends) -> np.ndarray:
        """Right-hand side of the global system from the groups' march ends
        (particular), rows left boundary, interface 0 .. R-2, right boundary."""
        left = np.zeros((self.geometry.n_regions, self.ng))
        right = np.zeros_like(left)
        # the particular angular flux at every region's edges, summed over
        # its groups: the backward blocks' march ends at the left edge, the
        # forward blocks' at the right
        for group, end in zip(self.groups, ends):
            nf = group.nf
            left[group.regions] += (end[:, nf:] @ group.expand[nf:]).real
            right[group.regions] += (end[:, :nf] @ group.expand[:nf]).real
        (e_left, f_left), (e_right, f_right) = self.bcs
        return np.concatenate([f_left - e_left @ left[0], (left[1:] - right[:-1]).ravel(),
                               f_right - e_right @ right[-1]])

    def flux(self, solution: Solution, normalized: bool = False) -> FluxField:
        """Angular and scalar flux at the cell centres for a Solution this
        operator solved (ValidationError for any other), from the stored
        factors and the march of its source (_hold), through one product
        with N G columns per group, direction half and chunk of rows; with
        normalized, scaled as FluxField.from_psi does with the mesh widths."""
        with self.lock:
            self._hold(solution)
            psi = np.zeros((self.mesh.n_cells, self.ng))
            for group in self.groups:
                group.scalars_into(solution.coefficients, psi, group.psi_maps)
        return FluxField.from_psi(self.mesh.centers, psi, self.quad,
                                  self.mesh.widths if normalized else None)


def solve_alpha(factor: InterfaceFactor, rhs: np.ndarray) -> np.ndarray:
    """One alpha per region, (R, N G), solving the factored global system."""
    return factor.solve(rhs)


def evaluate_flux(operator: FixedSourceOperator, solution: Solution, points) -> FluxField:
    """Angular and scalar flux at arbitrary points inside the slab.

    solution is a Solution this operator solved (ValidationError for any
    other); points is a scalar or a 1-D sequence.  A point on a
    region interface is evaluated in the region on its left (continuity
    makes the choice immaterial to within the solver tolerance), in the
    cell of that region whose closed span holds it, the left one on a cell
    edge.  It reads the march of the solution's source (_hold), and each
    group computes its points' factors afresh, EVAL_CHUNK points a call,
    which bounds the (points, blocks) temporaries; FixedSourceOperator.flux
    reads the stored factors at the cell centres instead.
    """
    with operator.lock:
        operator._hold(solution)
        alphas, emission = solution.coefficients, solution.source.emission
        points = np.atleast_1d(np.asarray(points, dtype=float))
        if points.ndim != 1:
            raise ValidationError(f"points must be a scalar or a 1-D sequence, not shape {points.shape}")
        edges, offsets = operator.geometry.edges, operator.mesh.offsets
        if not np.all((points >= edges[0]) & (points <= edges[-1])):
            raise PointOutOfDomainError(f"points outside [{edges[0]}, {edges[-1]}]")
        region = np.searchsorted(edges[1:], points, side="left")
        cell = np.clip(np.searchsorted(operator.mesh.edges[1:], points, side="left"),
                       offsets[region], offsets[region + 1] - 1)
        psi = np.zeros((points.size, operator.ng))
        for group in operator.groups:
            idx = np.flatnonzero(np.isin(region, group.regions))
            for k in range(0, idx.size, EVAL_CHUNK):
                chunk = idx[k:k + EVAL_CHUNK]
                psi[chunk] += group.psi_at(alphas, emission, cell[chunk], points[chunk])
    return FluxField.from_psi(points, psi, operator.quad)


def solve_fixed_source(operator: FixedSourceOperator, source: SourceField) -> Solution:
    """The Solution (no evaluation) that evaluate_flux and
    FixedSourceOperator.flux read: one alpha per region and the source."""
    with operator.lock:
        rhs = operator.rhs(operator.particular(source))
        return Solution(operator, solve_alpha(operator.factor, rhs), source)


def fixed_source_solve(operator: FixedSourceOperator, source: SourceField):
    """Fixed-source solve: (scalar flux (cells, G) at the source-cell centres,
    the Solution for flux and evaluate_flux).  The flux is read from each group's
    march, which its workspace holds until the group's next one."""
    phi = np.zeros((operator.mesh.n_cells, operator.n_groups))
    # the march and the reads of it under one hold
    with operator.lock:
        solution = solve_fixed_source(operator, source)
        for group in operator.groups:
            group.centres_into(solution.coefficients, source.emission, phi)
    return phi, solution
