"""Traditional sweeping S_N baseline on the fine mesh.

Cell-average fluxes with the step (flat-flux upwind) closure, the
comparison baseline: marching in the flow direction, the cell-average flux is

    psi_c = (|mu| / dx * psi_in + q) / (|mu| / dx + sigma_t)

and the outgoing face flux equals psi_c.  The scattering source is iterated
until the L2 norm of the scalar-flux change drops below the requested
tolerance.

Only the source changes between inner and outer iterations.  A
SweepOperator is therefore built once per problem and holds the per-cell
group transfer, the marching coefficients, the boundary handling and the
index maps of the scan's blocked layout.  source_iteration applies it to one
SourceField on its mesh at a time, with the scalar flux and the source
group-major (G, cells): each sweep gathers half the total emission once per
scan row, group and direction into that layout, spreads it over the
direction's ordinates, scans and sums it there; the angular flux leaves
the layout once, after convergence, when the operator reads its Solution.
"""

import math
import threading
from typing import Optional

import numpy as np

from .exceptions import MaxInnerIterationsError, ValidationError
from .mesh import FineMesh, FluxField, Solution, SourceField
from .model import QuadratureSet, SlabGeometry
from .recurrence import FirstOrderScan


def _transfer_matrices(geometry, materials, ke):
    """Group transfer by material name: scattering plus the shifted fission
    part, checked for isotropic scattering and a folded scattering ratio below one."""
    transfer = {}
    for name in dict.fromkeys(geometry.materials):
        mat = materials[name]
        if mat.scatter_kernel is not None:
            raise ValidationError(
                f"material {name!r}: the sweep solver supports isotropic scattering only")
        t = mat.sigma_s.T.copy()          # t[g, g'] = sigma_s g' -> g
        if ke is not None:
            t += np.outer(mat.chi, mat.nu_sigma_f) / ke
        ratio = t.sum(axis=0) / mat.sigma_t
        if np.any(ratio >= 1.0):
            raise ValidationError(
                f"material {name!r}: scattering ratio {ratio.max():.6f} >= 1, "
                "source iteration would not converge")
        transfer[name] = t
    return transfer


class SweepOperator:
    """The source-independent part of the sweep fixed-source solve.

    Built once per (geometry, materials, mesh, quadrature, shift):
    it checks that every material scatters isotropically with a folded
    scattering ratio below one, and holds half the per-cell group transfer
    (scattering plus chi nu-fission / k_e under a shift), the marching
    coefficients and the fixed part of the boundary fluxes.

    Marching in the flow direction, every (group, ordinate) column follows
    the face-flux recurrence f_m = a_m f_{m-1} + s_m q_m with c = |mu| / dx,
    a = c / (c + sigma_t) and s = 1 / (c + sigma_t); the step closure's cell
    average is f_m.  In scan order the mu < 0 columns of a (cells, G, N) array
    run in reversed cell order, so one FirstOrderScan marches both
    directions through the whole slab at once; s and the fluxes live in
    that scan's blocked (size, count, G, N) layout, padding rows included.
    The source, isotropic, is the same on every ordinate of a direction
    half: a sweep gathers it once per (scan row, group, direction) and
    spreads it over the ordinates with one product by a 0/1 matrix.

    Every sweep writes state that the operator keeps (the workspace, halves
    and pair), so source_iteration and flux run under the operator's lock,
    an RLock: calls from other threads wait their turn.
    """

    def __init__(self, geometry: SlabGeometry, materials, mesh: FineMesh,
                 quad: QuadratureSet, ke: Optional[float] = None):
        mesh.require_fit(geometry)
        transfer = _transfer_matrices(geometry, materials, ke)
        self.mesh = mesh
        self.quad = quad
        self.half = h = quad.n // 2
        sigma_t = np.vstack([materials[name].sigma_t
                             for name in geometry.materials])[mesh.region_of_cell]
        self.shape = m, g, n = (mesh.n_cells, sigma_t.shape[1], quad.n)
        # transfer[j, i, m]: the share of group j of cell m's scalar flux in
        # half the cell's scattering (plus folded fission) emission density
        # of group i, the source of every ordinate of a direction half under
        # isotropic emission
        self.transfer = np.stack([transfer[name].T / 2.0 for name in geometry.materials])[
            mesh.region_of_cell].transpose(1, 2, 0).copy()
        # quadrature weights of the mu < 0 and the mu > 0 columns
        self.weights = np.zeros((n, 2))
        self.weights[:h, 0] = quad.weight[:h]
        self.weights[h:, 1] = quad.weight[h:]
        # spread[d]: 1 on direction half d's (positive) weights, C-ordered for a fast matmul
        self.spread = np.ascontiguousarray(self.weights.T > 0.0, dtype=float)

        c = np.abs(quad.mu)[None, None, :] / mesh.widths[:, None, None]
        denom = c + sigma_t[:, :, None]
        a, s = self.scan_order(c / denom), 1.0 / denom
        self.march = march = FirstOrderScan(a)
        self.work = march.workspace(float)
        self.s = march.blocks(self.scan_order(s))

        # sources are gathered from half the emission, (G, cells) group-major,
        # and the padding rows, which no carry reads, gather cell 0's;
        # direction half 0 (mu < 0) runs in reversed cell order
        slot = np.arange(g)[:, None] * m + np.arange(m)
        self.gather = march.blocks(np.stack([slot[:, ::-1].T, slot.T], axis=2))
        # per (scan row, group) and direction half: the gathered source, then
        # the weighted sum of the fluxes, of which sides picks phi's halves
        # (G, cells), mu < 0 in sides[0] and mu > 0 in sides[1]
        self.halves = np.empty((self.gather.size // 2, 2))
        rows = march.index[:, None] * g + np.arange(g)
        self.sides = np.ascontiguousarray([2 * rows[::-1].T, 2 * rows.T + 1])
        self.pair = np.empty(self.sides.shape)

        # incoming flux per (group, scan column): mu < 0 columns enter at the
        # right end, mu > 0 columns at the left end; a reflective end copies
        # the mirrored ordinate's outgoing flux of the previous sweep
        self.incoming = np.zeros(self.shape[1:])
        self.reflect = np.zeros(quad.n, dtype=bool)
        for cols, bc in ((slice(0, h), geometry.bc_right), (slice(h, None), geometry.bc_left)):
            if bc.kind == "incoming":
                self.incoming[:, cols] = np.reshape(bc.values, (-1, h))
            self.reflect[cols] = bc.kind == "reflective"
        # no end reflects or lets flux in: none enters the first scan row
        self.inflow = self.reflect.any() or self.incoming.any()
        # pure streaming: a single sweep is the exact solution
        self.streaming = not self.reflect.any() and not self.transfer.any()
        self.lock = threading.RLock()
        # gather and sides stay writeable: take copies a read-only index
        # array on every call
        for arr in (self.transfer, self.weights, self.spread, self.s,
                    self.incoming, self.reflect):
            arr.setflags(write=False)

    def scan_order(self, x: np.ndarray) -> np.ndarray:
        """Swap a (cells, G, N) array between cell and scan order."""
        return np.concatenate([x[::-1, :, :self.half], x[:, :, self.half:]], axis=2)

    def sweep(self, q: np.ndarray, out: np.ndarray, phi: np.ndarray):
        """One transport sweep with the total source frozen.

        q is the source of every ordinate, half the isotropic emission,
        (G, cells) group-major.  out holds the previous sweep's outgoing face
        fluxes (G, N), which reflective ends copy back in, and receives this
        sweep's: mu < 0 at the left end, mu > 0 at the right.  phi receives
        the scalar flux (G, cells).  Returns the cell-average fluxes in the
        scan's blocked layout, in a workspace buffer that the next sweep
        overwrites.
        """
        f = self.work[0]
        columns = f.reshape(-1, self.shape[2])
        q.take(self.gather, out=self.halves.reshape(self.gather.shape), mode="clip")
        np.matmul(self.halves, self.spread, out=columns)
        f *= self.s
        if self.inflow:
            # the first scan row's coefficient carries the incoming flux in
            f[0, 0] += self.march.a[0, 0] * np.where(self.reflect, out[:, ::-1], self.incoming)
        self.march.in_place(self.work)
        out[...] = f.reshape((-1,) + out.shape)[self.march.last[0]]
        np.matmul(columns, self.weights, out=self.halves)
        self.halves.take(self.sides, out=self.pair, mode="clip")
        np.add(self.pair[0], self.pair[1], out=phi)
        return f

    def flux(self, solution: Solution, normalized: bool = False) -> FluxField:
        """Angular and scalar flux at the cell centres of a Solution this
        operator solved (ValidationError for another's, or another shape);
        with normalized, scaled as FluxField.from_psi does with the mesh
        widths."""
        with self.lock:
            solution.require_from(self)
            psi = self.scan_order(self.march.unblocks(solution.coefficients))
        return FluxField.from_psi(self.mesh.centers, psi.reshape(self.shape[0], -1), self.quad,
                                  self.mesh.widths if normalized else None)


def source_iteration(operator: SweepOperator, source: SourceField,
                     tolerance: float, *, phi0=None, max_inner: int = 5000):
    """Iterate sweeps on the scattering source until the scalar flux settles.

    source is the isotropic fixed source on the operator's mesh; phi0, when
    given, is the finite scalar flux (M, G) the scattering source starts
    from.  With a Wielandt shift the operator folds the chi nu-fission / k_e
    production into the iterated source alongside scattering.  Returns
    (cell-average scalar flux (M, G), the Solution: the last sweep's blocked
    angular fluxes, the source and the number of sweeps).
    """
    with operator.lock:
        m, g, n = operator.shape
        source.require_on(operator.mesh, g)
        # group-major (G, cells) from here on: phi and the next sweep's phi;
        # terms[j], group j's share of the transfer, add up front to back in
        # the first, the sweep's source once the emission joins, then the change
        phi, phi_new = np.zeros((2, g, m))
        if phi0 is not None:
            if np.shape(phi0) != (m, g) or not np.all(np.isfinite(phi0)):
                raise ValidationError(f"phi0 must be finite with shape (cells, G) = {(m, g)}, "
                                      f"got shape {np.shape(phi0)}")
            phi[...] = np.transpose(phi0)
        terms = np.empty((g, g, m))
        first, *rest = terms
        change = first.reshape(-1)
        out = np.zeros((g, n))
        # isotropic: every ordinate of a direction half sees half the emission,
        # as operator.transfer holds half the scattering
        emission = np.ascontiguousarray(source.emission.T) / 2.0
        for it in range(1, max_inner + 1):
            np.multiply(phi[:, None], operator.transfer, out=terms)
            for term in rest:
                first += term
            first += emission
            psi = operator.sweep(first, out, phi_new)
            np.subtract(phi_new, phi, out=first)
            phi, phi_new = phi_new, phi
            # the L2 norm as np.linalg.norm takes it
            if math.sqrt(change.dot(change)) < tolerance or operator.streaming:
                return phi.T.copy(), Solution(operator, psi.copy(), source, it)
        raise MaxInnerIterationsError(
            f"source iteration did not reach {tolerance} in {max_inner} sweeps "
            "(scattering ratio too close to 1?)")
