"""Traditional sweeping S_N baseline on the fine mesh.

Cell-average fluxes with the step (flat-flux upwind) closure by default:
marching in the flow direction, the cell-average flux is

    psi_c = (|mu| / dx * psi_in + q) / (|mu| / dx + sigma_t)

and the outgoing face flux equals psi_c.  A diamond-difference closure
(psi_out = 2 psi_c - psi_in) is available for sensitivity studies but is
not the comparison baseline.  The scattering source is iterated until the
L2 norm of the scalar-flux change drops below the requested tolerance.

Only the source changes between inner and outer iterations.  A
SweepOperator is therefore built once per problem and holds the per-cell
group transfer, the marching coefficients and the boundary handling;
source_iteration applies it to one isotropic emission (cells, G) at a time,
adding it to the scattering emission before half of the sum goes to every
ordinate.
"""

from typing import Optional

import numpy as np

from .exceptions import MaxInnerIterationsError, ValidationError
from .mesh import FineMesh, FluxField, SourceField
from .model import SWEEP_SCHEMES, QuadratureSet, SlabGeometry
from .recurrence import FirstOrderScan


def _transfer_matrices(geometry, materials, ke):
    """Per-region group transfer: scattering plus the shifted fission part."""
    transfer = []
    for name in geometry.materials:
        mat = materials[name]
        if mat.scatter_kernel is not None:
            raise ValidationError(
                f"material {name!r}: the sweep solver supports isotropic scattering only")
        t = mat.sigma_s.T.copy()          # t[g, g'] = sigma_s g' -> g
        if ke is not None:
            t += np.outer(mat.chi, mat.nu_sigma_f) / ke
        transfer.append(t)
    return transfer


def _check_scattering_ratio(geometry, materials, transfer):
    for name, t in zip(geometry.materials, transfer):
        mat = materials[name]
        ratio = t.sum(axis=0) / mat.sigma_t
        if np.any(ratio >= 1.0):
            raise ValidationError(
                f"material {name!r}: scattering ratio {ratio.max():.6f} >= 1, "
                "source iteration would not converge")


class SweepOperator:
    """The source-independent part of the sweep fixed-source solve.

    Built once per (geometry, materials, mesh, quadrature, scheme, shift):
    it checks that every material scatters isotropically with a folded
    scattering ratio below one, and holds the per-cell group transfer
    (scattering plus chi nu-fission / k_e under a shift), the marching
    coefficients and the fixed part of the boundary fluxes.

    Marching in the flow direction, every (group, ordinate) column follows
    the face-flux recurrence f_m = a_m f_{m-1} + s_m q_m with c = |mu| / dx:
    a = c / (c + sigma_t) and s = 1 / (c + sigma_t) for step, whose cell
    average is f_m; a = (2c - sigma_t) / (2c + sigma_t) and
    s = 2 / (2c + sigma_t) for diamond, whose cell average is the mean of the
    two faces.  Per-cell arrays (cells, G, N) are kept in scan order, with
    the mu < 0 columns in reversed cell order, so one FirstOrderScan marches
    both directions through the whole slab at once.
    """

    def __init__(self, geometry: SlabGeometry, materials, mesh: FineMesh,
                 quad: QuadratureSet, scheme: str = "step",
                 ke: Optional[float] = None):
        if scheme not in SWEEP_SCHEMES:
            raise ValidationError(f"unknown sweep scheme {scheme!r}")
        transfer = _transfer_matrices(geometry, materials, ke)
        _check_scattering_ratio(geometry, materials, transfer)
        self.mesh = mesh
        self.quad = quad
        self.scheme = scheme
        self.half = h = quad.n // 2
        sigma_t = np.vstack([materials[name].sigma_t
                             for name in geometry.materials])[mesh.region_of_cell]
        self.shape = (mesh.n_cells, sigma_t.shape[1], quad.n)
        # phi[m] @ transfer[m]: cell m's scattering (plus folded fission)
        # emission density per group
        self.transfer = np.stack([t.T for t in transfer])[mesh.region_of_cell]
        # quadrature weights of the mu < 0 and the mu > 0 columns
        self.weights = np.zeros((quad.n, 2))
        self.weights[:h, 0] = quad.weight[:h]
        self.weights[h:, 1] = quad.weight[h:]

        face = 1.0 if scheme == "step" else 2.0
        c = face * np.abs(quad.mu)[None, None, :] / mesh.widths[:, None, None]
        denom = c + sigma_t[:, :, None]
        coef = c / denom
        if scheme == "step":
            a, s = coef, 1.0 / denom
        else:
            a, s = 2.0 * coef - 1.0, 2.0 / denom
        a = self.scan_order(a)
        self.a0 = a[0]
        self.s = self.scan_order(s)
        self.march = FirstOrderScan(a)

        # incoming flux per (group, scan column): mu < 0 columns enter at the
        # right end, mu > 0 columns at the left end; a reflective end copies
        # the mirrored ordinate's outgoing flux of the previous sweep
        self.incoming = np.zeros(self.shape[1:])
        self.reflect = np.zeros(quad.n, dtype=bool)
        for cols, bc in ((slice(0, h), geometry.bc_right), (slice(h, None), geometry.bc_left)):
            if bc.kind == "incoming":
                self.incoming[:, cols] = np.reshape(bc.values, (-1, h))
            self.reflect[cols] = bc.kind == "reflective"
        # pure streaming: a single sweep is the exact solution
        self.streaming = not self.reflect.any() and not self.transfer.any()
        for arr in (self.transfer, self.weights, self.a0, self.s, self.incoming,
                    self.reflect):
            arr.setflags(write=False)

    def scan_order(self, x: np.ndarray) -> np.ndarray:
        """Swap a (cells, G, N) array between cell and scan order."""
        return np.concatenate([x[::-1, :, :self.half], x[:, :, self.half:]], axis=2)

    def sweep(self, q: np.ndarray, out: np.ndarray):
        """One transport sweep with the total source q frozen.

        q is (cells, G, N) in scan order; out holds the previous sweep's
        outgoing face fluxes (G, N), which reflective ends copy back in.
        Returns the cell-average fluxes in scan order and this sweep's
        outgoing face fluxes: mu < 0 at the left end, mu > 0 at the right.
        """
        f_in = np.where(self.reflect, out[:, ::-1], self.incoming)
        b = q * self.s
        b[0] += self.a0 * f_in
        f = self.march(b)
        if self.scheme == "step":
            return f, f[-1]
        avg = np.empty_like(f)
        np.add(f[1:], f[:-1], out=avg[1:])
        np.add(f[0], f_in, out=avg[0])
        avg *= 0.5
        return avg, f[-1]

    def scalar_flux(self, psi: np.ndarray) -> np.ndarray:
        """Scalar flux (cells, G) in cell order of scan-order fluxes psi."""
        m, g, n = self.shape
        halves = (psi.reshape(m * g, n) @ self.weights).reshape(m, g, 2)
        return halves[::-1, :, 0] + halves[:, :, 1]

    def flux(self, psi: np.ndarray) -> FluxField:
        """Angular and scalar flux at the cell centres of scan-order fluxes psi."""
        m, g, n = self.shape
        return FluxField.from_psi(self.mesh.centers, self.scan_order(psi).reshape(m, g * n),
                                  self.quad)


def source_iteration(operator: SweepOperator, emission: np.ndarray,
                     tolerance: float, *, phi0=None, max_inner: int = 5000):
    """Iterate sweeps on the scattering source until the scalar flux settles.

    emission is the isotropic fixed source (M, G); phi0, when given, is the
    scalar flux (M, G) the scattering source starts from.  With a Wielandt
    shift the operator folds the chi nu-fission / k_e production into the
    iterated source alongside scattering.  Returns (cell-average scalar flux
    (M, G), the last sweep's scan-order angular fluxes for operator.flux,
    number of sweeps).
    """
    m, g, n = operator.shape
    if np.shape(emission) != (m, g):
        raise ValidationError(
            f"emission has shape {np.shape(emission)}, expected (cells, G) = {(m, g)}")
    phi = np.zeros((m, g)) if phi0 is None else phi0
    out = np.zeros((g, n))
    for it in range(1, max_inner + 1):
        # isotropic: every ordinate of a direction half sees half the emission
        q = (emission + np.einsum("mg,mgh->mh", phi, operator.transfer)) / 2.0
        halves = np.repeat(np.stack([q[::-1], q], axis=2), operator.half, axis=2)
        psi, out = operator.sweep(halves, out)
        phi_new = operator.scalar_flux(psi)
        change = np.linalg.norm(phi_new - phi)
        phi = phi_new
        if change < tolerance or operator.streaming:
            return phi, psi, it
    raise MaxInnerIterationsError(
        f"source iteration did not reach {tolerance} in {max_inner} sweeps "
        "(scattering ratio too close to 1?)")


def sweep_fixed_source(operator: SweepOperator, source: SourceField,
                       tolerance: float, *, max_inner: int = 5000) -> FluxField:
    """Converged sweep solution as a FluxField at the cell centers."""
    operator.mesh.require_same(source.mesh)
    _, psi, _ = source_iteration(operator, source.emission, tolerance, max_inner=max_inner)
    return operator.flux(psi)
