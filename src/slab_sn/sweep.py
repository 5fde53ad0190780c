"""Traditional sweeping S_N baseline on the fine mesh.

Cell-average fluxes with the step (flat-flux upwind) closure by default:
marching in the flow direction, the cell-average flux is

    psi_c = (|mu| / dx * psi_in + q) / (|mu| / dx + sigma_t)

and the outgoing face flux equals psi_c.  A diamond-difference closure
(psi_out = 2 psi_c - psi_in) is available for sensitivity studies but is
not the comparison baseline.  The scattering source is iterated until the
L2 norm of the scalar-flux change drops below the requested tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import MaxInnerIterationsError, ValidationError
from .mesh import FineMesh, FluxField
from .model import QuadratureSet, SlabGeometry, _readonly
from .recurrence import FirstOrderScan

SCHEMES = ("step", "diamond")


@dataclass(frozen=True)
class SweepMesh:
    """Fine mesh plus the per-cell data one transport sweep needs."""

    mesh: FineMesh
    sigma_t: np.ndarray      # (M, G)
    q: np.ndarray            # (M, N*G) per-ordinate total source

    def __post_init__(self):
        object.__setattr__(self, "sigma_t", _readonly(self.sigma_t))
        object.__setattr__(self, "q", _readonly(self.q))
        m = self.mesh.n_cells
        if self.sigma_t.shape[0] != m or self.q.shape[0] != m:
            raise ValidationError("sigma_t and q must have one row per cell")

    @classmethod
    def build(cls, geometry: SlabGeometry, materials, mesh: FineMesh,
              q: np.ndarray) -> "SweepMesh":
        sigma_t = np.vstack([materials[name].sigma_t
                             for name in geometry.materials])[mesh.region_of_cell]
        return cls(mesh=mesh, sigma_t=sigma_t, q=q)


class _SweepPlan:
    """Per-cell marching coefficients for repeated sweeps over the whole slab.

    Marching in the flow direction, every (group, ordinate) column follows
    the face-flux recurrence f_m = a_m f_{m-1} + s_m q_m with c = |mu| / dx:
    a = c / (c + sigma_t) and s = 1 / (c + sigma_t) for step, whose cell
    average is f_m; a = (2c - sigma_t) / (2c + sigma_t) and
    s = 2 / (2c + sigma_t) for diamond, whose cell average is the mean of the
    two faces.  Columns with mu < 0 are stored in reversed cell order, so one
    FirstOrderScan marches both directions through every region at once.
    """

    def __init__(self, smesh: SweepMesh, quad: QuadratureSet, scheme: str):
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown sweep scheme {scheme!r}")
        self.scheme = scheme
        self.half = quad.n // 2
        face = 1.0 if scheme == "step" else 2.0
        c = face * np.abs(quad.mu)[None, None, :] / smesh.mesh.widths[:, None, None]
        denom = c + smesh.sigma_t[:, :, None]
        coef = c / denom
        if scheme == "step":
            a, s = coef, 1.0 / denom
        else:
            a, s = 2.0 * coef - 1.0, 2.0 / denom
        a = self.scan_order(a)
        self.a0 = a[0]
        self.s = self.scan_order(s)
        self.march = FirstOrderScan(a)

    def scan_order(self, x: np.ndarray) -> np.ndarray:
        """Swap a (cells, G, N) array between cell and scan order."""
        return np.concatenate([x[::-1, :, :self.half], x[:, :, self.half:]], axis=2)

    def sweep(self, q3, inc_left, inc_right):
        """One transport sweep with the total source q3 (cells, G, N) frozen.

        inc_left holds the boundary angular flux for the mu > 0 ordinates
        (group-major, ascending mu); inc_right for mu < 0.  Returns the
        cell-average fluxes (cells, G, N) plus the outgoing boundary fluxes
        (mu < 0 at the left end, mu > 0 at the right end) needed to lag
        reflective boundaries.
        """
        g = q3.shape[1]
        f_in = np.concatenate([np.reshape(inc_right, (g, self.half)),
                               np.reshape(inc_left, (g, self.half))], axis=1)
        b = self.scan_order(q3) * self.s
        b[0] += self.a0 * f_in
        f = self.march(b)
        avg = f
        if self.scheme == "diamond":
            avg = 0.5 * (np.concatenate([f_in[None], f[:-1]]) + f)
        out = f[-1]
        return (self.scan_order(avg), out[:, :self.half].ravel(),
                out[:, self.half:].ravel())


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


def source_iteration(geometry: SlabGeometry, materials, mesh: FineMesh,
                     quad: QuadratureSet, q_external: np.ndarray,
                     tolerance: float, *, flux0=None, ke=None,
                     max_inner: int = 5000, scheme: str = "step"):
    """Iterate sweeps on the scattering source until the scalar flux settles.

    q_external is the per-ordinate fixed source (M, N*G).  With a Wielandt
    shift the chi nu-fission / k_e production is folded into the iterated
    source alongside scattering.  Returns (cell-average angular fluxes,
    number of sweeps).
    """
    transfer = _transfer_matrices(geometry, materials, ke)
    _check_scattering_ratio(geometry, materials, transfer)
    n = quad.n
    half = n // 2
    g = q_external.shape[1] // n
    m_cells = mesh.n_cells
    plan = _SweepPlan(SweepMesh.build(geometry, materials, mesh, q_external),
                      quad, scheme)

    def boundary(bc, outgoing):
        if bc.kind == "vacuum":
            return np.zeros(g * half)
        if bc.kind == "incoming":
            return bc.values
        # reflective: incoming copied from the paired outgoing ordinate of
        # the previous iterate
        return outgoing.reshape(g, half)[:, ::-1].ravel()

    reflective = "reflective" in (geometry.bc_left.kind, geometry.bc_right.kind)
    if not reflective and all(np.all(t == 0.0) for t in transfer):
        # pure streaming: a single sweep is the exact solution
        flux3, _, _ = plan.sweep(q_external.reshape(m_cells, g, n),
                                 boundary(geometry.bc_left, None),
                                 boundary(geometry.bc_right, None))
        return flux3.reshape(m_cells, g * n), 1

    flux = np.zeros((m_cells, g * n)) if flux0 is None else np.array(flux0, dtype=float)
    phi = flux.reshape(m_cells, g, n) @ quad.weight
    out_left = np.zeros(g * half)
    out_right = np.zeros(g * half)
    transfer_t = [t.T for t in transfer]
    region_cells = [mesh.cells_of_region(r) for r in range(geometry.n_regions)]

    for it in range(1, max_inner + 1):
        scat = np.empty((m_cells, g))
        for r, cells in enumerate(region_cells):
            scat[cells] = phi[cells] @ transfer_t[r]
        q_total = q_external + np.repeat(scat / 2.0, n, axis=1)
        inc_left = boundary(geometry.bc_left, out_left)
        inc_right = boundary(geometry.bc_right, out_right)
        flux3, out_left, out_right = plan.sweep(
            q_total.reshape(m_cells, g, n), inc_left, inc_right)
        flux = flux3.reshape(m_cells, g * n)
        phi_new = flux.reshape(m_cells, g, n) @ quad.weight
        change = np.linalg.norm(phi_new - phi)
        phi = phi_new
        if change < tolerance:
            return flux, it
    raise MaxInnerIterationsError(
        f"source iteration did not reach {tolerance} in {max_inner} sweeps "
        "(scattering ratio too close to 1?)")


def sweep_fixed_source(geometry: SlabGeometry, materials, mesh: FineMesh,
                       quad: QuadratureSet, source, tolerance: float,
                       **kwargs) -> FluxField:
    """Converged sweep solution as a FluxField at the cell centers."""
    q = source.q if hasattr(source, "q") else np.asarray(source)
    flux, _ = source_iteration(geometry, materials, mesh, quad, q, tolerance,
                               **kwargs)
    return FluxField.from_psi(mesh.centers, flux, quad)
