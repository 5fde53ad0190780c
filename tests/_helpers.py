"""Shared builders and independent oracles used across the test modules.

The round-off contract.  A change that reorders floating-point work (a
different summation order, product shape or BLAS call) must match its
parent within max|got - ref| <= ROUNDOFF_RTOL * max|ref| on k, phi and psi
of the digest set (pincell S2 / S16 / S64 with and without k_e = 1.3,
split_geometry seeds 1-3 at S6, the fine mesh at S16, M = 20000, k_e = 1.3,
and the S8 sweep), with equal outer and sweep counts; assert_within_roundoff
enforces the bound and test_eigen.py's TestDigestSet pins k and the counts.
The bound is normwise, not elementwise: a reordered fine-mesh solve moves
psi by 1.5e-12 relative on its tiniest entries but by 7.6e-16 of max|psi|.
A change that does not reorder work stays bit-identical, and the loop
oracles below take the operands of the production products so that their
comparisons can stay bit for bit.  Bit-identity holds only at one BLAS
thread count: pincell S64 k moves by 2.2e-16 between one thread and two.
Acceptance 01's 1 pcm and one-half-ulp bounds and the 1e-12 dense-oracle
bounds are separate checks, unaffected by this contract.
"""

import csv
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from scipy.signal import lfilter

from slab_sn import (BoundaryCondition, MaterialXS, SlabGeometry,
                     BlockSpectrum, SingularSystemError, SourceField,
                     ValidationError, mesh_from_edges)
from slab_sn.analytic import _inverse, _rcond_estimate
from slab_sn.eigen import _emission, _per_cell
from slab_sn.spectral import PHI_TAYLOR_CUT, _dense, _guard, exp_block, phi_block
from slab_sn.recurrence import FirstOrderScan


ROUNDOFF_RTOL = 1e-14


def assert_within_roundoff(got, ref):
    """got matches ref under the round-off contract: max|got - ref| is at
    most ROUNDOFF_RTOL * max|ref|, over the whole array at once."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= ROUNDOFF_RTOL * np.max(np.abs(ref))


def gamma(spec, x):
    """Dense Gamma(x) = exp(B x): e^{lam x} on real blocks and
    e^{a x} [[cos bx, sin bx], [-sin bx, cos bx]] on complex pairs."""
    return _dense(spec, exp_block(spec.rates.conj(), x))


def segment_integral(spec, x_a, x_b):
    """Dense integral of Gamma(-xi) d xi over [x_a, x_b], blockwise closed form.

    Blocks with |lam| * (x_b - x_a) below 1e-8 switch to the series limit,
    so zero eigenvalues (pure scatterers) integrate exactly to the width.
    """
    if x_b < x_a:
        raise ValidationError(f"segment bounds out of order: [{x_a}, {x_b}]")
    rate = -spec.rates.conj()
    _guard(np.concatenate([rate.real * x_a, rate.real * x_b]))
    return _dense(spec, exp_block(rate, x_a) * phi_block(rate, x_b - x_a))


def eigenvalues(spec):
    """Every eigenvalue of A: each block's rate, and the conjugate of
    each complex pair's."""
    return np.concatenate([spec.rates, spec.rates[spec.rates.imag > 0.0].conj()])


def legendre_and_deriv(n, x):
    """P_n(x) and P_n'(x) via the three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre_newton(n):
    """Independent Gauss-Legendre rule: Newton iteration on P_n."""
    roots = []
    for i in range(1, n + 1):
        x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre_and_deriv(n, x)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        roots.append(x)
    roots = np.array(sorted(roots))
    weights = np.empty(n)
    for i, r in enumerate(roots):
        _, dp = legendre_and_deriv(n, r)
        weights[i] = 2.0 / ((1.0 - r * r) * dp * dp)
    return roots, weights


def one_group_material(name="m", sigma_t=1.0, sigma_s=0.0, nu_sigma_f=0.0):
    chi = [1.0] if nu_sigma_f > 0 else [0.0]
    return MaterialXS(name=name, sigma_t=[sigma_t], sigma_s=[[sigma_s]],
                      nu_sigma_f=[nu_sigma_f], chi=chi)


def graded_mesh(geometry, counts, ratio=1.15):
    """mesh_from_edges mesh with counts[r] cells in region r, each cell
    ratio times wider than the one to its left."""
    edges = [geometry.edges[:1]]
    for x0, x1, count in zip(geometry.edges[:-1], geometry.edges[1:], counts):
        w = ratio ** np.arange(count)
        inner = x0 + (x1 - x0) * np.cumsum(w)[:-1] / w.sum()
        edges += [inner, [x1]]
    return mesh_from_edges(np.concatenate(edges), geometry)


def random_slab(rng, n_groups, n_regions, n_ordinates, n_materials=None):
    """Heterogeneous slab of random materials (scattering ratios 0.1-0.9,
    half of them fissile) with a random vacuum, reflective or incoming
    condition at each end.  By default every region has its own material
    and width; with n_materials (at least 2) the regions draw from a pool
    of that many materials, never the one to their left, and their widths
    from a pool of three, so regions apart share materials and some of
    those share widths too."""
    materials = {}
    for r in range(n_regions if n_materials is None else n_materials):
        sigma_t = rng.uniform(0.3, 2.0, n_groups)
        sigma_s = rng.uniform(0.0, 1.0, (n_groups, n_groups))
        sigma_s *= (rng.uniform(0.1, 0.9, n_groups) * sigma_t / sigma_s.sum(axis=1))[:, None]
        fissile = rng.random() < 0.5
        nu_sigma_f = rng.uniform(0.0, 0.5, n_groups) * sigma_t * fissile
        chi = rng.dirichlet(np.ones(n_groups)) if fissile else np.zeros(n_groups)
        materials[f"m{r}"] = MaterialXS(f"m{r}", sigma_t=sigma_t, sigma_s=sigma_s,
                                        nu_sigma_f=nu_sigma_f, chi=chi)
    if n_materials is None:
        names = tuple(materials)
        widths = rng.uniform(0.3, 3.0, n_regions)
    else:
        names = []
        for r in range(n_regions):
            names.append(str(rng.choice([m for m in materials if names[-1:] != [m]])))
        widths = rng.choice(rng.uniform(0.3, 3.0, 3), n_regions)

    def bc():
        kind = rng.choice(["vacuum", "reflective", "incoming"])
        if kind == "incoming":
            return BoundaryCondition.incoming(
                rng.uniform(0.0, 1.0, n_groups * n_ordinates // 2))
        return BoundaryCondition(str(kind))

    edges = np.concatenate([[0.0], np.cumsum(widths)])
    geometry = SlabGeometry(edges=edges, materials=tuple(names),
                            bc_left=bc(), bc_right=bc())
    return geometry, {name: m for name, m in materials.items() if name in names}


def linspace_mesh_edges(geometry, counts):
    """Mesh edges with counts[i] equal cells in region i, one np.linspace
    per region."""
    x = geometry.edges
    return np.concatenate([x[:1], *(np.linspace(x[i], x[i + 1], counts[i] + 1)[1:]
                                    for i in range(geometry.n_regions))])


def split_geometry(geometry, n_regions, seed, grid=0.5):
    """geometry cut into n_regions homogeneous regions: its own material
    interfaces are kept and the other interior edges are drawn without
    replacement, seeded, from a grid of spacing grid.  With n_regions=60,
    grid=0.5 and the two-group pincell this is the benchmark's split60 cut
    for the same seed."""
    lo, hi = float(geometry.edges[0]), float(geometry.edges[-1])
    n_grid = int(round((hi - lo) / grid))
    keep = {int(round((e - lo) / grid)) for e in geometry.edges[1:-1]}
    free = [i for i in range(1, n_grid) if i not in keep]
    rng = np.random.default_rng(seed)
    cuts = rng.choice(free, size=n_regions - 1 - len(keep), replace=False)
    interior = sorted(keep | {int(i) for i in cuts})
    edges = np.array([lo] + [lo + grid * i for i in interior] + [hi])
    region = np.searchsorted(geometry.edges[1:], 0.5 * (edges[:-1] + edges[1:]))
    return replace(geometry, edges=edges,
                   materials=tuple(geometry.materials[r] for r in region))


def absorber_problem(sigma_t=1.0, length=4.0, bc_left=None, bc_right=None):
    geo = SlabGeometry(
        edges=np.array([0.0, length]), materials=("abs",),
        bc_left=bc_left or BoundaryCondition.vacuum(),
        bc_right=bc_right or BoundaryCondition.vacuum())
    return geo, {"abs": one_group_material("abs", sigma_t=sigma_t)}


def absorber_psi(x, mu, sigma_t, q, length):
    """Closed-form angular flux of a vacuum-bounded pure absorber with a
    constant per-ordinate source q: (q/sigma_t)(1 - exp(-sigma_t d / |mu|))
    with d the distance to the inflow boundary."""
    d = np.where(mu > 0, x, length - x)
    return (q / sigma_t) * (1.0 - np.exp(-sigma_t * d / np.abs(mu)))


def random_spectrum(rng, n, zero_block=False, max_rate=3.0):
    """Well-conditioned random block system; returns (A, BlockSpectrum ref).

    Built from known blocks and a controlled-conditioning P, so A is
    guaranteed diagonalizable with eigenvector condition around 10.
    """
    rates = []
    cols = 0
    if zero_block:
        rates.append(0.0)
        cols += 1
    while cols < n:
        if n - cols >= 2 and rng.random() < 0.5:
            rates.append(complex(rng.uniform(-max_rate, max_rate),
                                 rng.uniform(0.1, max_rate)))
            cols += 2
        else:
            rates.append(rng.uniform(-max_rate, max_rate))
            cols += 1
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = q * rng.uniform(0.5, 2.0, size=n)[None, :]
    spec = BlockSpectrum(P=p, P_inv=np.linalg.inv(p), rates=rates)
    return p @ spec.B @ np.linalg.inv(p), spec


def faddeev_leverrier(a):
    """Characteristic polynomial coefficients via trace recursion
    (independent of any eigensolver)."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


class PrintedEntry(NamedTuple):
    """One cross-section entry as a problem file prints it."""

    material: str
    field: str
    index: tuple
    value: float
    half_ulp: float


def printed_entries(materials):
    """Every nonzero sigma_t, sigma_s and nu_sigma_f entry of a materials
    dict, with half a unit in its fifth significant figure (the resolution
    of the "%.4e" format the problem files use).  chi and structural zeros
    are exact and are not listed."""
    out = []
    for name in sorted(materials):
        for field in ("sigma_t", "sigma_s", "nu_sigma_f"):
            values = getattr(materials[name], field)
            for index in zip(*np.nonzero(values)):
                value = float(values[index])
                exponent = int(f"{value:.4e}".split("e")[1])
                out.append(PrintedEntry(name, field, tuple(map(int, index)),
                                        value, 0.5 * 10.0 ** (exponent - 4)))
    return out


def perturbed_materials(materials, entries, offsets):
    """Copy of a materials dict with each of entries moved by the matching
    offset (in cm^-1); materials are rebuilt with dataclasses.replace, so
    the perturbed data pass the same validation as the originals."""
    arrays = {}
    for entry, delta in zip(entries, offsets, strict=True):
        key = (entry.material, entry.field)
        if key not in arrays:
            arrays[key] = np.array(getattr(materials[entry.material], entry.field))
        arrays[key][entry.index] += delta
    out = dict(materials)
    for (name, field), values in arrays.items():
        out[name] = replace(out[name], **{field: values})
    return out


# ---------------------------------------------------------------------------
# Reference oracles.  The package marches every recurrence with one blocked
# FirstOrderScan and builds each solver's operator once per problem; the
# slow paths below are the cell-by-cell sweep, source iteration over it with
# a region-by-region scattering update, the per-element recurrence and the
# per-source analytic path that rebuilt every region and re-checked the
# global matrix on each call.  The fast paths must match them to round-off.


def cell_sigma_t(geometry, materials, mesh):
    """Total cross sections (M, G) of every mesh cell."""
    return np.vstack([materials[name].sigma_t
                      for name in geometry.materials])[mesh.region_of_cell]


SWEEP_SCHEMES = ("step", "diamond")


def sweep_once(mesh, sigma_t, q, quad, incoming_left, incoming_right, scheme="step"):
    """One transport sweep with the per-cell sigma_t (M, G) and the total
    source q (M, N*G) frozen, with the step closure of SweepOperator or the
    second-order diamond closure the tests keep as an oracle.

    incoming_left holds the boundary angular flux for the mu > 0 ordinates
    (group-major, ascending mu); incoming_right for mu < 0.  Returns the
    cell-average fluxes (M, N*G) plus the outgoing boundary fluxes
    (mu < 0 at the left end, mu > 0 at the right end) needed to lag
    reflective boundaries.
    """
    if scheme not in SWEEP_SCHEMES:
        raise ValidationError(f"unknown sweep scheme {scheme!r}")
    n = quad.n
    half = n // 2
    m_cells = mesh.n_cells
    g = q.shape[1] // n
    widths = mesh.widths
    q = np.reshape(q, (m_cells, g, n))
    flux = np.empty((m_cells, g, n))

    # step: psi_c = (c psi_in + q)/(c + sigma_t), outgoing face = psi_c
    # diamond: psi_c = (2c psi_in + q)/(2c + sigma_t), outgoing = 2 psi_c - psi_in
    face = 1.0 if scheme == "step" else 2.0

    mu_pos = quad.mu[half:]
    psi_in = np.asarray(incoming_left, dtype=float).reshape(g, half).copy()
    for m in range(m_cells):
        c = face * mu_pos / widths[m]
        psi_c = (c * psi_in + q[m, :, half:]) / (c + sigma_t[m][:, None])
        flux[m, :, half:] = psi_c
        psi_in = psi_c if scheme == "step" else 2.0 * psi_c - psi_in
    out_right = psi_in.ravel()

    mu_neg = -quad.mu[:half]
    psi_in = np.asarray(incoming_right, dtype=float).reshape(g, half).copy()
    for m in range(m_cells - 1, -1, -1):
        c = face * mu_neg / widths[m]
        psi_c = (c * psi_in + q[m, :, :half]) / (c + sigma_t[m][:, None])
        flux[m, :, :half] = psi_c
        psi_in = psi_c if scheme == "step" else 2.0 * psi_c - psi_in
    out_left = psi_in.ravel()

    return flux.reshape(m_cells, g * n), out_left, out_right


def per_ordinate_source_iteration(operator, geometry, materials, source, tolerance,
                                  phi0=None, ke=None):
    """Source iteration the way the per-ordinate loop ran it, on operator's
    scan, s and boundary data: the (cells, G, G) transfer contracted by
    adding the groups' products front to back, half the total emission
    gathered onto every (scan row, group, ordinate) of the blocked layout,
    the scalar flux (cells, G) summed from the weighted direction halves and
    the change measured by np.linalg.norm.  Returns (scalar flux (M, G),
    angular fluxes in the blocked layout, number of sweeps): what
    source_iteration returns as phi and a Solution's coefficients and
    sweeps."""
    m, g, n = operator.shape
    march, h = operator.march, n // 2
    transfer = []
    for name in geometry.materials:
        mat = materials[name]
        t = mat.sigma_s.T.copy()
        if ke is not None:
            t += np.outer(mat.chi, mat.nu_sigma_f) / ke
        transfer.append(t.T / 2.0)
    transfer = np.stack(transfer)[operator.mesh.region_of_cell]
    weights = np.zeros((n, 2))
    weights[:h, 0] = operator.quad.weight[:h]
    weights[h:, 1] = operator.quad.weight[h:]
    # (cells * G,) in cell order; the padding rows read cell 0's
    slot = np.arange(m * g).reshape(m, g, 1).repeat(n, axis=2)
    gather = march.blocks(operator.scan_order(slot))
    rows = march.index[:, None] * g + np.arange(g)
    neg, pos = 2 * rows[::-1], 2 * rows + 1
    work = march.workspace(float)
    phi = np.zeros((m, g)) if phi0 is None else phi0
    total = np.empty((m, g))
    out = np.zeros((g, n))
    emission = source.emission / 2.0
    for sweeps in range(1, 100000):
        total[...] = phi[:, 0, None] * transfer[:, 0]
        for j in range(1, g):
            total += phi[:, j, None] * transfer[:, j]
        total += emission
        f = np.take(total, gather, out=work[0], mode="clip")
        f *= operator.s
        if operator.inflow:
            f[0, 0] += march.a[0, 0] * np.where(operator.reflect, out[:, ::-1], operator.incoming)
        march.in_place(work)
        out[...] = f.reshape((-1,) + out.shape)[march.last[0]]
        halves = f.reshape(-1, n) @ weights
        phi_new = halves.take(neg) + halves.take(pos)
        change = np.linalg.norm(phi_new - phi)
        phi = phi_new
        if change < tolerance or operator.streaming:
            return phi, f.copy(), sweeps
    raise AssertionError("per-ordinate source iteration did not converge")


def oracle_source_iteration(geometry, materials, mesh, quad, emission,
                            tolerance, phi0=None, ke=None):
    """Source iteration one sweep_once at a time, the scattering (and,
    under a shift, chi nu-fission / ke) source updated region by region.
    The isotropic emission (M, G) puts half of itself on every ordinate.
    Returns (angular flux (M, N*G), number of sweeps)."""
    n, half = quad.n, quad.n // 2
    m_cells, g = emission.shape
    q_external = np.repeat(emission / 2.0, n, axis=1)
    sigma_t = cell_sigma_t(geometry, materials, mesh)
    transfer = []
    for name in geometry.materials:
        mat = materials[name]
        t = mat.sigma_s.T.copy()
        if ke is not None:
            t += np.outer(mat.chi, mat.nu_sigma_f) / ke
        transfer.append(t)
    bcs = (geometry.bc_left, geometry.bc_right)
    streaming = (all(bc.kind != "reflective" for bc in bcs)
                 and not any(t.any() for t in transfer))

    def incoming(bc, outgoing):
        if bc.kind == "reflective":
            return outgoing.reshape(g, half)[:, ::-1].ravel()
        return bc.values if bc.kind == "incoming" else np.zeros(g * half)

    phi = np.zeros((m_cells, g)) if phi0 is None else phi0
    out_left = out_right = np.zeros(g * half)
    for sweeps in range(1, 100000):
        scat = np.empty((m_cells, g))
        for r, t in enumerate(transfer):
            cells = np.arange(*mesh.offsets[r:r + 2])
            scat[cells] = phi[cells] @ t.T
        q_total = q_external + np.repeat(scat / 2.0, n, axis=1)
        flux, out_left, out_right = sweep_once(
            mesh, sigma_t, q_total, quad, incoming(geometry.bc_left, out_left),
            incoming(geometry.bc_right, out_right))
        phi_new = flux.reshape(m_cells, g, n) @ quad.weight
        change = np.linalg.norm(phi_new - phi)
        phi = phi_new
        if change < tolerance or streaming:
            return flux, sweeps
    raise AssertionError("oracle source iteration did not converge")


UNIFORM_RTOL = 1e-12
SOLVE_RCOND_MIN = 1e-14


def source_over_mu(source, quad, cells):
    """Per-ordinate source over mu, (N G, cells): half the emission on
    every ordinate."""
    q = np.repeat(source.emission[cells] / 2.0, quad.n, axis=1)
    g = source.emission.shape[1]
    return (q / np.tile(quad.mu, g)[None, :]).T


class _RegionWork:
    """Everything the assembly and evaluation need for one region."""

    def __init__(self, spec, x_left, x_right, t_edges, theta):
        self.spec = spec
        self.x_left = x_left
        self.x_right = x_right
        self.length = x_right - x_left
        self.t_edges = t_edges
        self.widths = np.diff(t_edges)
        # split the blocks into real ones (one column) and pairs (two)
        pair = spec.rates.imag > 0.0
        width = np.where(pair, 2, 1)
        first = np.cumsum(width) - width
        self.real_cols, self.pair_cols = first[~pair], first[pair]
        self.real_lams, self.pair_z = spec.rates.real[~pair], spec.rates[pair]
        # anchor each block at the edge that keeps its exponent nonpositive
        self.real_anchor = np.where(self.real_lams > 0.0, self.length, 0.0)
        self.pair_anchor = np.where(self.pair_z.real > 0.0, self.length, 0.0)
        # encoded pair scalar: the 2x2 block action on (u1, u2) ~ u1 + i u2
        # is multiplication by conj(z), so all encoded math uses conj(z)
        self.pair_zc = np.conj(self.pair_z)
        self.theta_x = spec.P_inv @ theta
        self.theta_real = self.theta_x[self.real_cols]
        self.theta_pair = (self.theta_x[self.pair_cols]
                           + 1j * self.theta_x[self.pair_cols + 1])
        self.j_real = self._particular_edges(self.real_lams, self.real_anchor,
                                             self.theta_real)
        self.j_pair = self._particular_edges(self.pair_zc, self.pair_anchor,
                                             self.theta_pair)

    def _particular_edges(self, rates, anchors, theta):
        """Particular solution J at every local cell edge, one row per block.

        Forward recurrence from the left edge for blocks anchored at 0,
        backward from the right edge otherwise; all step multipliers have
        magnitude <= 1.
        """
        m = self.widths.size
        out = np.zeros((rates.size, m + 1), dtype=theta.dtype)
        uniform = m > 0 and np.ptp(self.widths) <= UNIFORM_RTOL * self.widths[0]
        for k in range(rates.size):
            rate = rates[k]
            if anchors[k] == 0.0:
                step = np.exp(rate * self.widths)
                src = phi(rate, self.widths, theta.dtype) * theta[k]
                out[k, 1:] = _recurrence(step, src, uniform)
            else:
                step = np.exp(-rate * self.widths[::-1])
                src = -phi(-rate, self.widths[::-1], theta.dtype) * theta[k, ::-1]
                out[k, :-1] = _recurrence(step, src, uniform)[::-1]
        return out

    def edge_particular(self, side):
        """Particular X-vector at the local edge (t = 0 or t = L)."""
        col = 0 if side == "left" else -1
        return self._decode(self.j_real[:, col], self.j_pair[:, col])

    def _decode(self, real_vals, pair_vals):
        out = np.zeros(self.spec.size)
        out[self.real_cols] = real_vals
        out[self.pair_cols] = pair_vals.real
        out[self.pair_cols + 1] = pair_vals.imag
        return out

    def pg_at(self, t):
        """P @ Gtilde(t): the anchored-basis trial functions at local t."""
        spec = self.spec
        out = np.empty_like(spec.P)
        if self.real_cols.size:
            scale = np.exp(self.real_lams * (t - self.real_anchor))
            out[:, self.real_cols] = spec.P[:, self.real_cols] * scale[None, :]
        s = exp_block(self.pair_z, t - self.pair_anchor)
        for k, col in enumerate(self.pair_cols):
            p, q = spec.P[:, col], spec.P[:, col + 1]
            out[:, col] = p * s[k].real - q * s[k].imag
            out[:, col + 1] = p * s[k].imag + q * s[k].real
        return out

    def evaluate(self, alpha, t):
        """Psi at local coordinates t (each in [0, L]), columns per point."""
        spec = self.spec
        cell = np.searchsorted(self.t_edges[1:], t, side="left")
        cell = np.clip(cell, 0, self.widths.size - 1)
        x = np.zeros((spec.size, t.size))

        lam = self.real_lams[:, None]
        if lam.size:
            a = self.real_anchor[:, None]
            ref_edge = np.where(lam <= 0.0, cell[None, :], cell[None, :] + 1)
            d = t[None, :] - self.t_edges[ref_edge]
            j_ref = np.take_along_axis(self.j_real, ref_edge, axis=1)
            th = self.theta_real[:, cell]
            j_t = np.exp(lam * d) * j_ref + phi(lam, d, float) * th
            x[self.real_cols] = np.exp(lam * (t[None, :] - a)) * alpha[self.real_cols][:, None] + j_t

        zc = self.pair_zc[:, None]
        if zc.size:
            a = self.pair_anchor[:, None]
            ref_edge = np.where(zc.real <= 0.0, cell[None, :], cell[None, :] + 1)
            d = t[None, :] - self.t_edges[ref_edge]
            j_ref = np.take_along_axis(self.j_pair, ref_edge, axis=1)
            th = self.theta_pair[:, cell]
            j_t = np.exp(zc * d) * j_ref + phi(zc, d, complex) * th
            alpha_w = alpha[self.pair_cols] + 1j * alpha[self.pair_cols + 1]
            w = np.exp(zc * (t[None, :] - a)) * alpha_w[:, None] + j_t
            x[self.pair_cols] = w.real
            x[self.pair_cols + 1] = w.imag
        return spec.P @ x


def phi_real(lam, dt):
    """Integral of e^{lam u} du over [0, dt] for real lam, in real arithmetic."""
    lam = np.asarray(lam, dtype=float)
    dt = np.asarray(dt, dtype=float)
    w = lam * dt
    _guard(w)
    small = np.abs(w) < PHI_TAYLOR_CUT
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, dt * (1.0 + 0.5 * w), np.expm1(w) / np.where(small, 1.0, lam))
    return out


def phi(rate, dt, dtype):
    """Integral of e^{rate u} du over [0, dt]; dispatches on block kind."""
    if dtype is complex or np.iscomplexobj(rate):
        return phi_block(rate, dt)
    return phi_real(rate, dt)


def _recurrence(step, src, uniform):
    """y_m = step_m y_{m-1} + src_m with y_0 = 0; returns y_1..y_M."""
    if uniform:
        return lfilter([1.0], [1.0, -step[0]], src)
    y = np.zeros(src.size, dtype=src.dtype)
    acc = 0.0j if np.iscomplexobj(src) else 0.0
    for m in range(src.size):
        acc = step[m] * acc + src[m]
        y[m] = acc
    return y


def recurrence_loop(a, b):
    """Per-element reference for FirstOrderScan: the loop recurrence applied
    to every column of (M, ...) arrays."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = np.result_type(a, b)
    cols_a = a.reshape(a.shape[0], -1).astype(dtype)
    cols_b = b.reshape(b.shape[0], -1).astype(dtype)
    out = np.column_stack([_recurrence(cols_a[:, k], cols_b[:, k], False)
                           for k in range(cols_b.shape[1])])
    return out.reshape(b.shape)


def select_rows(matrix, quad, sign):
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


def fission_source(flux, geometry, materials, mesh, k, ke=None):
    """Fission source built from fluxes evaluated on the source-mesh centers,
    with the emission power_iteration forms between outer iterations."""
    if not k > 0.0:
        raise ValidationError(f"k must be positive, got {k}")
    production = np.sum(flux.phi * _per_cell(geometry, materials, mesh, "nu_sigma_f"),
                        axis=1)
    chi = _per_cell(geometry, materials, mesh, "chi")
    return SourceField(mesh, _emission(production, chi, k, ke))


class UnsegmentedScan(FirstOrderScan):
    """FirstOrderScan's blocked layout and coefficients, scanned by a loop
    that knows no segment starts: y[m] = a[m] y[m-1] + b[m] from zero over
    all rows, a per row or one shared row.  Its chain carries the block ends
    one block at a time for a shared row and by doubling for per-row
    coefficients, as the scan's does.  A one-segment FirstOrderScan must
    reproduce it bit for bit."""

    def in_place(self, work):
        y = work[0]
        for j in range(1, self.size):
            y[j] += self.a[j] * y[j - 1]
        if self.shared:
            for i in range(1, self.count):
                y[-1, i] += self.prod[-1, i] * y[-1, i - 1]
        else:
            # step k adds the end k blocks back times the totals between
            total, k = self.prod[-1, 1:], 1
            while k < self.count:
                y[-1, k:] += total * y[-1, :-k]
                total, k = total[k:] * total[:-k], 2 * k
        y[:-1, 1:] += self.prod[:-1, 1:] * y[-1:, :-1]


def scan(march, b, out=None, work=None):
    """march's recurrence on rows: the sources b (rows, columns...) written
    through march.index into the blocked layout of work (a fresh workspace
    when None), padding rows zero, scanned there with in_place and read
    back through index into out (allocated when None), with no temporaries.
    b may be rows of the scratch work[1]: it is read in full before
    in_place writes there."""
    work = march.workspace(np.result_type(march.a, b)) if work is None else work
    y = work[0]
    flat = y.reshape((-1,) + march.shape[1:])
    y.fill(0)
    flat[march.index] = b
    march.in_place(work)
    out = np.empty(march.shape, y.dtype) if out is None else out
    # mode="raise" would buffer out; index holds valid rows only
    return np.take(flat, march.index, axis=0, out=out, mode="clip")


# The analytic cell-centre path in rows: theta and J formed as (rows,
# blocks) arrays in scan order and combined at every centre with the
# group's width-only factors unfolded.  The operator's blocked path with
# folded factors must match it to round-off.


class RowsParticular(NamedTuple):
    theta: np.ndarray   # (rows, blocks) source over mu, signed along the march
    j_in: np.ndarray    # (rows, blocks) particular solution at each cell's upwind edge
    ends: np.ndarray    # (regions, blocks) particular solution where each region's march ends


def rows_particular(group, emission):
    """Project the group's share of the emission and march J in rows."""
    nf = group.nf
    theta, j = np.empty((2, group.cells.size + 1, group.rho.size), dtype=complex)
    theta = theta[:-1]
    own = emission[group.cells]
    np.matmul(own, group.project[:, :nf], out=theta[:, :nf])
    np.matmul(own[group.back], group.project[:, nf:], out=theta[:, nf:])
    # j[m + 1] is J after scan row m; j[:-1] is J at every row's upwind edge
    scan(group.march, (1.0 + group.half) * group.phi_half * theta, out=j[1:])
    ends = j[group.ends]
    j[group.starts] = 0.0
    return RowsParticular(theta, j[:-1], ends)


def rows_hom(group, centers):
    """exp(rho anchor) (rows, blocks) at the group's cell centres, taken from
    centers (the mesh's) per row: t from each region's left edge for the
    forward blocks, length - t in each region's reversed cell order for the
    backward blocks."""
    segment = np.repeat(np.arange(group.starts.size), group.ends - group.starts)
    t = centers[group.cells] - group.x_left[segment]
    backward = (group.length[segment] - t)[group.back]
    return exp_block(group.rho, np.where(group.forward, t[:, None], backward[:, None]))


def rows_centres_into(group, alphas, part, expand, centers, out):
    """out[cells] = Re(x @ expand), x = hom alpha + half j_in + phi_half
    theta at every cell centre, hom from rows_hom."""
    segment = np.repeat(np.arange(group.starts.size), group.ends - group.starts)
    x = group.half * part.j_in + group.phi_half * part.theta
    x += (alphas[group.regions] @ group.enc.T)[segment] * rows_hom(group, centers)
    nf = group.nf
    values = (x[:, nf:] @ expand[nf:]).real[group.back]
    values += (x[:, :nf] @ expand[:nf]).real
    out[group.cells] = values


def rows_psi_at(group, i, alpha, part, t):
    """Psi (points, N G) at local coordinates t of the group's region i."""
    rows = slice(group.starts[i], group.ends[i])
    m = rows.stop - rows.start
    t_edges = group.mesh_edges[group.first[i]:group.first[i] + m + 1] - group.x_left[i]
    cell = np.clip(np.searchsorted(t_edges[1:], t, side="left"), 0, m - 1)
    row = np.where(group.forward, cell[:, None], m - 1 - cell[:, None])
    anchor = np.where(group.forward, t[:, None], (group.length[i] - t)[:, None])
    upwind = np.where(group.forward, (t - t_edges[cell])[:, None],
                      (t_edges[cell + 1] - t)[:, None])
    j_in = np.take_along_axis(part.j_in[rows], row, axis=0)
    theta = np.take_along_axis(part.theta[rows], row, axis=0)
    x = exp_block(group.rho, anchor) * (group.enc @ alpha)
    x += exp_block(group.rho, upwind) * j_in
    x += phi_block(group.rho, upwind) * theta
    return (x @ group.expand).real


def rows_fixed_source(operator, source, points):
    """(phi and psi at the cell centres, psi at points) of one fixed-source
    solve on the operator's groups and factor by the rows path."""
    parts = [rows_particular(group, source.emission) for group in operator.groups]
    alphas = operator.factor.solve(operator.rhs([part.ends for part in parts]))
    phi = np.empty((operator.mesh.n_cells, operator.n_groups))
    psi = np.empty((operator.mesh.n_cells, operator.ng))
    region = np.searchsorted(operator.geometry.edges[1:], points, side="left")
    at_points = np.empty((points.size, operator.ng))
    for group, part in zip(operator.groups, parts):
        rows_centres_into(group, alphas, part, group.expand_phi, operator.mesh.centers, phi)
        rows_centres_into(group, alphas, part, group.expand, operator.mesh.centers, psi)
        for i, r in enumerate(group.regions):
            idx = np.nonzero(region == r)[0]
            at_points[idx] = rows_psi_at(group, i, alphas[r], part,
                                         points[idx] - group.x_left[i])
    return phi, psi, at_points


def _region_works(geometry, spectra, source, quad):
    """One _RegionWork per region; spectra maps material name -> BlockSpectrum."""
    mesh = source.mesh
    works = []
    for r in range(geometry.n_regions):
        cells = np.arange(*mesh.offsets[r:r + 2])
        if cells.size == 0:
            raise ValidationError(f"region {r} has no source cells")
        x_left = geometry.edges[r]
        spec = spectra[geometry.materials[r]]
        t_edges = np.concatenate([mesh.edges[cells] - x_left,
                                  [mesh.edges[cells[-1] + 1] - x_left]])
        theta = source_over_mu(source, quad, cells)
        works.append(_RegionWork(spec, x_left, geometry.edges[r + 1], t_edges, theta))
    return works


def _boundary_rows(work, bc, quad, side):
    """(rows, rhs) for one boundary condition applied to one region edge."""
    t = 0.0 if side == "left" else work.length
    pg = work.pg_at(t)
    psi_part = work.spec.P @ work.edge_particular(side)
    g = work.spec.size // quad.n
    if bc.kind == "reflective":
        pos, neg = mirrored_pairs(quad, g)
        rows = pg[pos] - pg[neg]
        rhs = -(psi_part[pos] - psi_part[neg])
        return rows, rhs
    sign = "positive" if side == "left" else "negative"
    rows = select_rows(pg, quad, sign)
    incoming = bc.values if bc.kind == "incoming" else np.zeros(rows.shape[0])
    rhs = incoming - select_rows(psi_part[:, None], quad, sign)[:, 0]
    return rows, rhs


def _assemble(works, geometry, quad):
    ng = works[0].spec.size
    r = len(works)
    mat = np.zeros((ng * r, ng * r))
    rhs = np.zeros(ng * r)
    half = ng // 2

    rows, vals = _boundary_rows(works[0], geometry.bc_left, quad, "left")
    mat[:half, :ng] = rows
    rhs[:half] = vals
    rows, vals = _boundary_rows(works[-1], geometry.bc_right, quad, "right")
    mat[half:ng, (r - 1) * ng:] = rows
    rhs[half:ng] = vals

    for i in range(r - 1):
        left, right = works[i], works[i + 1]
        r0, r1 = ng * (i + 1), ng * (i + 2)
        mat[r0:r1, ng * i:ng * (i + 1)] = left.pg_at(left.length)
        mat[r0:r1, ng * (i + 1):ng * (i + 2)] = -right.pg_at(0.0)
        rhs[r0:r1] = (right.spec.P @ right.edge_particular("left")
                      - left.spec.P @ left.edge_particular("right"))
    return mat, rhs


def _solve_alpha(matrix, rhs, ng, n_regions):
    """Dense global solve: 2-norm rcond from a full SVD, then LU."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if not np.isfinite(rcond) or rcond < SOLVE_RCOND_MIN:
        raise SingularSystemError(
            f"global system is numerically singular (rcond={rcond:.3e}); "
            "the shift may sit on an eigenvalue of the problem")
    alpha = np.linalg.solve(matrix, rhs)
    return [alpha[i * ng:(i + 1) * ng] for i in range(n_regions)]


def oracle_fixed_source(geometry, spectra, source, quad, points=None):
    """Per-source analytic solve (every region rebuilt, the global matrix
    re-assembled and re-checked); returns psi at the source-cell centres,
    or at points when given."""
    works = _region_works(geometry, spectra, source, quad)
    mat, rhs = _assemble(works, geometry, quad)
    alphas = _solve_alpha(mat, rhs, works[0].spec.size, len(works))
    mesh = source.mesh
    if points is None:
        psi = np.zeros((mesh.n_cells, works[0].spec.size))
        for r, (alpha, work) in enumerate(zip(alphas, works)):
            cells = np.arange(*mesh.offsets[r:r + 2])
            psi[cells] = work.evaluate(alpha, mesh.centers[cells] - work.x_left).T
        return psi
    points = np.asarray(points, dtype=float)
    region = np.searchsorted(geometry.edges[1:], points, side="left")
    psi = np.zeros((points.size, works[0].spec.size))
    for r, (alpha, work) in enumerate(zip(alphas, works)):
        idx = np.nonzero(region == r)[0]
        if idx.size:
            psi[idx] = work.evaluate(alpha, points[idx] - work.x_left).T
    return psi


def loop_edge_block(group, i, side):
    """P @ Gtilde at the left or right edge of the group's region i, in the
    real block basis, one region at a time: the per-region form of
    _Group.edge_blocks."""
    far = ~group.forward if side == "left" else group.forward
    scale = exp_block(group.rho, np.where(far, group.length[i], 0.0))
    return ((group.expand.T * scale[None, :]) @ group.enc).real


def mirrored_pairs(quad, g):
    """(rows of mu > 0, rows of -mu) of the group-major angular flux: each
    ordinate with mu > 0, group by group in ordinate order, matched with
    the ordinate of its group whose mu is its negative."""
    pos, neg = [], []
    for group in range(g):
        for i, mu in enumerate(quad.mu):
            if mu > 0.0:
                j = [j for j, other in enumerate(quad.mu) if other == -mu]
                assert len(j) == 1
                pos.append(group * quad.n + i)
                neg.append(group * quad.n + j[0])
    return np.array(pos), np.array(neg)


def bc_combination(bc, quad, side, values):
    """The N G / 2 combinations of values' (N G) leading rows that one
    boundary condition constrains, selected by a mask: incoming ordinates
    (group-major), or incoming minus mirrored outgoing for a reflective
    end."""
    g = values.shape[0] // quad.n
    if bc.kind == "reflective":
        pos, neg = mirrored_pairs(quad, g)
        return values[pos] - values[neg]
    return values[np.tile(quad.mu > 0.0 if side == "left" else quad.mu < 0.0, g)]


def loop_factor(operator):
    """InterfaceFactor's step, coupling, last and 1-norm of M built the way
    the per-region loop built them: from loop_edge_block's blocks, an
    (interface rows on alpha_k, rows on alpha_k+1) pair per interface, and
    a panel stacked afresh for every column."""
    regions = {r: (group, i) for group in operator.groups for i, r in enumerate(group.regions)}

    def pg(r, side):
        group, i = regions[r]
        return loop_edge_block(group, i, side)

    geo, quad, last = operator.geometry, operator.quad, operator.geometry.n_regions - 1
    left = bc_combination(geo.bc_left, quad, "left", pg(0, "left"))
    right = bc_combination(geo.bc_right, quad, "right", pg(last, "right"))
    interfaces = [(pg(r, "right"), -pg(r + 1, "left")) for r in range(last)]
    h, n = left.shape
    step = np.empty((last, h + n, h + n))
    coupling = np.empty((last, n, n))
    column_sums = np.zeros((last + 1, n))
    column_sums[0] += np.abs(left).sum(axis=0)
    column_sums[-1] += np.abs(right).sum(axis=0)
    carried = left
    for k, (on_k, on_next) in enumerate(interfaces):
        column_sums[k] += np.abs(on_k).sum(axis=0)
        column_sums[k + 1] += np.abs(on_next).sum(axis=0)
        q, r = np.linalg.qr(np.vstack([carried, on_k]), mode="complete")
        r_inv = _inverse(r[:n])
        c = q[h:].T @ on_next
        step[k, :n] = r_inv @ q[:, :n].T
        step[k, n:] = q[:, n:].T
        coupling[k] = r_inv @ c[:n]
        carried = c[n:]
    q, r = np.linalg.qr(np.vstack([carried, right]))
    return step, coupling, _inverse(r) @ q.T, column_sums.max()


def loop_solve(factor, rhs):
    """InterfaceFactor.solve as a loop over the region columns with fresh
    temporaries: alpha (R, n) with M alpha = rhs."""
    n = factor.last.shape[0]
    h = n // 2
    y = np.empty((factor.n_regions, n))
    carried = rhs[:h]
    for k in range(factor.n_regions - 1):
        t = factor.step[k] @ np.concatenate([carried, rhs[h + k * n:h + (k + 1) * n]])
        y[k] = t[:n]
        carried = t[n:]
    y[-1] = factor.last @ np.concatenate([carried, rhs[-h:]])
    for k in range(factor.n_regions - 2, -1, -1):
        y[k] -= factor.coupling[k] @ y[k + 1]
    return y


def loop_solve_transposed(factor, b):
    """InterfaceFactor.solve_transposed as a loop with fresh temporaries:
    x in row order with M^T x = b."""
    n = factor.last.shape[0]
    h = n // 2
    w = b.reshape(factor.n_regions, n).copy()
    for k in range(1, factor.n_regions):
        w[k] -= factor.coupling[k - 1].T @ w[k - 1]
    x = np.empty(b.size)
    t = factor.last.T @ w[-1]
    x[-h:] = t[h:]
    carried = t[:h]
    for k in range(factor.n_regions - 2, -1, -1):
        t = factor.step[k].T @ np.concatenate([w[k], carried])
        x[h + k * n:h + (k + 1) * n] = t[h:]
        carried = t[:h]
    x[:h] = carried
    return x


def loop_rcond(factor, norm):
    """The factor's condition estimate with loop_solve and
    loop_solve_transposed in place of its own solves."""
    return _rcond_estimate(norm, lambda v: loop_solve(factor, v),
                           lambda v: loop_solve_transposed(factor, v),
                           factor.n_regions * factor.last.shape[0])


def power_keff(solve_phi, geometry, materials, mesh, outers):
    """k after a fixed number of unshifted power iterations on a given mesh;
    solve_phi maps a SourceField to the scalar flux (cells, G) at the cell
    centres."""
    def per_cell(attr):
        table = np.vstack([getattr(materials[name], attr) for name in geometry.materials])
        return table[mesh.region_of_cell]

    chi, nu_sigma_f = per_cell("chi"), per_cell("nu_sigma_f")
    production = nu_sigma_f.sum(axis=1)
    integral = np.sum(production * mesh.widths)
    k = 1.0
    for _ in range(outers):
        phi = solve_phi(SourceField(mesh, chi * production[:, None] / k))
        production = np.sum(phi * nu_sigma_f, axis=1)
        new = np.sum(production * mesh.widths)
        k *= new / integral
        integral = new
    return k


def write_flux_csv_per_value(path, flux):
    """Reference flux CSV writer: csv.writer, one repr(float) per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "group", "phi"])
        for p in range(flux.points.size):
            for gg in range(flux.n_groups):
                writer.writerow([repr(float(flux.points[p])), gg + 1,
                                 repr(float(flux.phi[p, gg]))])
