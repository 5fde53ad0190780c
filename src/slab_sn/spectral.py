"""Transport matrix assembly and its real block-diagonalization.

The streaming form of the multigroup discrete-ordinates equation in a
homogeneous region is d/dx Psi = A Psi + Theta with Theta = Q / mu.  A is
similar to a real block-diagonal B (1x1 blocks for real eigenvalues, 2x2
blocks [[a, b], [-b, a]] for complex pairs a +/- ib with b > 0), A P = P B,
where the paired columns of P are [Re v | Im v].

Every block is kept as one complex scalar, its rate: a real eigenvalue
lambda, or z = a + ib for a pair.  On the block-scalar coordinates
u1 + i u2 of a pair's two columns, the 2x2 block acts as multiplication by
conj(z), so any function f of B is Re(E^H diag(f(conj rates)) E) with E the
spectrum's encoding, and all block evaluations are implemented that way.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DefectiveMatrixError, ExponentOverflowError, ValidationError
from .model import MaterialXS, QuadratureSet

RESIDUAL_RTOL = 1e-10
RCOND_MIN = 1e-13
EXP_ARG_MAX = 700.0
PHI_TAYLOR_CUT = 1e-8


def assemble_A(material: MaterialXS, quad: QuadratureSet,
               fission_scale: float = 0.0) -> np.ndarray:
    """Dense streaming-form matrix for one material, rows scaled by 1/mu.

    Entry (r, c) with r = (g-1)N + n and c = (g'-1)N + n' is

        (1/mu_n) * (-Sigma_t[g] d_gg' d_nn'
                    + w_n' * (kernel_{g'n'->gn} + s * chi[g] nuSigma_f[g'] / 2))

    where the kernel defaults to the isotropic sigma_s[g', g] / 2 and s is
    the fission scale (0 for a plain fixed-source operator, 1/k_e when the
    Wielandt-shifted fission term is folded in).
    """
    if not np.isfinite(fission_scale) or fission_scale < 0.0:
        raise ValidationError(f"fission_scale must be finite and >= 0, got {fission_scale}")
    g = material.n_groups
    n = quad.n
    ng = g * n
    material.require_kernel_order(ng)
    if material.scatter_kernel is not None:
        kernel = material.scatter_kernel.copy()
    else:
        kernel = np.kron(material.sigma_s.T, np.ones((n, n))) / 2.0
    if fission_scale > 0.0:
        fission = np.outer(material.chi, material.nu_sigma_f)
        kernel = kernel + fission_scale * np.kron(fission, np.ones((n, n))) / 2.0
    a = kernel * np.tile(quad.weight, g)[None, :]
    idx = np.arange(ng)
    a[idx, idx] -= np.repeat(material.sigma_t, n)
    a /= np.tile(quad.mu, g)[:, None]
    return a


@dataclass(frozen=True)
class BlockSpectrum:
    """Real block-diagonalization A P = P B of one region's transport matrix.

    rates holds one complex scalar per block, in column order: a real block
    stores lambda with zero imaginary part and owns one column of P, a pair
    block stores z = a + ib with b > 0 and owns two adjacent columns
    [Re v | Im v].  encoding (blocks x columns, read-only) maps real column
    coefficients to block scalars: 1 at a block's first column, and 1j at
    the second column of a pair.
    """

    P: np.ndarray
    P_inv: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.P, dtype=float)
        rates = np.array(self.rates, dtype=complex, ndmin=1)
        pair = rates.imag > 0.0
        width = np.where(pair, 2, 1)
        if np.any(rates.imag < 0.0) or width.sum() != p.shape[0]:
            raise ValidationError("blocks must tile all columns of P")
        first = np.cumsum(width) - width
        enc = np.zeros((rates.size, p.shape[0]), dtype=complex)
        enc[np.arange(rates.size), first] = 1.0
        enc[pair, first[pair] + 1] = 1j
        for arr in (rates, enc):
            arr.setflags(write=False)
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "P_inv", np.asarray(self.P_inv, dtype=float))
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "encoding", enc)

    @property
    def size(self) -> int:
        return self.P.shape[0]

    @property
    def B(self) -> np.ndarray:
        return _dense(self, self.rates.conj())


def block_diagonalize(a) -> BlockSpectrum:
    """Real eigensystem of A with complex pairs folded into 2x2 blocks.

    np.linalg.eig (LAPACK geev) returns a real matrix's complex pairs as
    exact conjugates, so a pair takes the eigenvector of its b > 0 member.
    Blocks are ordered by (real part, imaginary part) so coefficients are
    reproducible run to run.  Raises ValidationError unless A is square and
    finite, and DefectiveMatrixError when the eigenvector matrix is
    numerically singular (reciprocal condition below 1e-13) or the
    similarity residual exceeds 1e-10 * ||A||_F.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("transport matrix must be square")
    if np.any(~np.isfinite(a)):
        raise ValidationError("transport matrix entries must be finite")
    w, v = np.linalg.eig(a)
    keep = np.flatnonzero(w.imag >= 0.0)
    keep = keep[np.lexsort((w.imag[keep], w.real[keep]))]
    pair = w.imag[keep] > 0.0
    p = np.hstack([np.column_stack([v[:, i].real, v[:, i].imag]) if z else v[:, i].real[:, None]
                   for i, z in zip(keep, pair)])
    sv = np.linalg.svd(p, compute_uv=False)
    rcond = sv[-1] / sv[0]
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise DefectiveMatrixError(
            f"eigenvector matrix is numerically singular (rcond={rcond:.3e}); "
            "the transport matrix is nearly defective, perturb k_e or split regions")
    spec = BlockSpectrum(P=p, P_inv=np.linalg.inv(p),
                         rates=np.where(pair, w[keep], w[keep].real))
    resid = np.linalg.norm(a @ p - p @ spec.B) / max(np.linalg.norm(a), np.finfo(float).tiny)
    if resid > RESIDUAL_RTOL:
        raise DefectiveMatrixError(f"block-diagonalization residual {resid:.3e} too large")
    return spec


# ---------------------------------------------------------------------------
# block-valued primitives
#
# exp_block / phi_block work on the per-block scalars: a real eigenvalue
# lambda, or the complex scalar standing in for a 2x2 pair block.


def _guard(args) -> None:
    if args.size and np.max(args) > EXP_ARG_MAX:
        raise ExponentOverflowError(
            f"exponential argument {np.max(args):.1f} exceeds {EXP_ARG_MAX:.0f}; "
            "split the region into thinner ones")


def exp_block(rate, x):
    """e^{rate * x} for block scalars, with the overflow guard."""
    w = np.asarray(rate * x, dtype=complex)
    _guard(w.real)
    return np.exp(w)


def phi_block(rate, dt):
    """Integral of e^{rate u} du over [0, dt] (dt may be negative) for block
    scalars."""
    rate = np.asarray(rate, dtype=complex)
    dt = np.asarray(dt, dtype=float)
    w = rate * dt
    _guard(w.real)
    small = np.abs(w) < PHI_TAYLOR_CUT
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, dt * (1.0 + 0.5 * w),
                       np.expm1(w) / np.where(small, 1.0, rate))
    return out


def _dense(spec: BlockSpectrum, values) -> np.ndarray:
    """Real matrix acting on the block scalars as multiplication by values
    (one per block): Re(E^H diag(values) E)."""
    return ((spec.encoding.conj().T * values) @ spec.encoding).real
