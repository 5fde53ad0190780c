"""Transport matrix assembly and its real block-diagonalization.

The streaming form of the multigroup discrete-ordinates equation in a
homogeneous region is d/dx Psi = A Psi + Theta with Theta = Q / mu.  A is
similar to a real block-diagonal B (1x1 blocks for real eigenvalues, 2x2
blocks [[a, b], [-b, a]] for complex pairs a +/- ib with b > 0), A P = P B,
where the paired columns of P are [Re v | Im v].  A 2x2 block of that shape
behaves exactly like the complex scalar z = a + ib, which is how all block
evaluations are implemented here.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .exceptions import DefectiveMatrixError, ExponentOverflowError, ValidationError
from .model import MaterialXS, QuadratureSet

RESIDUAL_RTOL = 1e-10
PAIR_MATCH_RTOL = 1e-8
RCOND_MIN = 1e-13
EXP_ARG_MAX = 700.0
PHI_TAYLOR_CUT = 1e-8


@dataclass(frozen=True)
class TransportMatrix:
    """Dense streaming-form matrix for one material, rows scaled by 1/mu."""

    A: np.ndarray
    material: str
    fission_scale: float

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("transport matrix must be square")
        if np.any(~np.isfinite(a)):
            raise ValidationError("transport matrix entries must be finite")


@dataclass(frozen=True)
class RealBlock:
    lam: float


@dataclass(frozen=True)
class ComplexPairBlock:
    a: float
    b: float


Block = Union[RealBlock, ComplexPairBlock]


def assemble_A(material: MaterialXS, quad: QuadratureSet,
               fission_scale: float = 0.0) -> TransportMatrix:
    """Streaming-form matrix for one material.

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
    if material.scatter_kernel is not None:
        if material.scatter_kernel.shape[0] != ng:
            raise ValidationError(
                f"material {material.name!r}: scatter_kernel is "
                f"{material.scatter_kernel.shape[0]}, expected {ng}")
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
    return TransportMatrix(A=a, material=material.name, fission_scale=fission_scale)


@dataclass(frozen=True)
class BlockSpectrum:
    """Real block-diagonalization A P = P B of one region's transport matrix.

    blocks tile the columns of P in order: a RealBlock owns one column, a
    ComplexPairBlock owns two adjacent columns [Re v | Im v].  Derived index
    arrays (real_cols / pair_cols and the eigenvalues as flat arrays) are
    precomputed for vectorized evaluation.
    """

    P: np.ndarray
    P_inv: np.ndarray
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        object.__setattr__(self, "P_inv", np.asarray(self.P_inv, dtype=float))
        real_cols, real_lams, pair_cols, pair_z = [], [], [], []
        col = 0
        for blk in self.blocks:
            if isinstance(blk, RealBlock):
                real_cols.append(col)
                real_lams.append(blk.lam)
                col += 1
            else:
                pair_cols.append(col)
                pair_z.append(complex(blk.a, blk.b))
                col += 2
        if col != self.P.shape[0]:
            raise ValidationError("blocks must tile all columns of P")
        object.__setattr__(self, "real_cols", np.array(real_cols, dtype=int))
        object.__setattr__(self, "real_lams", np.array(real_lams, dtype=float))
        object.__setattr__(self, "pair_cols", np.array(pair_cols, dtype=int))
        object.__setattr__(self, "pair_z", np.array(pair_z, dtype=complex))

    @property
    def size(self) -> int:
        return self.P.shape[0]

    @property
    def B(self) -> np.ndarray:
        b = np.zeros((self.size, self.size))
        b[self.real_cols, self.real_cols] = self.real_lams
        for col, z in zip(self.pair_cols, self.pair_z):
            b[col, col] = b[col + 1, col + 1] = z.real
            b[col, col + 1] = z.imag
            b[col + 1, col] = -z.imag
        return b

    @property
    def eigenvalues(self) -> np.ndarray:
        vals = list(self.real_lams.astype(complex))
        for z in self.pair_z:
            vals.extend([z, z.conjugate()])
        return np.array(vals)


def block_diagonalize(tm: TransportMatrix) -> BlockSpectrum:
    """Real eigensystem of A with complex pairs folded into 2x2 blocks.

    Blocks are ordered by (real part, |imaginary part|) so coefficients are
    reproducible run to run.  Raises DefectiveMatrixError when the
    eigenvector matrix is numerically singular (reciprocal condition below
    1e-13) or the similarity residual exceeds 1e-10 * ||A||_F.
    """
    a = tm.A
    w, v = np.linalg.eig(a)
    if not np.iscomplexobj(w):
        w = w.astype(complex)
        v = v.astype(complex)
    scale = max(np.max(np.abs(w)), 1.0)
    used = np.zeros(w.size, dtype=bool)
    items = []
    for i in range(w.size):
        if used[i]:
            continue
        lam = w[i]
        if lam.imag == 0.0:
            items.append((lam.real, 0.0, RealBlock(lam.real), v[:, i].real[:, None]))
            used[i] = True
            continue
        target = lam.conjugate()
        candidates = [j for j in range(i + 1, w.size) if not used[j]]
        if not candidates:
            raise DefectiveMatrixError("unpaired complex eigenvalue")
        j = min(candidates, key=lambda j: abs(w[j] - target))
        if abs(w[j] - target) > PAIR_MATCH_RTOL * scale:
            raise DefectiveMatrixError(
                f"complex eigenvalue {lam} has no conjugate partner")
        used[i] = used[j] = True
        vec = v[:, i] if lam.imag > 0.0 else v[:, j]
        z = complex(lam.real, abs(lam.imag))
        cols = np.column_stack([vec.real, vec.imag])
        items.append((z.real, z.imag, ComplexPairBlock(z.real, z.imag), cols))
    items.sort(key=lambda it: (it[0], it[1]))
    p = np.hstack([it[3] for it in items])
    blocks = tuple(it[2] for it in items)
    sv = np.linalg.svd(p, compute_uv=False)
    rcond = sv[-1] / sv[0]
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise DefectiveMatrixError(
            f"eigenvector matrix is numerically singular (rcond={rcond:.3e}); "
            "the transport matrix is nearly defective, perturb k_e or split regions")
    p_inv = np.linalg.inv(p)
    spec = BlockSpectrum(P=p, P_inv=p_inv, blocks=blocks)
    resid = np.linalg.norm(a @ p - p @ spec.B) / max(np.linalg.norm(a), np.finfo(float).tiny)
    if resid > RESIDUAL_RTOL:
        raise DefectiveMatrixError(f"block-diagonalization residual {resid:.3e} too large")
    return spec


# ---------------------------------------------------------------------------
# block-valued primitives
#
# exp_block / phi_block work on the per-block scalars: a real eigenvalue
# lambda, or the complex z = a + ib standing in for its 2x2 block.


def _guard(args) -> None:
    if args.size and np.max(args) > EXP_ARG_MAX:
        raise ExponentOverflowError(
            f"exponential argument {np.max(args):.1f} exceeds {EXP_ARG_MAX:.0f}; "
            "split the region into thinner ones")


def exp_real(lam, x):
    """e^{lam * x} with the overflow guard."""
    arg = np.asarray(lam * x, dtype=float)
    _guard(arg)
    return np.exp(arg)


def exp_pair(z, x):
    """e^{z * x} for the complex stand-in of a 2x2 block."""
    w = np.asarray(z * x, dtype=complex)
    _guard(w.real)
    return np.exp(w)


def _expm1_complex(w):
    """e^w - 1 for complex w without cancellation near w = 0."""
    u = w.real
    v = w.imag
    real = np.cos(v) * np.expm1(u) - 2.0 * np.sin(v / 2.0) ** 2
    imag = np.exp(u) * np.sin(v)
    return real + 1j * imag


def phi_real(lam, dt):
    """Integral of e^{lam u} du over [0, dt] (dt may be negative)."""
    lam = np.asarray(lam, dtype=float)
    dt = np.asarray(dt, dtype=float)
    w = lam * dt
    _guard(w)
    small = np.abs(w) < PHI_TAYLOR_CUT
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, dt * (1.0 + 0.5 * w), np.expm1(w) / np.where(small, 1.0, lam))
    return out


def phi_pair(z, dt):
    """Integral of e^{z u} du over [0, dt] for the complex block scalar."""
    z = np.asarray(z, dtype=complex)
    dt = np.asarray(dt, dtype=float)
    w = z * dt
    _guard(w.real)
    small = np.abs(w) < PHI_TAYLOR_CUT
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, dt * (1.0 + 0.5 * w), _expm1_complex(w) / np.where(small, 1.0, z))
    return out


def _dense_from_block_values(spec: BlockSpectrum, real_vals, pair_vals) -> np.ndarray:
    out = np.zeros((spec.size, spec.size))
    out[spec.real_cols, spec.real_cols] = real_vals
    for k, col in enumerate(spec.pair_cols):
        s = pair_vals[k]
        out[col, col] = out[col + 1, col + 1] = s.real
        out[col, col + 1] = s.imag
        out[col + 1, col] = -s.imag
    return out


def gamma(spec: BlockSpectrum, x: float) -> np.ndarray:
    """Dense Gamma(x) = exp(B x): e^{lam x} on real blocks and
    e^{a x} [[cos bx, sin bx], [-sin bx, cos bx]] on complex pairs."""
    return _dense_from_block_values(spec, exp_real(spec.real_lams, x),
                                    exp_pair(spec.pair_z, x))


def segment_integral(spec: BlockSpectrum, x_a: float, x_b: float) -> np.ndarray:
    """Dense integral of Gamma(-xi) d xi over [x_a, x_b], blockwise closed form.

    Blocks with |lam| * (x_b - x_a) below 1e-8 switch to the series limit,
    so zero eigenvalues (pure scatterers) integrate exactly to the width.
    """
    if x_b < x_a:
        raise ValidationError(f"segment bounds out of order: [{x_a}, {x_b}]")
    dt = x_b - x_a
    ends = np.concatenate([
        -spec.real_lams * x_a, -spec.real_lams * x_b,
        -spec.pair_z.real * x_a, -spec.pair_z.real * x_b,
    ])
    _guard(ends)
    rv = exp_real(-spec.real_lams, x_a) * phi_real(-spec.real_lams, dt)
    pv = exp_pair(-spec.pair_z, x_a) * phi_pair(-spec.pair_z, dt)
    return _dense_from_block_values(spec, rv, pv)
