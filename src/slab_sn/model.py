"""Problem definition: quadrature, materials, geometry, solver configuration.

All types are immutable after construction (arrays are marked read-only) and
safe to share between threads.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ValidationError

WEIGHT_SUM_TOL = 1e-12
CHI_SUM_TOL = 1e-12

BC_KINDS = ("vacuum", "incoming", "reflective")
SOLVER_KINDS = ("analytic", "sweep")


def _readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadratureSet:
    """Discrete ordinates mu_n with weights summing to 2 over mu in [-1, 1].

    Ordinates are strictly ascending, nonzero, and symmetric about zero, so
    the first N/2 entries have mu < 0 and the last N/2 have mu > 0, and the
    reflection partner of ordinate n is ordinate N + 1 - n.
    """

    mu: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        mu = _readonly(self.mu)
        w = _readonly(self.weight)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "weight", w)
        n = mu.size
        if n < 2 or n % 2 != 0:
            raise ValidationError(f"quadrature size must be even and >= 2, got {n}")
        if w.size != n:
            raise ValidationError("mu and weight must have the same length")
        if not np.all((mu > -1.0) & (mu < 1.0)):
            raise ValidationError("ordinates must lie in (-1, 1)")
        if np.any(mu == 0.0):
            raise ValidationError("ordinates must be nonzero")
        if not np.all(np.diff(mu) > 0.0):
            raise ValidationError("ordinates must be strictly ascending")
        if not np.max(np.abs(mu + mu[::-1])) <= 1e-12:
            raise ValidationError("ordinates must be symmetric about zero")
        if not np.all(w > 0.0):
            raise ValidationError("weights must be positive")
        if not abs(w.sum() - 2.0) <= WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 2, got {w.sum()!r}")

    @property
    def n(self) -> int:
        return self.mu.size


def require_sn_order(n) -> int:
    """n as an int, or ValidationError unless it is even (no mu = 0) and in [2, 64]."""
    if not isinstance(n, (int, np.integer)) or n % 2 != 0 or not 2 <= n <= 64:
        raise ValidationError(f"sn_order must be an even integer in [2, 64], got {n!r}")
    return int(n)


def gauss_legendre(n: int) -> QuadratureSet:
    """Gauss-Legendre quadrature with n nodes on (-1, 1), n an S_N order.

    Nodes are the roots of the Legendre polynomial P_n, so the rule
    integrates polynomials up to degree 2n - 1 exactly.
    """
    mu, w = np.polynomial.legendre.leggauss(require_sn_order(n))
    # leggauss is symmetric only to round-off; enforce exact symmetry so the
    # reflective-pairing index map is bit-clean.
    mu = 0.5 * (mu - mu[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureSet(mu=mu, weight=w)


@dataclass(frozen=True)
class MaterialXS:
    """Multigroup cross sections (cm^-1) for one material.

    sigma_s[gp, g] is the scattering transfer from group gp into group g
    (row-major "from" ordering).  chi must sum to one whenever any
    nu_sigma_f entry is positive; a non-fissile material may carry an
    all-zero chi.  scatter_kernel optionally holds a full (N*G, N*G)
    angle-resolved transfer table Sigma_{s, g'n'->gn}; when absent the
    kernel is isotropic, sigma_s / 2.
    """

    name: str
    sigma_t: np.ndarray
    sigma_s: np.ndarray
    nu_sigma_f: np.ndarray
    chi: np.ndarray
    scatter_kernel: Optional[np.ndarray] = None

    def __post_init__(self):
        st = _readonly(self.sigma_t)
        ss = _readonly(self.sigma_s)
        nf = _readonly(self.nu_sigma_f)
        chi = _readonly(self.chi)
        for key, val in (("sigma_t", st), ("sigma_s", ss),
                         ("nu_sigma_f", nf), ("chi", chi)):
            object.__setattr__(self, key, val)
            if np.any(val < 0.0) or not np.all(np.isfinite(val)):
                raise ValidationError(f"material {self.name!r}: {key} entries must be finite and >= 0")
        g = st.size
        if g < 1:
            raise ValidationError(f"material {self.name!r}: needs at least one group")
        if ss.shape != (g, g):
            raise ValidationError(f"material {self.name!r}: sigma_s must be {g}x{g}, got {ss.shape}")
        if nf.shape != (g,) or chi.shape != (g,):
            raise ValidationError(f"material {self.name!r}: nu_sigma_f and chi must have length {g}")
        chi_sum = chi.sum()
        if np.any(nf > 0.0):
            if abs(chi_sum - 1.0) > CHI_SUM_TOL:
                raise ValidationError(
                    f"material {self.name!r}: chi must sum to 1 for a fissile material, got {chi_sum!r}")
        elif chi_sum != 0.0 and abs(chi_sum - 1.0) > CHI_SUM_TOL:
            raise ValidationError(
                f"material {self.name!r}: chi must be all zero or sum to 1, got {chi_sum!r}")
        if self.scatter_kernel is not None:
            k = _readonly(self.scatter_kernel)
            object.__setattr__(self, "scatter_kernel", k)
            if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] % g != 0:
                raise ValidationError(
                    f"material {self.name!r}: scatter_kernel must be square with size a multiple of G")
            if np.any(~np.isfinite(k)):
                raise ValidationError(f"material {self.name!r}: scatter_kernel entries must be finite")

    @property
    def n_groups(self) -> int:
        return self.sigma_t.size

    @property
    def fissile(self) -> bool:
        return bool(np.any(self.nu_sigma_f > 0.0))

    def require_kernel_order(self, ng: int) -> None:
        """Raise ValidationError unless a scatter_kernel, if given, is (N G, N G)."""
        k = self.scatter_kernel
        if k is not None and k.shape[0] != ng:
            raise ValidationError(f"material {self.name!r}: scatter_kernel is "
                                  f"{k.shape[0]}x{k.shape[0]}, expected {ng}x{ng}")


@dataclass(frozen=True)
class BoundaryCondition:
    """One slab end: vacuum, reflective, or a fixed incoming angular flux.

    For kind "incoming" the values vector has length N*G/2 and is ordered
    group-major over the incoming ordinates in ascending-mu order (the same
    order row selection produces).
    """

    kind: str
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValidationError(f"unknown boundary condition {self.kind!r}; expected {' | '.join(BC_KINDS)}")
        if self.kind == "incoming":
            if self.values is None:
                raise ValidationError("incoming boundary condition needs a value vector")
            v = _readonly(self.values)
            object.__setattr__(self, "values", v)
            if v.ndim != 1 or v.size == 0:
                raise ValidationError("incoming flux must be a nonempty vector")
            if np.any(v < 0.0) or np.any(~np.isfinite(v)):
                raise ValidationError("incoming flux values must be finite and >= 0")
        elif self.values is not None:
            raise ValidationError(f"{self.kind} boundary condition takes no values")

    @classmethod
    def vacuum(cls) -> "BoundaryCondition":
        return cls("vacuum")

    @classmethod
    def reflective(cls) -> "BoundaryCondition":
        return cls("reflective")

    @classmethod
    def incoming(cls, values) -> "BoundaryCondition":
        return cls("incoming", values)


@dataclass(frozen=True)
class SlabGeometry:
    """Heterogeneous slab: edges x_0 < ... < x_R and a material per region."""

    edges: np.ndarray
    materials: tuple
    bc_left: BoundaryCondition = field(default_factory=BoundaryCondition.vacuum)
    bc_right: BoundaryCondition = field(default_factory=BoundaryCondition.vacuum)

    def __post_init__(self):
        edges = _readonly(self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "materials", tuple(self.materials))
        if edges.ndim != 1 or edges.size < 2:
            raise ValidationError("geometry needs at least two edges")
        if np.any(~np.isfinite(edges)):
            raise ValidationError("geometry edges must be finite")
        if np.any(np.diff(edges) <= 0.0):
            raise ValidationError("geometry edges must be strictly increasing")
        if len(self.materials) != edges.size - 1:
            raise ValidationError(
                f"geometry has {edges.size - 1} regions but {len(self.materials)} material names")
        for bc in (self.bc_left, self.bc_right):
            if not isinstance(bc, BoundaryCondition):
                raise ValidationError("bc_left/bc_right must be BoundaryCondition values")

    @property
    def n_regions(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def entering(self, n: int) -> tuple:
        """(left, right): each end's n = N G / 2 entering angular fluxes,
        group-major in ascending mu, an incoming end's values and zeros for
        the other kinds; ValidationError unless each incoming end holds n."""
        ends = []
        for side, bc in (("bc_left", self.bc_left), ("bc_right", self.bc_right)):
            if bc.kind == "incoming" and bc.values.size != n:
                raise ValidationError(
                    f"{side}: incoming flux must have length N*G/2 = {n}, got {bc.values.size}")
            ends.append(bc.values if bc.kind == "incoming" else np.zeros(n))
        return tuple(ends)

    def require_cells(self, n_cells: int) -> None:
        """Raise ValidationError unless n_cells cells can give every region one."""
        if n_cells < self.n_regions:
            raise ValidationError(
                f"fine_mesh_size ({n_cells}) must be >= number of regions ({self.n_regions})")


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; everything numeric comes from here, never from the environment."""

    sn_order: int
    fine_mesh_size: int = 700
    flux_tolerance: float = 1e-6
    max_outer: int = 200
    ke: Optional[float] = None
    solver_kind: str = "analytic"
    max_inner: int = 5000

    def __post_init__(self):
        object.__setattr__(self, "sn_order", require_sn_order(self.sn_order))
        for key in ("fine_mesh_size", "max_outer", "max_inner"):
            value = getattr(self, key)
            if not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        if self.fine_mesh_size < 1:
            raise ValidationError("fine_mesh_size must be >= 1")
        if not 0.0 < self.flux_tolerance < np.inf:
            raise ValidationError(f"flux_tolerance must be finite and > 0, got {self.flux_tolerance}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValidationError("iteration limits must be >= 1")
        if self.ke is not None and not 0.0 < self.ke < np.inf:
            raise ValidationError(f"ke must be finite and > 0, got {self.ke}")
        if self.solver_kind not in SOLVER_KINDS:
            raise ValidationError(f"unknown solver_kind {self.solver_kind!r}")


def validate_problem(geometry: SlabGeometry, materials: dict, config: SolverConfig) -> None:
    """Cross-object checks of a problem and a config."""
    groups = set()
    for name in geometry.materials:
        if name not in materials:
            raise ValidationError(f"region references unknown material {name!r}")
        groups.add(materials[name].n_groups)
    if len(groups) != 1:
        raise ValidationError(f"all materials must share one group count, got {sorted(groups)}")
    ng = groups.pop() * config.sn_order
    geometry.entering(ng // 2)
    geometry.require_cells(config.fine_mesh_size)
    for name in geometry.materials:
        materials[name].require_kernel_order(ng)
