"""Power iteration over either fixed-source solver, with optional Wielandt shift.

Each outer iteration treats the fission term as a piecewise-constant
isotropic emission

    S_g(x) = (1/k - 1/k_e) * chi_g * sum_g' nu_sigma_f[g'] phi_g'(x)

(1/k_e == 0 without a shift), solves the fixed-source problem for the scalar
flux on the source-mesh centers, re-evaluates the fission production there,
and updates k from the ratio of successive production integrals; the angular
flux is evaluated once, after convergence.  With a shift the chi nu-fission
/ k_e part of the production is folded into the transport operator itself:
the analytic solver assembles its matrices with fission_scale = 1/k_e and
the sweep solver adds it to the iterated scattering source.  build_operator
builds either operator from a problem and a SolverConfig, which the result
carries as the one description of the run; solve_source alone picks the
solver call for config.solver_kind, here and in `slab-sn fixed`.

Convergence is declared when the L2 norm of the change in the renormalized
fine-mesh scalar flux (per-group concatenated) drops below the tolerance.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import FixedSourceOperator, fixed_source_solve
from .exceptions import (MaxOuterIterationsError, NonpositiveIntegralError,
                         ShiftAtEigenvalueError, ValidationError, ZeroFluxError)
from .mesh import FineMesh, FluxField, SourceField, build_fine_mesh
from .model import SlabGeometry, SolverConfig, gauss_legendre, validate_problem
from .spectral import assemble_A, block_diagonalize
from .sweep import SweepOperator, source_iteration

SHIFT_GUARD = 1e-12


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenpair with per-iteration history.

    history_seconds is cumulative wall time of the iteration loop; one-time
    setup (mesh build, the solver's fixed-source operator, per-cell fission
    tables) is reported separately in timing["setup_seconds"], and the
    final read of the angular flux in timing["flux_seconds"].  config is
    the SolverConfig that ran; spectra holds the analytic operator's
    BlockSpectrum per material (None for the sweep).
    """

    k_eff: float
    iterations: int
    flux: FluxField
    history_k: np.ndarray
    history_norm: np.ndarray
    history_seconds: np.ndarray
    timing: dict
    config: SolverConfig
    inner_sweeps: int = 0
    spectra: Optional[dict] = None


def _per_cell(geometry: SlabGeometry, materials, mesh: FineMesh, attr: str) -> np.ndarray:
    table = np.vstack([getattr(materials[name], attr) for name in geometry.materials])
    return table.take(mesh.region_of_cell, axis=0)


def _emission(production, chi, k: float, ke: Optional[float]) -> np.ndarray:
    """Per-cell, per-group fission emission density for the next solve."""
    if ke is None:
        prefactor = 1.0 / k
    else:
        prefactor = 1.0 / k - 1.0 / ke
        if abs(prefactor) < SHIFT_GUARD:
            raise ShiftAtEigenvalueError(
                f"shift k_e={ke} coincides with the current k estimate {k}; "
                "move k_e away from the converged eigenvalue")
    return prefactor * chi * production[:, None]


def update_keff(prev_k: float, ke: Optional[float], integral_prev: float,
                integral_new: float) -> float:
    """Eigenvalue update from the ratio of successive production integrals.

    Without a shift: k <- k * new / prev.  With a shift the same update is
    applied to the shifted-operator eigenvalue, 1/k - 1/k_e, which reduces
    to the unshifted formula as k_e -> infinity.
    """
    below = "" if ke is None else f"; k_e = {ke!r} is below the eigenvalue and must be raised"
    for label, val in (("previous", integral_prev), ("new", integral_new)):
        if not np.isfinite(val) or val <= 0.0:
            raise NonpositiveIntegralError(f"{label} fission integral is {val!r}{below}")
    if ke is None:
        return prev_k * integral_new / integral_prev
    inv = 1.0 / ke + (1.0 / prev_k - 1.0 / ke) * (integral_prev / integral_new)
    if inv <= 0.0:
        raise NonpositiveIntegralError(f"shifted eigenvalue update produced 1/k = {inv!r}{below}")
    return 1.0 / inv


def _initial_production(mesh: FineMesh, nu_sigma_f: np.ndarray) -> np.ndarray:
    """|x| on the cells with some nu_sigma_f (cells, G) entry > 0; one there when
    |x| vanishes on all of them (say a one-cell fissile region at x = 0)."""
    mask = np.any(nu_sigma_f > 0.0, axis=1)
    production = np.where(mask, np.abs(mesh.centers), 0.0)
    return production if production.any() else mask.astype(float)


def transport_matrices(materials, names, config: SolverConfig):
    """(quadrature, {name: A}) for the named materials at config.sn_order,
    A assembled at fission scale 1/k_e under a shift config.ke and 0
    without one."""
    quad = gauss_legendre(config.sn_order)
    fission_scale = 0.0 if config.ke is None else 1.0 / config.ke
    return quad, {name: assemble_A(materials[name], quad, fission_scale) for name in names}


def build_operator(geometry: SlabGeometry, materials, config: SolverConfig):
    """The validated problem's fixed-source operator for config.solver_kind.
    A shift config.ke folds chi nu-fission / k_e into the operator; without
    one the operator excludes fission."""
    validate_problem(geometry, materials, config)
    mesh = build_fine_mesh(geometry, config.fine_mesh_size)
    if config.solver_kind == "sweep":
        return SweepOperator(geometry, materials, mesh, gauss_legendre(config.sn_order), config.ke)
    quad, matrices = transport_matrices(materials, set(geometry.materials), config)
    spectra = {name: block_diagonalize(a) for name, a in matrices.items()}
    return FixedSourceOperator(geometry, spectra, mesh, quad)


def solve_source(operator, source: SourceField, config: SolverConfig, tolerance: float,
                 phi0=None):
    """One fixed-source solve with config's operator: (scalar flux (cells, G),
    the Solution, sweep count included).  tolerance, the start flux phi0
    and config.max_inner serve the sweep's source iteration only."""
    if config.solver_kind == "sweep":
        return source_iteration(operator, source, tolerance, phi0=phi0,
                                max_inner=config.max_inner)
    return fixed_source_solve(operator, source)


def power_iteration(geometry: SlabGeometry, materials, config: SolverConfig) -> EigenResult:
    """Eigenvalue power iteration over the configured fixed-source solver."""
    t_setup = time.perf_counter()
    # an unknown material is left to build_operator's validation
    if not any(name in materials and materials[name].fissile for name in geometry.materials):
        raise ValidationError("eigenvalue problem needs at least one fissile region")
    ke = config.ke
    operator = build_operator(geometry, materials, config)
    mesh = operator.mesh
    chi = _per_cell(geometry, materials, mesh, "chi")
    nu_sigma_f = _per_cell(geometry, materials, mesh, "nu_sigma_f")
    setup_seconds = time.perf_counter() - t_setup

    production = _initial_production(mesh, nu_sigma_f)
    # the production's sum over groups as a product: a reduction along the
    # short G axis costs several times more
    ones = np.ones(nu_sigma_f.shape[1])
    integral_prev = float(np.sum(production * mesh.widths))
    k = 1.0
    tol = config.flux_tolerance
    phi = phi_prev = None
    inner_total = 0
    history_k, history_norm, history_seconds = [], [], []

    t_loop = time.perf_counter()
    for outer in range(1, config.max_outer + 1):
        source = SourceField(mesh, _emission(production, chi, k, ke))
        # drop the previous outer's solution before the next one is built,
        # so the two never take memory side by side
        solution = None
        phi, solution = solve_source(operator, source, config, tol / 2.0, phi0=phi)
        inner_total += solution.sweeps

        production = (phi * nu_sigma_f) @ ones
        integral_new = float(np.sum(production * mesh.widths))
        k = update_keff(k, ke, integral_prev, integral_new)
        integral_prev = integral_new

        total = float(np.sum(phi * mesh.widths[:, None]))
        if total == 0.0:
            raise ZeroFluxError("scalar flux vanished during power iteration")
        phi_shape = phi / total
        change = np.inf if phi_prev is None else float(np.linalg.norm(phi_shape - phi_prev))
        phi_prev = phi_shape

        history_k.append(k)
        history_norm.append(change)
        history_seconds.append(time.perf_counter() - t_loop)
        if change < tol:
            break
    else:
        raise MaxOuterIterationsError(
            f"power iteration did not reach {tol} in {config.max_outer} outer "
            f"iterations (last change {history_norm[-1]:.3e})")

    t_flux = time.perf_counter()
    flux = operator.flux(solution, normalized=True)
    return EigenResult(
        k_eff=k,
        iterations=outer,
        flux=flux,
        history_k=np.array(history_k),
        history_norm=np.array(history_norm),
        history_seconds=np.array(history_seconds),
        timing={"setup_seconds": setup_seconds,
                "iteration_seconds": history_seconds[-1],
                "flux_seconds": time.perf_counter() - t_flux},
        config=config,
        inner_sweeps=inner_total,
        spectra=operator.spectra if config.solver_kind == "analytic" else None,
    )
