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
builds either operator from a problem and a SolverConfig.

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
    tables) is reported separately in timing["setup_seconds"].  spectra holds
    the analytic operator's BlockSpectrum per material (None for the sweep).
    """

    k_eff: float
    iterations: int
    flux: FluxField
    history_k: np.ndarray
    history_norm: np.ndarray
    history_seconds: np.ndarray
    timing: dict
    solver_kind: str
    sn_order: int
    ke: Optional[float]
    tolerance: float
    mesh_size: int
    inner_sweeps: int = 0
    spectra: Optional[dict] = None


def _per_cell(geometry: SlabGeometry, materials, mesh: FineMesh, attr: str) -> np.ndarray:
    table = np.vstack([getattr(materials[name], attr) for name in geometry.materials])
    return table[mesh.region_of_cell]


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
    for label, val in (("previous", integral_prev), ("new", integral_new)):
        if not np.isfinite(val) or val <= 0.0:
            raise NonpositiveIntegralError(f"{label} fission integral is {val!r}")
    if ke is None:
        return prev_k * integral_new / integral_prev
    inv = 1.0 / ke + (1.0 / prev_k - 1.0 / ke) * (integral_prev / integral_new)
    if inv <= 0.0:
        raise NonpositiveIntegralError(
            f"shifted eigenvalue update produced 1/k = {inv!r}; k_e is below the eigenvalue")
    return 1.0 / inv


def normalize(flux: FluxField, mesh: FineMesh) -> FluxField:
    """Scale so the summed group integrals of the scalar flux equal one."""
    total = float(np.sum(flux.phi * mesh.widths[:, None]))
    if not np.isfinite(total) or total == 0.0:
        raise ZeroFluxError("flux integrates to zero; cannot normalize")
    return flux.scaled(1.0 / total)


def _initial_production(geometry, materials, mesh, kind: str) -> np.ndarray:
    fissile = np.array([materials[name].fissile for name in geometry.materials])
    mask = fissile[mesh.region_of_cell]
    if kind == "flat":
        p = np.ones(mesh.n_cells)
    else:
        p = np.abs(mesh.centers)
    return np.where(mask, p, 0.0)


def build_operator(geometry: SlabGeometry, materials, config: SolverConfig, *,
                   ke: Optional[float] = None):
    """(operator, spectra): the validated problem's fixed-source operator for
    config.solver_kind, and the analytic one's BlockSpectrum per material
    (None for the sweep).  ke folds chi nu-fission / k_e into the operator;
    without it the operator excludes fission."""
    validate_problem(geometry, materials, config)
    quad = gauss_legendre(config.sn_order)
    mesh = build_fine_mesh(geometry, config.fine_mesh_size)
    if config.solver_kind != "analytic":
        return SweepOperator(geometry, materials, mesh, quad, config.sweep_scheme, ke), None
    fission_scale = 0.0 if ke is None else 1.0 / ke
    spectra = {name: block_diagonalize(assemble_A(materials[name], quad, fission_scale))
               for name in set(geometry.materials)}
    return FixedSourceOperator(geometry, spectra, mesh, quad), spectra


def power_iteration(geometry: SlabGeometry, materials, config: SolverConfig) -> EigenResult:
    """Eigenvalue power iteration over the configured fixed-source solver."""
    t_setup = time.perf_counter()
    # an unknown material is left to build_operator's validation
    if not any(name in materials and materials[name].fissile for name in geometry.materials):
        raise ValidationError("eigenvalue problem needs at least one fissile region")
    ke = config.ke
    operator, spectra = build_operator(geometry, materials, config, ke=ke)
    mesh = operator.mesh
    analytic = spectra is not None
    chi = _per_cell(geometry, materials, mesh, "chi")
    nu_sigma_f = _per_cell(geometry, materials, mesh, "nu_sigma_f")
    setup_seconds = time.perf_counter() - t_setup

    production = _initial_production(geometry, materials, mesh, config.initial_source)
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
        if analytic:
            phi, solution = fixed_source_solve(operator, source)
        else:
            phi, solution, sweeps = source_iteration(
                operator, source.emission, tol / 2.0, phi0=phi,
                max_inner=config.max_inner)
            inner_total += sweeps

        production = np.sum(phi * nu_sigma_f, axis=1)
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

    flux = operator.flux(solution)
    if config.normalization == "total_scalar_flux_one":
        flux = normalize(flux, mesh)
    return EigenResult(
        k_eff=k,
        iterations=outer,
        flux=flux,
        history_k=np.array(history_k),
        history_norm=np.array(history_norm),
        history_seconds=np.array(history_seconds),
        timing={"setup_seconds": setup_seconds,
                "iteration_seconds": history_seconds[-1]},
        solver_kind=config.solver_kind,
        sn_order=config.sn_order,
        ke=ke,
        tolerance=tol,
        mesh_size=mesh.n_cells,
        inner_sweeps=inner_total,
        spectra=spectra,
    )
