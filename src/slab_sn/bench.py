"""Benchmark harness: the analytic-vs-sweep matrix on one problem.

Every cell of the matrix is a validated SolverConfig: the problem's own, with
solver kind, S_N order and optional shift replaced, so each cell runs the
same eigenvalue problem at the same tolerance and mesh.  Each cell gets one
untimed warm-up iteration before the measured run so one-time setup costs
(allocations, library warm-up) stay out of the per-iteration numbers;
eigensystem setup time inside the measured run is reported separately.
"""

import time
from dataclasses import dataclass, replace
from typing import Optional

from .eigen import power_iteration
from .exceptions import TransportError, ValidationError
from .model import SolverConfig, validate_problem
from .problem_io import Problem


@dataclass
class BenchmarkReport:
    """Per-cell results plus time ratios against a named baseline cell."""

    problem_name: str
    tolerance: float
    mesh_size: int
    baseline: Optional[str]
    cells: list
    failed: list

    def cell(self, name: str) -> dict:
        for c in self.cells:
            if c["name"] == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "schema": "slab-sn-bench-report/1",
            "problem": self.problem_name,
            "tolerance": self.tolerance,
            "mesh_size": self.mesh_size,
            "baseline": self.baseline,
            "timing_note": "cells ran sequentially",
            "cells": self.cells,
            "failed": self.failed,
        }


def default_cells(problem: Problem, orders=(2, 4, 8, 16), solvers=("analytic", "sweep"),
                  kes=(None,)) -> list:
    """The problem's SolverConfig at each (solver kind, S_N order, shift);
    run_benchmark checks them."""
    return [replace(problem.config, solver_kind=s, sn_order=n, ke=ke)
            for s in solvers for n in orders for ke in kes]


def cell_name(config: SolverConfig) -> str:
    tag = f"{config.solver_kind}_S{config.sn_order}"
    return tag if config.ke is None else f"{tag}_ke{config.ke!r}"


def _run_cell(problem: Problem, config: SolverConfig) -> dict:
    try:
        power_iteration(problem.geometry, problem.materials,
                        replace(config, max_outer=1))
    except TransportError:
        pass  # a one-iteration run rarely converges; that is fine
    t0 = time.perf_counter()
    result = power_iteration(problem.geometry, problem.materials, config)
    total = time.perf_counter() - t0
    return {
        "name": cell_name(config),
        "solver_kind": config.solver_kind,
        "sn_order": config.sn_order,
        "ke": config.ke,
        "k_eff": result.k_eff,
        "iterations": result.iterations,
        "inner_sweeps": result.inner_sweeps,
        "setup_seconds": result.timing["setup_seconds"],
        "iteration_seconds": result.timing["iteration_seconds"],
        "total_seconds": total,
        "seconds_per_iteration": result.timing["iteration_seconds"] / result.iterations,
        "history_k": result.history_k.tolist(),
        "history_norm": result.history_norm.tolist(),
        "history_seconds": result.history_seconds.tolist(),
    }


def run_benchmark(problem: Problem, cells, baseline: str = "analytic_S16",
                  problem_name: str = "problem") -> BenchmarkReport:
    """Run every cell (SolverConfigs, as from default_cells); failures are
    recorded, not raised.  Before any cell runs, an empty matrix, a cell
    that does not fit the problem or two cells of one name raise
    ValidationError.

    Time ratios are total cell wall time over baseline wall time, so values
    above one mean slower than the baseline.  With a single cell (or when
    the baseline cell is absent or failed) no ratios are reported.
    """
    if not cells:
        raise ValidationError("the benchmark matrix is empty")
    names = [cell_name(config) for config in cells]
    for i, config in enumerate(cells):
        validate_problem(problem.geometry, problem.materials, config)
        if names[i] in names[:i]:
            raise ValidationError(f"benchmark cell {names[i]} appears twice")
    results, failed = [], []
    for config in cells:
        try:
            results.append(_run_cell(problem, config))
        except TransportError as exc:
            failed.append({"name": cell_name(config), "error": f"{type(exc).__name__}: {exc}"})

    base = {c["name"]: c for c in results}.get(baseline) if len(results) > 1 else None
    if base is not None:
        for c in results:
            c["time_ratio_vs_baseline"] = c["total_seconds"] / base["total_seconds"]
            c["time_in_baseline_iteration_units"] = c["total_seconds"] / base["seconds_per_iteration"]
    return BenchmarkReport(
        problem_name=problem_name,
        tolerance=problem.config.flux_tolerance,
        mesh_size=problem.config.fine_mesh_size,
        baseline=None if base is None else baseline,
        cells=results,
        failed=failed,
    )
