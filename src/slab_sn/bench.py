"""Benchmark harness: the analytic-vs-sweep matrix on one problem.

Every cell of the matrix (solver kind, S_N order, optional shift) runs the
same eigenvalue problem at the same tolerance and mesh.  Each cell gets one
untimed warm-up iteration before the measured run so one-time setup costs
(allocations, library warm-up) stay out of the per-iteration numbers;
eigensystem setup time inside the measured run is reported separately.
"""

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .eigen import power_iteration
from .exceptions import TransportError
from .model import SolverConfig
from .problem_io import Problem


@dataclass(frozen=True)
class BenchCell:
    solver_kind: str
    sn_order: int
    ke: Optional[float] = None

    @property
    def name(self) -> str:
        tag = f"{self.solver_kind}_S{self.sn_order}"
        return tag if self.ke is None else f"{tag}_ke{self.ke:g}"


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


def default_cells(orders=(2, 4, 8, 16), solvers=("analytic", "sweep"), kes=(None,)):
    return [BenchCell(solver_kind=s, sn_order=n, ke=ke)
            for s in solvers for n in orders for ke in kes]


def _run_cell(problem: Problem, cell: BenchCell) -> dict:
    config = replace(problem.config, solver_kind=cell.solver_kind,
                     sn_order=cell.sn_order, ke=cell.ke)
    try:
        power_iteration(problem.geometry, problem.materials,
                        replace(config, max_outer=1))
    except TransportError:
        pass  # a one-iteration run rarely converges; that is fine
    t0 = time.perf_counter()
    result = power_iteration(problem.geometry, problem.materials, config)
    total = time.perf_counter() - t0
    return {
        "name": cell.name,
        "solver_kind": cell.solver_kind,
        "sn_order": cell.sn_order,
        "ke": cell.ke,
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


def run_benchmark(problem: Problem, cells=None, baseline: str = "analytic_S16",
                  problem_name: str = "problem") -> BenchmarkReport:
    """Run every cell; failures are recorded, not raised.

    Time ratios are total cell wall time over baseline wall time, so values
    above one mean slower than the baseline.  With a single cell (or when
    the baseline cell is absent or failed) no ratios are reported.
    """
    if cells is None:
        cells = default_cells()
    results, failed = [], []
    for cell in cells:
        try:
            results.append(_run_cell(problem, cell))
        except TransportError as exc:
            failed.append({"name": cell.name, "error": f"{type(exc).__name__}: {exc}"})

    names = [c["name"] for c in results]
    base = baseline if baseline in names and len(results) > 1 else None
    if base is not None:
        base_total = next(c["total_seconds"] for c in results if c["name"] == base)
        base_per_iter = next(c["seconds_per_iteration"] for c in results if c["name"] == base)
        for c in results:
            c["time_ratio_vs_baseline"] = c["total_seconds"] / base_total
            c["time_in_baseline_iteration_units"] = c["total_seconds"] / base_per_iter
    return BenchmarkReport(
        problem_name=problem_name,
        tolerance=problem.config.flux_tolerance,
        mesh_size=problem.config.fine_mesh_size,
        baseline=base,
        cells=results,
        failed=failed,
    )
