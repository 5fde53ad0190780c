"""CSV/JSON emitters; formats are pinned by schema files shipped in-repo.

Flux CSV column order (bit-exact): x, group, psi_1 .. psi_N (ordinates in
ascending-mu order), phi.  One row per (point, group), points outermost.
Floats are written with repr, so re-parsing reproduces them exactly.
"""

import csv
import json
from importlib import resources
from pathlib import Path

import numpy as np

from .bench import BenchmarkReport
from .eigen import EigenResult
from .mesh import FluxField
from .model import QuadratureSet


def _r(value) -> str:
    return repr(float(value))


def schema_path(name: str) -> Path:
    return Path(str(resources.files("slab_sn") / "schemas" / f"{name}.schema.json"))


def load_schema(name: str) -> dict:
    with open(schema_path(name)) as fh:
        return json.load(fh)


def write_flux_csv(path, flux: FluxField, quad: QuadratureSet) -> None:
    n = quad.n
    g = flux.n_groups
    psi = flux.psi.reshape(flux.points.size, g, n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "group"] + [f"psi_{i}" for i in range(1, n + 1)] + ["phi"])
        for p in range(flux.points.size):
            for gg in range(g):
                writer.writerow([_r(flux.points[p]), gg + 1]
                                + [_r(v) for v in psi[p, gg]]
                                + [_r(flux.phi[p, gg])])


def write_history_csv(path, result: EigenResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "k", "flux_change_norm", "cumulative_seconds"])
        for i in range(result.iterations):
            writer.writerow([i + 1, _r(result.history_k[i]),
                             _r(result.history_norm[i]),
                             _r(result.history_seconds[i])])


def eigen_summary(result: EigenResult, outputs: dict) -> dict:
    return {
        "schema": "slab-sn-eigen-summary/1",
        "k_eff": result.k_eff,
        "iterations": result.iterations,
        "tolerance": result.tolerance,
        "solver_kind": result.solver_kind,
        "sn_order": result.sn_order,
        "ke": result.ke,
        "mesh_size": result.mesh_size,
        "inner_sweeps": result.inner_sweeps,
        "timing": dict(result.timing),
        "outputs": outputs,
    }


def fixed_summary(*, solver_kind: str, sn_order: int, mesh_size: int,
                  source_kind: str, seconds: float, outputs: dict) -> dict:
    return {
        "schema": "slab-sn-fixed-summary/1",
        "solver_kind": solver_kind,
        "sn_order": sn_order,
        "mesh_size": mesh_size,
        "source": source_kind,
        "seconds": seconds,
        "outputs": outputs,
    }


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_bench_report(path, report: BenchmarkReport) -> None:
    write_json(path, report.to_json_dict())


def write_bench_csv(path, report: BenchmarkReport) -> None:
    """Convergence trajectories for every cell: norm vs iteration and vs time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver_kind", "sn_order", "ke", "iteration", "k",
                         "flux_change_norm", "cumulative_seconds",
                         "time_in_baseline_iteration_units"])
        unit = None
        if report.baseline is not None:
            unit = report.cell(report.baseline)["seconds_per_iteration"]
        for cell in report.cells:
            for i, (k, norm, sec) in enumerate(zip(cell["history_k"],
                                                   cell["history_norm"],
                                                   cell["history_seconds"])):
                writer.writerow([
                    cell["solver_kind"], cell["sn_order"],
                    "" if cell["ke"] is None else _r(cell["ke"]),
                    i + 1, _r(k), _r(norm), _r(sec),
                    "" if unit is None else _r(sec / unit),
                ])


def dump_matrices(outdir, transport_matrices, spectra) -> None:
    """Debug dump of A, P, B per material as CSV."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, a in transport_matrices.items():
        np.savetxt(outdir / f"A_{name}.csv", a, delimiter=",")
    for name, spec in spectra.items():
        np.savetxt(outdir / f"P_{name}.csv", spec.P, delimiter=",")
        np.savetxt(outdir / f"B_{name}.csv", spec.B, delimiter=",")
