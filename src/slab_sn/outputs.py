"""CSV/JSON/npy emitters; formats are pinned by schema files shipped in-repo.

Flux CSV column order (bit-exact): x, group, phi.  One row per (point,
group), points outermost.  Floats are written with repr, so re-parsing
reproduces them exactly; lines end in \r\n.  The angular flux goes beside
it to a .npy file (np.save, bit-exact): FluxField.psi, float64 (points,
N G), column g N + i - 1 holding group g + 1 at ordinate i in ascending-mu
order, rows in the CSV's point order.
"""

import csv
import json
from importlib import resources
from pathlib import Path

import numpy as np

from .bench import BenchmarkReport
from .eigen import EigenResult
from .mesh import FluxField
from .model import SolverConfig


def _r(value) -> str:
    return repr(float(value))


def schema_path(name: str) -> Path:
    return Path(str(resources.files("slab_sn") / "schemas" / f"{name}.schema.json"))


def load_schema(name: str) -> dict:
    with open(schema_path(name)) as fh:
        return json.load(fh)


def write_flux_csv(path, flux: FluxField, psi_path) -> None:
    """The flux CSV at path and the angular flux, np.save'd, at psi_path."""
    g = flux.n_groups
    # an object table holds Python floats and int groups, whose reprs are
    # the pinned format; one tolist() feeds every line
    table = np.empty((flux.phi.size, 3), dtype=object)
    table[:, 0] = np.repeat(flux.points, g)
    table[:, 1] = np.tile(np.arange(1, g + 1), flux.points.size)
    table[:, 2] = flux.phi.reshape(-1)
    with open(path, "wb") as fh:
        fh.write("".join(["x,group,phi\r\n"] + [",".join(map(repr, r)) + "\r\n"
                                                  for r in table.tolist()]).encode())
    with open(psi_path, "wb") as fh:
        np.save(fh, flux.psi)


def write_history_csv(path, result: EigenResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "k", "flux_change_norm", "cumulative_seconds"])
        for i in range(result.iterations):
            writer.writerow([i + 1, _r(result.history_k[i]),
                             _r(result.history_norm[i]),
                             _r(result.history_seconds[i])])


def eigen_summary(result: EigenResult, outputs: dict) -> dict:
    config = result.config
    return {
        "schema": "slab-sn-eigen-summary/3",
        "k_eff": result.k_eff,
        "iterations": result.iterations,
        "tolerance": config.flux_tolerance,
        "solver_kind": config.solver_kind,
        "sn_order": config.sn_order,
        "ke": config.ke,
        "mesh_size": config.fine_mesh_size,
        "inner_sweeps": result.inner_sweeps,
        "timing": dict(result.timing),
        "outputs": outputs,
    }


def fixed_summary(config: SolverConfig, *, source_kind: str, seconds: float,
                  inner_sweeps: int, outputs: dict) -> dict:
    return {
        "schema": "slab-sn-fixed-summary/3",
        "tolerance": config.flux_tolerance,
        "solver_kind": config.solver_kind,
        "sn_order": config.sn_order,
        "mesh_size": config.fine_mesh_size,
        "source": source_kind,
        "seconds": seconds,
        "inner_sweeps": inner_sweeps,
        "outputs": outputs,
    }


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
