"""CSV/JSON emitters; formats are pinned by schema files shipped in-repo.

Flux CSV column order (bit-exact): x, group, psi_1 .. psi_N (ordinates in
ascending-mu order), phi.  One row per (point, group), points outermost.
Floats are written with repr, so re-parsing reproduces them exactly; lines
end in \r\n.  A large table is formatted in row ranges on the usable cores,
one forked worker per range after the first: the bytes stay the same.
"""

import csv
import json
import os
import shutil
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


# the fewest values that a forked part holds.  repr costs about 0.9 us a
# value and a fork a few ms: in a 100 MB process two parts took 35.4 ms
# against one's 26.9 at 26,600 values, and 59.9 against 63.7 at 53,200
PART_VALUES = 65536


def _usable_cores() -> int:
    """The cores this process may run on; 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lines(flux: FluxField, start: int, stop: int) -> bytes:
    """Rows start .. stop - 1 of the flux table as CSV lines."""
    g, row = flux.n_groups, np.arange(start, stop)
    n = flux.psi.shape[1] // g
    # an object table holds Python floats and int groups, whose reprs are
    # the pinned format; one tolist() feeds every line
    table = np.empty((row.size, n + 3), dtype=object)
    table[:, 0] = flux.points[row // g]
    table[:, 1] = row % g + 1
    table[:, 2:-1] = flux.psi.reshape(-1, n)[start:stop]
    table[:, -1] = flux.phi.reshape(-1)[start:stop]
    return "".join([",".join(map(repr, r)) + "\r\n" for r in table.tolist()]).encode()


def write_flux_csv(path, flux: FluxField) -> None:
    rows, n = flux.phi.size, flux.psi.shape[1] // flux.n_groups
    parts = max(1, min(_usable_cores(), rows * (n + 3) // PART_VALUES))
    bounds = [rows * i // parts for i in range(parts + 1)]
    header = ",".join(["x", "group"] + [f"psi_{i}" for i in range(1, n + 1)] + ["phi"])
    pids, pipes = [], []
    try:
        # fork first, before any table exists.  A worker runs only Python
        # formatting, no BLAS or stdio whose locks another thread may hold; it
        # closes every read end, so that the parent's close stops it, and
        # exits 1 on any exception
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:
                if (pid := os.fork()) == 0:
                    try:
                        for pipe in pipes:
                            pipe.close()
                        out.write(_lines(flux, start, stop))
                        out.flush()
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
            pids.append(pid)
        with open(path, "wb") as fh:
            fh.write((header + "\r\n").encode() + _lines(flux, 0, bounds[1]))
            for pipe in pipes:
                shutil.copyfileobj(pipe, fh)
    finally:
        for pipe in pipes:
            pipe.close()
        failed = [part for part, pid in enumerate(pids, 1) if os.waitpid(pid, 0)[1]]
    if failed:
        raise OSError(f"{path}: the worker on flux CSV part {failed[0]} of {parts} failed")


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
        "schema": "slab-sn-eigen-summary/1",
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
        "schema": "slab-sn-fixed-summary/2",
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
