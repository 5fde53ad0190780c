"""Command-line front end: slab-sn fixed|eigen|bench.

Exit status: 0 on success, 2 on input errors (missing/invalid problem file
or flags), 1 on solver failures (including a benchmark with failed cells;
the partial report is still written).
"""

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import outputs
from .bench import default_cells, run_benchmark
from .eigen import build_operator, power_iteration, solve_source, transport_matrices
from .exceptions import ParseError, TransportError, ValidationError
from .mesh import SourceField
from .model import SOLVER_KINDS, SolverConfig
from .problem_io import load_problem


def _add_common(parser):
    parser.add_argument("input", help="problem file")
    parser.add_argument("--out", required=True, help="output directory")
    # dest is the SolverConfig field each flag overrides
    parser.add_argument("--sn", type=int, dest="sn_order", help="override S_N order")
    parser.add_argument("--mesh", type=int, dest="fine_mesh_size",
                        help="override fine mesh size")
    parser.add_argument("--tolerance", type=float, dest="flux_tolerance",
                        help="override flux tolerance")
    parser.add_argument("--solver", choices=SOLVER_KINDS, dest="solver_kind",
                        help="override solver kind")
    parser.add_argument("--dump-matrices", action="store_true",
                        help="dump A, P, B per material to CSV (analytic only)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="slab-sn",
        description="Multigroup discrete-ordinates transport in slab geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fixed = sub.add_parser("fixed", help="solve a fixed-source problem")
    _add_common(p_fixed)
    p_fixed.add_argument("--source", choices=("constant", "absx", "file"),
                         default="constant", help="source shape")
    p_fixed.add_argument("--strength", type=float,
                         help="emission density for constant/absx shapes (default 1.0)")
    p_fixed.add_argument("--source-file",
                         help="CSV of per-cell, per-group emission densities")

    p_eigen = sub.add_parser("eigen", help="run the power-iteration eigenvalue solve")
    _add_common(p_eigen)
    shift = p_eigen.add_mutually_exclusive_group()
    shift.add_argument("--ke", type=float, help="Wielandt shift (omit for none)")
    shift.add_argument("--no-ke", action="store_true",
                       help="clear a shift set in the problem file")

    p_bench = sub.add_parser("bench", help="run the analytic-vs-sweep benchmark matrix")
    p_bench.add_argument("input", help="problem file")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--solvers", default="analytic,sweep",
                         help="comma list of solver kinds")
    p_bench.add_argument("--orders", default="2,4,8,16",
                         help="comma list of S_N orders")
    p_bench.add_argument("--kes", default="none",
                         help="comma list of shifts; 'none' for unshifted")
    p_bench.add_argument("--baseline", default="analytic_S16",
                         help="cell name time ratios are measured against")
    return parser


def _load(args):
    out = Path(args.out)
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ParseError(f"--out {out}: a file stands where a directory must be")
    problem = load_problem(args.input)
    # compared against None, so that a zero override reaches validation
    over = {f.name: getattr(args, f.name) for f in fields(SolverConfig)
            if getattr(args, f.name, None) is not None}
    if getattr(args, "no_ke", False):
        over["ke"] = None
    config = replace(problem.config, **over)
    if getattr(args, "dump_matrices", False) and config.solver_kind != "analytic":
        raise ParseError("--dump-matrices takes the analytic solver only")
    return replace(problem, config=config)


def _dump_matrices(args, outdir, materials, config, solved):
    """--dump-matrices (analytic solver, as _load checks): A per material,
    rebuilt as the operator built it, with P and B from the spectra of the
    solve (the operator or the result)."""
    if args.dump_matrices:
        _, matrices = transport_matrices(materials, solved.spectra, config)
        outputs.dump_matrices(outdir / "matrices", matrices, solved.spectra)


def _fixed_source(args, mesh, n_groups) -> SourceField:
    if args.source_file and args.source != "file":
        raise ParseError("--source-file needs --source file")
    if args.strength is not None and args.source == "file":
        raise ParseError("--strength applies to the constant and absx sources")
    strength = 1.0 if args.strength is None else args.strength
    if args.source == "constant":
        emission = np.full((mesh.n_cells, n_groups), strength)
    elif args.source == "absx":
        emission = strength * np.abs(mesh.centers)[:, None] * np.ones((1, n_groups))
    else:
        if not args.source_file:
            raise ParseError("--source file needs --source-file")
        try:
            emission = np.loadtxt(args.source_file, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParseError(f"--source-file {args.source_file}: {exc}") from None
    return SourceField(mesh, emission)


def cmd_fixed(args) -> int:
    problem = _load(args)
    geo = problem.geometry
    # without a shift the fixed-source operator excludes fission
    cfg = replace(problem.config, ke=None)

    t0 = time.perf_counter()
    operator = build_operator(geo, problem.materials, cfg)
    source = _fixed_source(args, operator.mesh, problem.materials[geo.materials[0]].n_groups)
    _, solution = solve_source(operator, source, cfg, cfg.flux_tolerance)
    flux = operator.flux(solution)
    seconds = time.perf_counter() - t0
    # created only now, so that an input error leaves no output directory
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_matrices(args, outdir, problem.materials, cfg, operator)

    flux_csv, psi_npy = outdir / "flux.csv", outdir / "psi.npy"
    outputs.write_flux_csv(flux_csv, flux, psi_npy)
    summary = outputs.fixed_summary(cfg, source_kind=args.source, seconds=seconds,
                                    inner_sweeps=solution.sweeps,
                                    outputs={"flux_csv": flux_csv.name,
                                             "psi_npy": psi_npy.name})
    outputs.write_json(outdir / "summary.json", summary)
    return 0


def cmd_eigen(args) -> int:
    problem = _load(args)
    cfg = problem.config
    result = power_iteration(problem.geometry, problem.materials, cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_matrices(args, outdir, problem.materials, cfg, result)
    flux_csv, psi_npy = outdir / "flux.csv", outdir / "psi.npy"
    history_csv = outdir / "history.csv"
    outputs.write_flux_csv(flux_csv, result.flux, psi_npy)
    outputs.write_history_csv(history_csv, result)
    summary = outputs.eigen_summary(result, {"flux_csv": flux_csv.name,
                                             "psi_npy": psi_npy.name,
                                             "history_csv": history_csv.name})
    outputs.write_json(outdir / "summary.json", summary)
    print(f"k_eff = {result.k_eff:.6f} after {result.iterations} outer iterations")
    return 0


def cmd_bench(args) -> int:
    problem = _load(args)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    try:
        orders = [int(tok) for tok in args.orders.split(",") if tok.strip()]
        kes = [None if tok.strip().lower() == "none" else float(tok)
               for tok in args.kes.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"--orders/--kes: {exc}") from None
    report = run_benchmark(problem, default_cells(problem, orders, solvers, kes),
                           baseline=args.baseline, problem_name=Path(args.input).stem)
    # created only now, so that a bad cell leaves no output directory
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs.write_json(outdir / "report.json", report.to_json_dict())
    outputs.write_bench_csv(outdir / "convergence.csv", report)
    for cell in report.cells:
        print(f"{cell['name']}: k={cell['k_eff']:.6f} iters={cell['iterations']} "
              f"total={cell['total_seconds']:.3f}s")
    if report.failed:
        for cell in report.failed:
            print(f"slab-sn: cell {cell['name']} failed: {cell['error']}",
                  file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"fixed": cmd_fixed, "eigen": cmd_eigen, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"slab-sn: input error: {exc}", file=sys.stderr)
        return 2
    except TransportError as exc:
        print(f"slab-sn: solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
