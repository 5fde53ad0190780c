"""Fresh-interpreter probes, run by run.py as subprocesses.

    python3 perfbench/child.py setup PROBLEM.ini
        Time from before ``import slab_sn`` to the point where the first
        transport solve could start: load the problem, build the quadrature
        and the fine mesh and, for the analytic solver, assemble and
        block-diagonalise A for every material.

    python3 perfbench/child.py cli PROBLEM.ini OUTDIR
        Run ``slab-sn eigen PROBLEM.ini --out OUTDIR`` in-process with spans
        around the CLI's calls into problem_io, eigen and outputs.

Both print one JSON object as the last line of standard output. The parent
puts the package's ``src`` directory on PYTHONPATH.
"""

import json
import sys
import time

T0 = time.perf_counter()


def setup(ini):
    import slab_sn
    t_import = time.perf_counter()
    problem = slab_sn.load_problem(ini)
    t_load = time.perf_counter()
    geo, cfg = problem.geometry, problem.config
    slab_sn.build_fine_mesh(geo, cfg.fine_mesh_size)
    t_mesh = time.perf_counter()
    quad = slab_sn.gauss_legendre(cfg.sn_order)
    calls = 1
    if cfg.solver_kind == "analytic":
        scale = 0.0 if cfg.ke is None else 1.0 / cfg.ke
        for name in sorted(set(geo.materials)):
            slab_sn.block_diagonalize(slab_sn.assemble_A(problem.materials[name], quad, scale))
            calls += 2
    t_end = time.perf_counter()
    return {"module_file": slab_sn.__file__,
            "setup_s": t_end - T0,
            "import_s": t_import - T0,
            "load_s": t_load - t_import,
            "mesh_s": t_mesh - t_load,
            "spectral_s": t_end - t_mesh,
            "spectral_calls": calls}


CLI_BOUNDARIES = {
    "problem_io.load_problem": ("slab_sn.cli", "load_problem"),
    "eigen.power_iteration": ("slab_sn.cli", "power_iteration"),
    "outputs.write_flux_csv": ("slab_sn.outputs", "write_flux_csv"),
    "outputs.write_history_csv": ("slab_sn.outputs", "write_history_csv"),
    "outputs.write_json": ("slab_sn.outputs", "write_json"),
}


def cli(ini, outdir):
    import slab_sn.cli
    t_import = time.perf_counter()
    from tracing import Tracer
    tracer = Tracer()
    with tracer.installed(CLI_BOUNDARIES):
        code = slab_sn.cli.main(["eigen", ini, "--out", outdir])
    total, _, calls = tracer.layer_times(0)
    return {"module_file": slab_sn.__file__,
            "exit_code": code,
            "import_s": t_import - T0,
            "spans_s": dict(total),
            "calls": dict(calls)}


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    print(json.dumps({"setup": setup, "cli": cli}[mode](*args)))
