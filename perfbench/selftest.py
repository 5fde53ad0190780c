"""Shows that the benchmark's checks fail wrong answers.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics run.py reports.
2. The pincell workload, run with a stored reference k that is off by one
   part in a million, reports every solve and every CLI run as failed.
3. A negative or mirror-asymmetric flux fails the solve check, and a CLI
   summary with a wrong k or a missing key fails the CLI check.

Exits 0 when every check behaves; takes about 20 s.
"""

import contextlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

SEED = 990001   # keeps the self-test's result files apart from real runs


def check(label, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return ok


def benchmark_json_matches():
    from workloads import WORKLOADS
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return all([
        check("workloads match", [w["name"] for w in spec["workloads"]] == list(WORKLOADS)),
        check("end-to-end metrics match",
              {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS),
        check("per-layer metrics match",
              {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS),
    ])


def wrong_reference_fails():
    from workloads import WORKLOADS
    wl = WORKLOADS["pincell"]
    k, iters = wl.reference
    WORKLOADS["pincell"] = replace(wl, reference=(k * (1.0 + 1e-6), iters))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "pincell", "--seed", str(SEED),
                             "--seconds", "1", "--trace", "0"])
    finally:
        WORKLOADS["pincell"] = wl
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    record = json.loads((run.OUT / f"result-pincell-seed{SEED}-trace0.json").read_text())
    failed_kinds = {f["what"] for f in record["failures"]}
    n_solves = len(record["samples"]["solve_s"]) + len(record["samples"]["cli_s"])
    print(f"     wrong reference: {result['failed']}/{result['attempted']} failed")
    return all([
        check("run still reports", code == 0 and result["correct"] is False),
        check("every solve and CLI run failed", result["failed"] == n_solves
              and failed_kinds == {"solve", "cli"}),
    ])


def unit_checks_fail():
    import jsonschema
    import numpy as np
    import slab_sn
    import slab_sn.outputs
    from slab_sn.mesh import FluxField
    from workloads import base_problem

    problem = base_problem(slab_sn)
    result = slab_sn.power_iteration(problem.geometry, problem.materials,
                                     replace(problem.config, sn_order=4, fine_mesh_size=140))
    ref = (result.k_eff, result.iterations)
    flux = result.flux
    x = flux.points
    tilted = FluxField(points=x, psi=flux.psi, phi=flux.phi * (1.0 + 1e-3 * x[:, None]))

    def solve_problems(res):
        return run.check_solve(np, res, ref, run.REF_RTOL, mirror=True)

    schema = slab_sn.outputs.load_schema("eigen_summary")
    summary = slab_sn.outputs.eigen_summary(result, {"flux_csv": "flux.csv",
                                                     "history_csv": "history.csv"})

    def cli_problems(payload):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            (Path(tmp) / "summary.json").write_text(json.dumps(payload))
            return run.check_cli(jsonschema, schema, 0, Path(tmp), ref, run.REF_RTOL)

    missing = {k: v for k, v in summary.items() if k != "iterations"}
    return all([
        check("correct solve passes", not solve_problems(result)),
        check("negative flux fails", bool(solve_problems(replace(result, flux=flux.scaled(-1.0))))),
        check("asymmetric flux fails", bool(solve_problems(replace(result, flux=tilted)))),
        check("valid summary passes", not cli_problems(summary)),
        check("summary with wrong k fails",
              bool(cli_problems({**summary, "k_eff": ref[0] * (1.0 + 1e-6)}))),
        check("summary missing a key fails", bool(cli_problems(missing))),
        check("non-zero exit fails", bool(run.check_cli(jsonschema, schema, 1, run.OUT,
                                                        ref, run.REF_RTOL))),
    ])


def main():
    if not (run.SRC / "slab_sn" / "__init__.py").is_file():
        print(f"selftest: package source not found at {run.SRC}", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    results = [benchmark_json_matches(), wrong_reference_fails(), unit_checks_fail()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
