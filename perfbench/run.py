"""Outside-in benchmark for slab-sn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One run builds the workload's problem file from the seed, then

1. solves it warm, in this process, for at least S seconds (``solve_s``;
   with ``--trace 1`` untraced and traced solves alternate, and the traced
   ones give the per-layer numbers and the tracing overhead);
2. times the set-up path in fresh interpreters (``setup_s``);
3. runs ``python -m slab_sn.cli eigen`` cold (``cli_s``; traced from inside
   the child with ``--trace 1``);

and checks every answer. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit. A fuller record (environment,
samples and quartiles, generator record, tracing coverage, spans) goes to
``.perfbench_out/`` in the checkout. ``--workload all`` runs every workload
in both modes and prints one table.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_SOLVES = 2            # warm solves per run, whatever --seconds says
ROUNDS = 3                # cold set-ups per run, spread over the warm solves
CHILD_TIMEOUT_S = 150
REF_RTOL = 1e-9           # k against the references stored in workloads.py
SPLIT_RTOL = 1e-11        # split60 k against the live 3-region k
MIRROR_RTOL = 1e-5        # phi(x) against phi(-x), interpolated

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "package.import_s": "s", "problem_io.load_s": "s", "mesh.build_s": "s",
    "spectral.setup_s": "s", "spectral.calls": "count",
    "eigen.outer_iters": "count", "eigen.outer_s": "s", "eigen.self_s": "s",
    "eigen.first_solve_s": "s",
    "eigen.inner_s": "s", "eigen.inner_ns_per_cell": "ns",
    "analytic.calls": "count", "analytic.cell_modes": "count",
    "analytic.precompute_frac": "1", "analytic.evaluate_frac": "1",
    "analytic.global_solve_frac": "1", "analytic.global_dim": "count",
    "analytic.global_dense_mb": "MB",
    "sweep.calls": "count", "sweep.inner_sweeps": "count", "sweep.cell_updates": "count",
    "sweep.source_iteration_frac": "1",
    "outputs.write_s": "s", "outputs.mb": "MB", "cli.other_s": "s",
    "trace.attributed_frac": "1", "trace.overhead_frac": "1", "trace.unobserved": "count",
}
# metrics derived from array sizes rather than measured
COMPUTED = ("analytic.cell_modes", "analytic.global_dim", "analytic.global_dense_mb",
            "sweep.cell_updates", "outputs.mb")


def pin_blas_threads():
    """Cap BLAS at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    try:
        want = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        want = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(max(1, min(nproc, want)))


def blas_info(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Tally:
    """Attempted and failed solves, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"what": what, "problems": problems})


def check_k(k, iterations, ref, rtol):
    k_ref, it_ref = ref
    problems = []
    if not abs(k - k_ref) <= rtol * abs(k_ref):
        problems.append(f"k_eff {k!r} differs from reference {k_ref!r} "
                        f"by {abs(k - k_ref) / abs(k_ref):.3e} relative (> {rtol:g})")
    if iterations != it_ref:
        problems.append(f"{iterations} outer iterations, reference {it_ref}")
    return problems


def check_solve(np, result, ref, rtol, mirror):
    problems = check_k(result.k_eff, result.iterations, ref, rtol)
    phi, x = result.flux.phi, result.flux.points
    if not np.all(phi > 0.0):
        problems.append(f"scalar flux not positive (min {phi.min()!r})")
    elif mirror:
        for g in range(phi.shape[1]):
            err = np.max(np.abs(phi[:, g] - np.interp(-x, x, phi[:, g]))) / np.max(phi[:, g])
            if err > MIRROR_RTOL:
                problems.append(f"group {g + 1} mirror asymmetry {err:.3e} > {MIRROR_RTOL:g}")
    return problems


def check_cli(jsonschema, schema, code, outdir, ref, rtol):
    if code != 0:
        return [f"CLI exit status {code}"]
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        jsonschema.validate(summary, schema)
    except (OSError, ValueError, jsonschema.ValidationError) as exc:
        return [f"summary.json: {type(exc).__name__}: {exc}"]
    return check_k(summary["k_eff"], summary["iterations"], ref, rtol)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv):
    """(wall seconds, exit status, parsed last stdout line or None)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    payload = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            payload = json.loads(lines[-1])
        except ValueError:
            payload = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return wall, proc.returncode, payload


def from_src(payload):
    return payload is not None and Path(payload["module_file"]).resolve().is_relative_to(SRC)


def traced_layers(tracer, solves, problem):
    """Per-layer metrics from the traced solves: medians across solves."""
    from tracing import BOUNDARIES, IDLE_BY_SOLVER, ROOT as ROOT_SPAN
    cfg, geo = problem.config, problem.geometry
    ng = cfg.sn_order * problem.materials[geo.materials[0]].n_groups
    m = cfg.fine_mesh_size
    per_solve, observed = [], set()
    for sid, result in solves:
        total, own, calls = tracer.layer_times(sid)
        observed |= set(calls)
        root = total[ROOT_SPAN]
        a_calls = calls["analytic.fixed_source_solve"]
        sweeps = result.inner_sweeps
        inner = total["analytic.fixed_source_solve"] + total["sweep.source_iteration"]
        per_solve.append({
            "eigen.outer_iters": result.iterations,
            "eigen.outer_s": root / result.iterations,
            "eigen.self_s": own[ROOT_SPAN] + total["eigen.update_keff"],
            "eigen.inner_s": inner,
            "eigen.inner_ns_per_cell": 1e9 * inner / ((a_calls + sweeps) * m * ng),
            "analytic.calls": a_calls,
            "analytic.cell_modes": a_calls * m * ng,
            "analytic.precompute_frac": own["analytic.solve_fixed_source"] / root,
            "analytic.evaluate_frac": own["analytic.fixed_source_solve"] / root,
            "analytic.global_solve_frac": total["analytic.solve_alpha"] / root,
            "sweep.calls": calls["sweep.source_iteration"],
            "sweep.inner_sweeps": sweeps,
            "sweep.cell_updates": sweeps * m * ng,
            "sweep.source_iteration_frac": total["sweep.source_iteration"] / root,
            "trace.attributed_frac": (root - own[ROOT_SPAN]) / root,
        })
    layers = {key: statistics.median(s[key] for s in per_solve) for key in per_solve[0]}
    dim = ng * geo.n_regions if cfg.solver_kind == "analytic" else 0
    layers["analytic.global_dim"] = dim
    layers["analytic.global_dense_mb"] = 8.0 * dim * dim / 1e6
    idle = IDLE_BY_SOLVER[cfg.solver_kind]
    unobserved = sorted(set(BOUNDARIES) - observed - idle)
    layers["trace.unobserved"] = len(unobserved)
    return layers, {"observed": sorted(observed), "idle_by_design": sorted(idle),
                    "unobserved": unobserved}


class Run:
    """One workload, one seed: generate, solve, probe cold paths, check."""

    def __init__(self, args, work):
        import numpy as np
        import slab_sn
        import slab_sn.outputs
        from tracing import Tracer
        from workloads import WORKLOADS, base_problem, make_problem

        if not Path(slab_sn.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"slab_sn imported from {slab_sn.__file__}, not {SRC}")
        self.np, self.slab_sn = np, slab_sn
        self.args, self.work = args, work
        self.wl = WORKLOADS[args.workload]
        self.trace = bool(args.trace)
        self.tally = Tally()
        self.tracer = Tracer()

        generated, self.generator = make_problem(slab_sn, self.wl, args.seed)
        self.ini = work / f"{self.wl.name}.ini"
        slab_sn.save_problem(self.ini, generated)
        self.problem = slab_sn.load_problem(self.ini)
        if self.wl.split:
            # splitting a homogeneous region leaves the analytic solution
            # unchanged, so k must equal the 3-region k at the same S_N and M
            live = self.solve(base_problem(slab_sn).geometry)
            self.ref, self.rtol = (live.k_eff, live.iterations), SPLIT_RTOL
            self.generator["unsplit_k_eff"] = live.k_eff
        else:
            self.ref, self.rtol = self.wl.reference, REF_RTOL
        self.split_k = []

    def solve(self, geometry=None, config=None):
        p = self.problem
        return self.slab_sn.power_iteration(geometry or p.geometry, p.materials,
                                            config or p.config)

    def checked(self, label, fn):
        """(seconds, result) of a solve that returned, else (None, None).

        A solve that raises or fails a check counts as failed; one that
        returned a wrong answer keeps its time, and the run reports
        ``correct: false``.
        """
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed solve is counted, not fatal
            self.tally.record(label, [f"{type(exc).__name__}: {exc}"])
            return None, None
        dt = time.perf_counter() - t0
        self.tally.record(label, check_solve(self.np, result, self.ref, self.rtol,
                                             mirror=not self.wl.split))
        if self.wl.split:
            self.split_k.append(result.k_eff)
        return dt, result

    def warm_solve(self, untraced, traced):
        """One timed solve; with tracing, also one traced solve."""
        dt, _ = self.checked("solve", self.solve)
        if dt is not None:
            untraced.append(dt)
        if self.trace:
            with self.tracer.installed():
                dt, result = self.checked("traced solve", lambda: self.tracer.solve(self.solve))
            if dt is not None:
                traced.append((dt, self.tracer.solve_id, result))

    def cold_setup(self):
        _, code, payload = run_child(["perfbench/child.py", "setup", str(self.ini)])
        ok = code == 0 and from_src(payload)
        self.tally.record("cold setup", [] if ok else [f"setup child exit {code}"])
        return [payload] if ok else []

    def cold_cli(self, rep):
        """[(wall seconds, child payload or None, output MB)] if the CLI exited 0."""
        import jsonschema
        outdir = self.work / f"cli-{rep}"
        if self.trace:
            wall, code, payload = run_child(["perfbench/child.py", "cli", str(self.ini),
                                             str(outdir)])
            code = payload["exit_code"] if from_src(payload) else code or 1
        else:
            wall, code, payload = run_child(["-m", "slab_sn.cli", "eigen", str(self.ini),
                                             "--out", str(outdir)])
        schema = self.slab_sn.outputs.load_schema("eigen_summary")
        self.tally.record("cli", check_cli(jsonschema, schema, code, outdir,
                                           self.ref, self.rtol))
        out = []
        if code == 0:
            mb = sum(f.stat().st_size for f in outdir.iterdir() if f.is_file()) / 1e6
            out.append((wall, payload, mb))
        shutil.rmtree(outdir, ignore_errors=True)
        return out

    def execute(self):
        """Warm solves for --seconds, interleaved with the cold probes.

        A shared machine can run at uneven speed for tens of seconds, so each
        of ROUNDS rounds takes its share of the warm solves, one cold
        set-up and (while reps remain) one cold CLI run: every metric
        samples the whole run. An untimed small solve first pays lazy
        imports and first-call costs.
        """
        cfg = self.problem.config
        self.solve(config=replace(cfg, sn_order=2,
                                  fine_mesh_size=max(70, self.problem.geometry.n_regions)))
        untraced, traced, setups, clis = [], [], [], []
        warm = 0.0
        for rnd in range(ROUNDS):
            while warm < self.args.seconds * (rnd + 1) / ROUNDS:
                t0 = time.perf_counter()
                self.warm_solve(untraced, traced)
                warm += time.perf_counter() - t0
            setups += self.cold_setup()
            if rnd < self.wl.cli_reps:
                clis += self.cold_cli(rnd)
        while len(untraced) < MIN_SOLVES and not self.tally.failures:
            self.warm_solve(untraced, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not (untraced and setups and clis and (traced or not self.trace)):
            sys.stderr.write("no sample for some metric: "
                             f"{json.dumps(self.tally.failures)[:2000]}\n")
            raise SystemExit(1)

        samples = {"solve_s": untraced, "setup_s": [s["setup_s"] for s in setups],
                   "cli_s": [c[0] for c in clis]}
        record = {"workload": self.wl.name, "why": self.wl.why, "trace": int(self.trace),
                  "environment": environment(self.np, self.args.seed),
                  "generator": self.generator,
                  "reference": {"k_eff": self.ref[0], "outer_iterations": self.ref[1],
                                "rtol": self.rtol, "live": self.wl.split},
                  "samples": samples,
                  "quartiles": {k: quartiles(v) for k, v in samples.items()},
                  "failures": self.tally.failures}
        if self.split_k:
            record["split_k_max_rel_diff"] = max(abs(k - self.ref[0]) / self.ref[0]
                                                 for k in self.split_k)
        med = statistics.median
        if not self.trace:
            metrics = {"solve_s": med(untraced), "setup_s": med(samples["setup_s"]),
                       "cli_s": med(samples["cli_s"]), "peak_rss_mb": peak_rss_mb}
            units = END_TO_END_UNITS
        else:
            metrics, record["coverage"] = traced_layers(
                self.tracer, [(sid, res) for _, sid, res in traced], self.problem)
            record["traced_solve_s"] = [dt for dt, _, _ in traced]
            metrics["trace.overhead_frac"] = med(record["traced_solve_s"]) / med(untraced) - 1.0
            metrics["package.import_s"] = med(s["import_s"] for s in setups)
            metrics["problem_io.load_s"] = med(s["load_s"] for s in setups)
            metrics["mesh.build_s"] = med(s["mesh_s"] for s in setups)
            metrics["spectral.setup_s"] = med(s["spectral_s"] for s in setups)
            metrics["spectral.calls"] = setups[0]["spectral_calls"]
            parts = []
            for wall, payload, mb in clis:
                spans = payload["spans_s"]
                writes = sum(v for k, v in spans.items() if k.startswith("outputs."))
                first = spans["eigen.power_iteration"]
                other = wall - payload["import_s"] - spans["problem_io.load_problem"] - first - writes
                parts.append((first, writes, mb, other))
            for i, key in enumerate(("eigen.first_solve_s", "outputs.write_s",
                                     "outputs.mb", "cli.other_s")):
                metrics[key] = med(p[i] for p in parts)
            units = PER_LAYER_UNITS
            (OUT / f"trace-{self.wl.name}-seed{self.args.seed}.json").write_text(
                json.dumps({"workload": self.wl.name, "seed": self.args.seed,
                            "spans": self.tracer.to_json()}))
        record["metrics"] = {k: {"value": metrics[k], "unit": units[k],
                                 "computed": k in COMPUTED} for k in units}
        (OUT / f"result-{self.wl.name}-seed{self.args.seed}-trace{int(self.trace)}.json"
         ).write_text(json.dumps(record, indent=1))
        return record, self.tally


def environment(np, seed):
    import scipy
    from workloads import WORKLOADS
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "blas": blas_info(np),
            "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "git_commit": git_commit(), "seed": seed,
            "why": {name: w.why for name, w in WORKLOADS.items()}}


def report(record, tally):
    wl = record["workload"]
    print(f"workload {wl} (seed {record['environment']['seed']}, "
          f"trace {record['trace']}): {record['why']}")
    print(f"  generator: {json.dumps(record['generator'])}")
    env = record["environment"]
    print(f"  env: nproc={env['nproc']} blas={env['blas']['name']} "
          f"threads={env['blas']['threads']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={env['git_commit']}")
    for key, q in record["quartiles"].items():
        print(f"  {key}: n={len(record['samples'][key])} "
              f"quartiles={[round(v, 6) for v in q]}")
    for name, m in record["metrics"].items():
        tag = " (computed)" if m["computed"] else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{tag}")
    failed = len(tally.failures)
    print(f"  fail_rate = {failed / tally.attempted:.6g} ({failed}/{tally.attempted})")
    for f in tally.failures:
        print(f"  FAILED {f['what']}: {'; '.join(f['problems'])}")
    if "coverage" in record:
        print(f"  unobserved boundaries: {record['coverage']['unobserved'] or 'none'}")
    if "split_k_max_rel_diff" in record:
        print(f"  split60 k vs 3-region k: max rel diff {record['split_k_max_rel_diff']:.3e}")
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in record["metrics"].items()}}))


def run_all(args):
    """Every workload in both modes; one table of every metric."""
    from workloads import WORKLOADS
    ok = True
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            ok &= res["correct"]
            rows.append((name, "fail_rate", res["failed"] / res["attempted"], "1"))
            rows += [(name, k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
            rows += [(name, line.strip(), "", "") for line in lines
                     if "split60 k vs" in line or "FAILED" in line]
    for name, key, value, unit in rows:
        shown = f"{value:.6g}" if value != "" else ""
        print(f"{name:9s} {key:32s} {shown:>12s} {unit}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slab_sn" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        record, tally = Run(args, work).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(record, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
