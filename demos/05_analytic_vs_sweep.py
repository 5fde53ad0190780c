"""
Analytic solver versus the sweeping baseline
============================================

Both drivers run the same power iteration on the same fine mesh with the
same convergence criterion.  The sweeping method needs an inner
source-iteration layer per outer step and a first-order spatial closure,
so it is both slower and less accurate: its k_eff sits several hundred
pcm below the analytic value, which only discretizes the source.
"""

from slab_sn import builtin_problem_path, default_cells, load_problem, run_benchmark

problem = load_problem(builtin_problem_path("pincell_reflector"))

orders = (2, 4, 8, 16)
cells = default_cells(problem, orders, solvers=("analytic", "sweep"))
report = run_benchmark(problem, cells, baseline="analytic_S16",
                       problem_name="pincell_reflector")

print("cell           k_eff      outers  inner sweeps   total (s)")
for cell in report.cells:
    print(f"{cell['name']:<13} {cell['k_eff']:.6f}  {cell['iterations']:^6d} "
          f" {cell['inner_sweeps']:^12d} {cell['total_seconds']:10.3f}")

print("\nper-order comparison:")
for n in orders:
    a = report.cell(f"analytic_S{n}")
    s = report.cell(f"sweep_S{n}")
    print(f"  S{n:<3d} sweep is {s['total_seconds'] / a['total_seconds']:5.1f}x"
          f" slower, k gap {(a['k_eff'] - s['k_eff']) * 1e5:6.1f} pcm,"
          f" outer counts {a['iterations']} vs {s['iterations']}")
