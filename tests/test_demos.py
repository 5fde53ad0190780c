"""Every quick demo runs to completion against the package in src/.

Demo 05 is left out: it only calls run_benchmark(default_cells(problem)),
which acceptance criteria 03 and 05 already run, and takes about 18 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = ("01_quadrature_and_problem.py", "02_fixed_source_absorber.py",
         "03_pincell_eigenvalue.py", "04_wielandt_shift.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # run from tmp_path so any figure a demo writes lands there
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
