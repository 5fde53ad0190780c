import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from _helpers import absorber_psi, write_flux_csv_per_value
from slab_sn import FluxField, gauss_legendre
from slab_sn.cli import main
from slab_sn.outputs import load_schema, write_flux_csv

ABSORBER_INI = """\
[geometry]
edges = 0.0 4.0
materials = abs
bc_left = vacuum
bc_right = vacuum

[materials.abs]
sigma_t = 1.3
sigma_s =
    0.0
nu_sigma_f = 0.0
chi = 0.0

[solver]
N = 4
M = 40
"""


@pytest.fixture
def absorber_file(tmp_path):
    path = tmp_path / "absorber.ini"
    path.write_text(ABSORBER_INI)
    return path


def read_flux_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestFixed:
    def test_constant_source_matches_closed_form(self, absorber_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["fixed", str(absorber_file), "--source", "constant",
                   "--strength", "2.0", "--out", str(out)])
        assert rc == 0
        rows = read_flux_csv(out / "flux.csv")
        assert len(rows) == 40  # one group, 40 cells
        mu = np.polynomial.legendre.leggauss(4)[0]
        for row in rows[::7]:
            x = float(row["x"])
            for i, m in enumerate(mu, start=1):
                expected = absorber_psi(x, m, 1.3, 1.0, 4.0)
                assert float(row[f"psi_{i}"]) == pytest.approx(expected, abs=1e-10)
        summary = json.loads((out / "summary.json").read_text())
        validate(summary, load_schema("fixed_summary"))

    def test_zero_source_zero_flux(self, absorber_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["fixed", str(absorber_file), "--source", "constant",
                   "--strength", "0.0", "--out", str(out)])
        assert rc == 0
        rows = read_flux_csv(out / "flux.csv")
        assert all(float(r["phi"]) == 0.0 for r in rows)

    def test_file_source(self, absorber_file, tmp_path):
        table = tmp_path / "src.csv"
        np.savetxt(table, np.linspace(0.1, 1.0, 40)[:, None], delimiter=",")
        out = tmp_path / "run"
        assert main(["fixed", str(absorber_file), "--source", "file",
                     "--source-file", str(table), "--out", str(out)]) == 0

    def test_missing_input_is_input_error(self, tmp_path):
        rc = main(["fixed", str(tmp_path / "ghost.ini"), "--out",
                   str(tmp_path / "o")])
        assert rc == 2

    def test_sweep_solver_flag(self, absorber_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["fixed", str(absorber_file), "--solver", "sweep",
                   "--strength", "2.0", "--out", str(out)])
        assert rc == 0

    def test_bad_source_table_shape(self, absorber_file, tmp_path):
        table = tmp_path / "src.csv"
        np.savetxt(table, np.ones((7, 1)), delimiter=",")
        rc = main(["fixed", str(absorber_file), "--source", "file",
                   "--source-file", str(table), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestEigen:
    def test_pincell_run_and_schemas(self, pincell_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["eigen", str(pincell_file), "--sn", "2", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        validate(summary, load_schema("eigen_summary"))
        assert summary["k_eff"] == pytest.approx(1.2475935, abs=1e-5)
        assert summary["sn_order"] == 2
        with open(out / "history.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == load_schema("history_csv")["columns"]
        with open(out / "flux.csv") as fh:
            header = fh.readline().strip().split(",")
        spec = load_schema("flux_csv")
        assert header == spec["prefix"] + [f"psi_{i}" for i in (1, 2)] + spec["suffix"]

    def test_reruns_are_bit_identical(self, pincell_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["eigen", str(pincell_file), "--sn", "2",
                         "--out", str(out)]) == 0
            outs.append((out / "flux.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_shift_flag(self, pincell_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["eigen", str(pincell_file), "--sn", "2", "--ke", "1.3",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ke"] == 1.3
        assert summary["iterations"] <= 15

    def test_dump_matrices(self, pincell_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["eigen", str(pincell_file), "--sn", "2", "--out", str(out),
                   "--dump-matrices"])
        assert rc == 0
        for stem in ("A_core", "P_core", "B_core", "A_reflector"):
            assert (out / "matrices" / f"{stem}.csv").is_file()
        a = np.loadtxt(out / "matrices" / "A_core.csv", delimiter=",")
        assert a.shape == (4, 4)

    # fixed builds its operator without fission, as eigen does without a shift
    @pytest.mark.parametrize("command, ke", [pytest.param("eigen", None, id="None"),
                                             pytest.param("eigen", 1.3, id="1.3"),
                                             pytest.param("fixed", None, id="fixed")])
    def test_dump_matrices_reuses_the_solve_spectra(self, pincell_file, pincell,
                                                    tmp_path, monkeypatch, command, ke):
        import slab_sn.eigen
        from slab_sn import assemble_A, block_diagonalize, gauss_legendre
        calls = []

        def counted(a):
            calls.append(a.shape)
            return block_diagonalize(a)

        monkeypatch.setattr(slab_sn.eigen, "block_diagonalize", counted)
        out = tmp_path / "run"
        argv = [command, str(pincell_file), "--sn", "4", "--out", str(out), "--dump-matrices"]
        assert main(argv + ([] if ke is None else ["--ke", str(ke)])) == 0
        names = set(pincell.geometry.materials)
        assert len(calls) == len(names)
        quad = gauss_legendre(4)
        for name in names:
            a = assemble_A(pincell.materials[name], quad, 0.0 if ke is None else 1.0 / ke)
            spec = block_diagonalize(a)
            for stem, ref in (("A", a), ("P", spec.P), ("B", spec.B)):
                got = np.loadtxt(out / "matrices" / f"{stem}_{name}.csv", delimiter=",")
                assert np.array_equal(got, ref), (stem, name)

    def test_solver_error_exit_code(self, tmp_path, absorber_file):
        # no fissile material: eigen run is an input-data problem
        rc = main(["eigen", str(absorber_file), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestOverrides:
    @pytest.mark.parametrize("solver", ["sweep", "analytic"])
    @pytest.mark.parametrize("sn", ["2", "8"])
    def test_fixed_validates_the_overridden_order(self, solver, sn, tmp_path, capsys):
        # the file's incoming flux has N*G/2 = 2 entries, for S4 only
        beam = Path(__file__).parent / "fixtures" / "valid" / "incoming_beam.ini"
        out = tmp_path / "run"
        assert main(["fixed", str(beam), "--sn", sn, "--solver", solver,
                     "--out", str(out)]) == 2
        assert "incoming flux must have length N*G/2" in capsys.readouterr().err
        assert not (out / "flux.csv").exists()

    def test_too_few_cells_reads_the_same_for_fixed_and_eigen(self, pincell_file,
                                                              tmp_path, capsys):
        errors = []
        for command in ("fixed", "eigen"):
            assert main([command, str(pincell_file), "--mesh", "2",
                         "--out", str(tmp_path / command)]) == 2
            errors.append(capsys.readouterr().err)
        assert "fine_mesh_size (2) must be >= number of regions (3)" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("command", ["fixed", "eigen"])
    @pytest.mark.parametrize("flag", ["--sn", "--mesh", "--tolerance"])
    def test_zero_override_is_input_error(self, command, flag, pincell_file,
                                          tmp_path, capsys):
        out = tmp_path / "run"
        assert main([command, str(pincell_file), flag, "0", "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not (out / "flux.csv").exists()

    def test_shift_and_no_shift_are_exclusive(self, pincell_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", str(pincell_file), "--ke", "1.3", "--no-ke",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestFluxCsv:
    @pytest.mark.parametrize("n, g", [(2, 1), (16, 2)])
    def test_bytes_match_per_value_writer(self, tmp_path, n, g):
        rng = np.random.default_rng(5)
        p = 400

        def values(shape):
            out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-30.0, 30.0, shape)
            out.flat[:5] = [-0.0, 1e-300, 1.0 / 3.0, 0.0, 2.0]
            return out

        points = np.sort(rng.uniform(-17.5, 17.5, p))
        points[:3] = [-17.5, -0.0, 1.0 / 3.0]
        flux = FluxField(points=points, psi=values((p, g * n)), phi=values((p, g)))
        quad = gauss_legendre(n)
        write_flux_csv(tmp_path / "got.csv", flux, quad)
        write_flux_csv_per_value(tmp_path / "ref.csv", flux, quad)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == p * g + 1


class TestBench:
    def test_small_matrix_and_schemas(self, pincell_file, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", str(pincell_file), "--solvers", "analytic",
                   "--orders", "2,4", "--baseline", "analytic_S4",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        validate(report, load_schema("bench_report"))
        assert {c["name"] for c in report["cells"]} == {"analytic_S2", "analytic_S4"}
        assert all("time_ratio_vs_baseline" in c for c in report["cells"])
        with open(out / "convergence.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == load_schema("bench_csv")["columns"]

    def test_single_cell_has_no_ratios(self, pincell_file, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", str(pincell_file), "--solvers", "analytic",
                   "--orders", "2", "--baseline", "analytic_S2",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["baseline"] is None
        assert all("time_ratio_vs_baseline" not in c for c in report["cells"])

    def test_partial_failure_reported(self, tmp_path, pincell):
        from slab_sn import save_problem
        from dataclasses import replace
        crippled = replace(pincell, config=replace(pincell.config, max_outer=2))
        path = tmp_path / "crippled.ini"
        save_problem(path, crippled)
        out = tmp_path / "bench"
        rc = main(["bench", str(path), "--solvers", "analytic", "--orders",
                   "2,4", "--out", str(out)])
        assert rc == 1
        report = json.loads((out / "report.json").read_text())
        validate(report, load_schema("bench_report"))
        assert len(report["failed"]) == 2
        assert "MaxOuterIterationsError" in report["failed"][0]["error"]


@pytest.fixture(scope="module")
def pincell_file():
    from slab_sn import builtin_problem_path
    return builtin_problem_path("pincell_reflector")


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "slab_sn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fixed" in proc.stdout and "bench" in proc.stdout


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package and its CLI need numpy
    code = ("import sys, slab_sn, slab_sn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
