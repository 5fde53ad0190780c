import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import ValidationError, validate

from _helpers import absorber_psi, write_flux_csv_per_value
from slab_sn import FluxField, cli, gauss_legendre, outputs
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

    @pytest.mark.parametrize("solver", ["analytic", "sweep"])
    def test_one_source_solve(self, pincell_file, tmp_path, solver, monkeypatch):
        runs = []
        original = cli.solve_source

        def counted(operator, source, config, *args, **kwargs):
            phi, solution = original(operator, source, config, *args, **kwargs)
            runs.append((config, solution.sweeps))
            return phi, solution

        # the name cmd_fixed looks up: eigen.solve_source as cli imports it
        monkeypatch.setattr(cli, "solve_source", counted)
        assert main(["fixed", str(pincell_file), "--solver", solver, "--sn", "4",
                     "--mesh", "70", "--out", str(tmp_path / "run")]) == 0
        [(config, sweeps)] = runs
        assert config.solver_kind == solver and (sweeps > 0) == (solver == "sweep")
        # the summary records how the solve ran, as the eigen summary does
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        validate(summary, load_schema("fixed_summary"))
        assert summary["schema"] == "slab-sn-fixed-summary/2"
        assert summary["inner_sweeps"] == sweeps
        assert summary["tolerance"] == config.flux_tolerance
        for key in ("inner_sweeps", "tolerance"):
            with pytest.raises(ValidationError):
                validate({k: v for k, v in summary.items() if k != key},
                         load_schema("fixed_summary"))

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

    @pytest.mark.parametrize("solver", ["analytic", "sweep"])
    @pytest.mark.parametrize("shape, expected", [
        ((7, 1), "emission must be (n_cells, G) = (40, G), got (7, 1)"),
        ((40, 3), "emission has shape (40, 3), expected (cells, G) = (40, 1)"),
    ], ids=["rows", "groups"])
    def test_bad_source_table_shape(self, absorber_file, tmp_path, capsys, solver,
                                    shape, expected):
        # SourceField checks the row count, the solver's require_on the groups
        table = tmp_path / "src.csv"
        np.savetxt(table, np.ones(shape), delimiter=",")
        rc = main(["fixed", str(absorber_file), "--source", "file", "--solver", solver,
                   "--source-file", str(table), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"input error: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_absx_source_is_the_file_table_of_abs_x(self, absorber_file, tmp_path):
        from slab_sn import build_fine_mesh, load_problem
        centers = build_fine_mesh(load_problem(absorber_file).geometry, 40).centers
        table = tmp_path / "src.csv"
        np.savetxt(table, 2.0 * np.abs(centers)[:, None], delimiter=",", fmt="%.17g")
        runs = {}
        for name, flags in (("absx", ["--source", "absx", "--strength", "2.0"]),
                            ("file", ["--source", "file", "--source-file", str(table)])):
            out = tmp_path / name
            assert main(["fixed", str(absorber_file), *flags, "--out", str(out)]) == 0
            runs[name] = read_flux_csv(out / "flux.csv")
        assert json.loads((tmp_path / "absx" / "summary.json").read_text())["source"] == "absx"
        assert float(runs["absx"][-1]["phi"]) > float(runs["absx"][0]["phi"]) > 0.0
        assert runs["absx"] == runs["file"]

    def test_file_source_needs_a_file(self, absorber_file, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["fixed", str(absorber_file), "--source", "file", "--out", str(out)])
        assert rc == 2
        assert "input error: --source file needs --source-file" in capsys.readouterr().err
        assert not (out / "flux.csv").exists()

    @pytest.mark.parametrize("shape", [[], ["--source", "absx"]])
    def test_source_file_needs_file_source(self, absorber_file, tmp_path, capsys, shape):
        # a table given with another source shape is not silently ignored
        out = tmp_path / "o"
        rc = main(["fixed", str(absorber_file), *shape, "--source-file",
                   str(tmp_path / "missing.csv"), "--out", str(out)])
        assert rc == 2
        assert "input error: --source-file needs --source file" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_source_table_is_input_error(self, absorber_file, tmp_path,
                                                       capsys):
        table = tmp_path / "src.csv"
        table.write_text("1.0\nabc\n")
        rc = main(["fixed", str(absorber_file), "--source", "file",
                   "--source-file", str(table), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "input error: --source-file" in capsys.readouterr().err


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

    def test_one_cell_per_region_runs(self, pincell_file, tmp_path):
        # the core's only cell is centred at x = 0, where |x| vanishes
        out = tmp_path / "m3"
        assert main(["eigen", str(pincell_file), "--mesh", "3", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k_eff"] == pytest.approx(1.3524434921525474, rel=1e-10)
        assert summary["iterations"] == 2

    def test_removed_solver_key_exits_2(self, pincell_file, tmp_path, capsys):
        path = tmp_path / "flat.ini"
        path.write_text(pincell_file.read_text().replace(
            "[solver]", "[solver]\ninitial_source = flat"))
        out = tmp_path / "run"
        assert main(["eigen", str(path), "--out", str(out)]) == 2
        assert "[solver] unknown key 'initial_source'" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["eigen", "fixed"])
    def test_dump_matrices_with_the_sweep_exits_2(self, pincell_file, tmp_path, capsys,
                                                  monkeypatch, command):
        # the sweep builds no matrices: an input error found before the solve
        import slab_sn.cli

        def solve(*args, **kwargs):
            pytest.fail("solved before --dump-matrices was checked")
        monkeypatch.setattr(slab_sn.cli, "build_operator", solve)
        monkeypatch.setattr(slab_sn.cli, "power_iteration", solve)
        out = tmp_path / "run"
        argv = [command, str(pincell_file), "--sn", "2", "--solver", "sweep",
                "--out", str(out), "--dump-matrices"]
        assert main(argv) == 2
        assert "--dump-matrices takes the analytic solver only" in capsys.readouterr().err
        assert not out.exists()

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

    def test_solver_failure_exits_1(self, tmp_path, pincell, capsys):
        from dataclasses import replace
        from slab_sn import save_problem
        path = tmp_path / "two_outers.ini"
        save_problem(path, replace(pincell, config=replace(pincell.config, max_outer=2)))
        out = tmp_path / "run"
        assert main(["eigen", str(path), "--sn", "2", "--out", str(out)]) == 1
        assert "solver error: MaxOuterIterationsError" in capsys.readouterr().err
        assert not (out / "flux.csv").exists()

    def test_shift_below_k_exits_1_naming_the_remedy(self, pincell_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["eigen", str(pincell_file), "--sn", "2", "--ke", "1.2",
                     "--out", str(out)]) == 1
        assert "k_e = 1.2 is below the eigenvalue and must be raised" in capsys.readouterr().err
        assert not (out / "flux.csv").exists()

    def test_no_ke_clears_the_file_shift(self, tmp_path):
        shifted = Path(__file__).parent / "fixtures" / "valid" / "shifted_core.ini"
        summaries = {}
        for name, flags in (("file", []), ("cleared", ["--no-ke"])):
            out = tmp_path / name
            assert main(["eigen", str(shifted), *flags, "--out", str(out)]) == 0
            summaries[name] = json.loads((out / "summary.json").read_text())
        assert summaries["file"]["ke"] == 1.41
        assert summaries["cleared"]["ke"] is None


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
            # an input error leaves no output directory
            assert not (tmp_path / command).exists()
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

    @pytest.mark.parametrize("flag", ["--tolerance", "--ke"])
    def test_infinite_override_is_input_error(self, flag, pincell_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["eigen", str(pincell_file), flag, "inf", "--out", str(out)]) == 2
        assert "must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_shift_and_no_shift_are_exclusive(self, pincell_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", str(pincell_file), "--ke", "1.3", "--no-ke",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestOutPath:
    @pytest.mark.parametrize("command", ["fixed", "eigen", "bench"])
    @pytest.mark.parametrize("out", ["taken", "taken/run"])
    def test_existing_file_is_input_error_before_any_solve(self, command, out, pincell_file,
                                                           tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before --out was checked")

        for name in ("build_operator", "power_iteration", "run_benchmark"):
            monkeypatch.setattr(cli, name, no_solve)
        (tmp_path / "taken").write_text("keep")
        assert main([command, str(pincell_file), "--out", str(tmp_path / out)]) == 2
        assert "a file stands where a directory must be" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "keep"


class TestFluxCsv:
    @staticmethod
    def flux(p, g, n):
        rng = np.random.default_rng(5)

        def values(shape):
            out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-30.0, 30.0, shape)
            out.flat[:5] = [-0.0, 1e-300, 1.0 / 3.0, 0.0, 2.0]
            return out

        points = np.sort(rng.uniform(-17.5, 17.5, p))
        points[:3] = [-17.5, -0.0, 1.0 / 3.0]
        return FluxField(points=points, psi=values((p, g * n)), phi=values((p, g)))

    @staticmethod
    def count_forks(monkeypatch):
        """The list that each os.fork call appends to."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    def force_parts(self, monkeypatch, parts):
        """Split every table into `parts` parts; returns count_forks' list."""
        monkeypatch.setattr(outputs, "_usable_cores", lambda: parts)
        monkeypatch.setattr(outputs, "PART_VALUES", 1)
        return self.count_forks(monkeypatch)

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n, g", [(2, 1), (16, 2)])
    def test_bytes_match_per_value_writer(self, tmp_path, n, g):
        p = 400
        flux = self.flux(p, g, n)
        quad = gauss_legendre(n)
        write_flux_csv(tmp_path / "got.csv", flux)
        write_flux_csv_per_value(tmp_path / "ref.csv", flux, quad)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == p * g + 1

    # two and three parts, and more parts than the table's 8 rows
    @pytest.mark.parametrize("p, g, parts", [(400, 2, 2), (400, 1, 3), (4, 2, 11)])
    def test_parts_match_per_value_writer(self, tmp_path, monkeypatch, p, g, parts):
        forks = self.force_parts(monkeypatch, parts)
        flux = self.flux(p, g, 16)
        write_flux_csv(tmp_path / "got.csv", flux)
        write_flux_csv_per_value(tmp_path / "ref.csv", flux, gauss_legendre(16))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len(forks) == parts - 1
        self.assert_no_child()

    def test_table_below_part_values_makes_no_fork(self, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(outputs, "_usable_cores", lambda: 64)
        monkeypatch.setattr(os, "fork", fork)
        flux = self.flux(400, 2, 16)      # 15,200 values
        assert flux.phi.size * 19 < outputs.PART_VALUES
        write_flux_csv(tmp_path / "got.csv", flux)
        write_flux_csv_per_value(tmp_path / "ref.csv", flux, gauss_legendre(16))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_failing_worker_raises_and_is_reaped(self, tmp_path, monkeypatch):
        self.force_parts(monkeypatch, 3)
        lines = outputs._lines

        def fail_in_workers(flux, start, stop):
            if start > 0:
                raise MemoryError
            return lines(flux, start, stop)

        monkeypatch.setattr(outputs, "_lines", fail_in_workers)
        with pytest.raises(OSError, match="part 1 of 3"):
            write_flux_csv(tmp_path / "got.csv", self.flux(400, 2, 16))
        self.assert_no_child()

    def test_failing_parent_part_propagates_and_reaps(self, tmp_path, monkeypatch):
        forks = self.force_parts(monkeypatch, 3)
        lines = outputs._lines

        def fail_in_parent(flux, start, stop):
            if start == 0:
                raise KeyError("parent part")
            return lines(flux, start, stop)

        monkeypatch.setattr(outputs, "_lines", fail_in_parent)
        with pytest.raises(KeyError, match="parent part"):
            write_flux_csv(tmp_path / "got.csv", self.flux(4000, 2, 16))
        assert len(forks) == 2
        self.assert_no_child()

    def test_cli_eigen_in_parts_leaves_no_child(self, pincell_file, tmp_path, monkeypatch):
        # 2 x 4000 rows of 19 values: two parts on two cores
        monkeypatch.setattr(outputs, "_usable_cores", lambda: 2)
        forks = self.count_forks(monkeypatch)
        for out in ("one", "two"):
            assert main(["eigen", str(pincell_file), "--sn", "16", "--mesh", "4000",
                         "--out", str(tmp_path / out)]) == 0
            monkeypatch.setattr(outputs, "_usable_cores", lambda: 1)
        assert len(forks) == 1
        self.assert_no_child()
        assert ((tmp_path / "one" / "flux.csv").read_bytes()
                == (tmp_path / "two" / "flux.csv").read_bytes())


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

    @pytest.mark.parametrize("flag, value", [("--orders", "2,x"), ("--kes", "abc")])
    def test_non_numeric_list_is_input_error(self, pincell_file, tmp_path, capsys,
                                             flag, value):
        out = tmp_path / "bench"
        rc = main(["bench", str(pincell_file), flag, value, "--out", str(out)])
        assert rc == 2
        assert "input error: --orders/--kes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, error", [
        (["--solvers", "foo", "--orders", "2"], "unknown solver_kind 'foo'"),
        (["--orders", "3"], "sn_order must be an even integer in [2, 64], got 3"),
        # an empty matrix, or one whose cells share a name, has nothing to
        # report or reports one cell under another's name
        (["--orders", ""], "the benchmark matrix is empty"),
        (["--solvers", ","], "the benchmark matrix is empty"),
        (["--orders", "2,2"], "benchmark cell analytic_S2 appears twice"),
        (["--kes", "1.3,1.30"], "benchmark cell analytic_S2_ke1.3 appears twice"),
    ])
    def test_bad_cell_value_is_input_error(self, pincell_file, tmp_path, capsys,
                                           flags, error):
        out = tmp_path / "bench"
        assert main(["bench", str(pincell_file), *flags, "--out", str(out)]) == 2
        assert f"input error: {error}" in capsys.readouterr().err
        assert not out.exists()

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
