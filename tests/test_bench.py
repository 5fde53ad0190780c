from dataclasses import replace

import pytest

from slab_sn import SolverConfig, ValidationError, run_benchmark
from slab_sn.bench import cell_name, default_cells


class TestCells:
    def test_default_matrix(self, pincell):
        cells = default_cells(pincell)
        assert len(cells) == 8
        assert all(isinstance(c, SolverConfig) for c in cells)
        assert {c.solver_kind for c in cells} == {"analytic", "sweep"}
        assert {c.sn_order for c in cells} == {2, 4, 8, 16}
        # every other knob is the problem's own
        assert {replace(c, solver_kind="analytic", sn_order=2) for c in cells} == {
            replace(pincell.config, sn_order=2, ke=None)}

    def test_cell_names(self):
        assert cell_name(SolverConfig(sn_order=16)) == "analytic_S16"
        assert cell_name(SolverConfig(sn_order=4, solver_kind="sweep",
                                      ke=1.3)) == "sweep_S4_ke1.3"

    @pytest.mark.parametrize("over, match", [
        ({"solvers": ("foo",)}, "unknown solver_kind 'foo'"),
        ({"orders": (3,)}, "sn_order must be even"),
        ({"orders": (2.0,)}, "sn_order must be an integer"),
        ({"kes": (float("inf"),)}, "ke must be finite"),
    ])
    def test_bad_cell_values_raise_before_any_run(self, pincell, over, match):
        with pytest.raises(ValidationError, match=match):
            default_cells(pincell, **over)

    def test_cells_are_checked_against_the_problem(self, pincell):
        too_coarse = replace(pincell, config=replace(pincell.config, fine_mesh_size=2))
        with pytest.raises(ValidationError, match="number of regions"):
            default_cells(too_coarse, orders=(2,))


class TestRunBenchmark:
    def test_two_analytic_cells(self, pincell):
        cells = default_cells(pincell, orders=(2, 4), solvers=("analytic",))
        report = run_benchmark(pincell, cells, baseline="analytic_S4")
        assert report.failed == []
        assert report.baseline == "analytic_S4"
        s2 = report.cell("analytic_S2")
        assert s2["k_eff"] == pytest.approx(1.2475935, abs=1e-5)
        assert s2["iterations"] == len(s2["history_norm"])
        assert s2["total_seconds"] > 0.0
        assert s2["time_ratio_vs_baseline"] > 0.0
        assert report.cell("analytic_S4")["time_ratio_vs_baseline"] == pytest.approx(1.0)

    def test_single_cell_no_ratios(self, pincell):
        report = run_benchmark(pincell, default_cells(pincell, (2,), ("analytic",)),
                               baseline="analytic_S2")
        assert report.baseline is None
        assert "time_ratio_vs_baseline" not in report.cells[0]

    def test_failed_cells_collected(self, pincell):
        crippled = replace(pincell, config=replace(pincell.config, max_outer=2))
        report = run_benchmark(crippled, default_cells(crippled, (2,), ("analytic",)))
        assert report.cells == []
        assert len(report.failed) == 1
        assert "MaxOuterIterationsError" in report.failed[0]["error"]
