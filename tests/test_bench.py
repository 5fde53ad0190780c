from dataclasses import replace

import pytest

from slab_sn import run_benchmark
from slab_sn.bench import BenchCell, default_cells


class TestCells:
    def test_default_matrix(self):
        cells = default_cells()
        assert len(cells) == 8
        assert {c.solver_kind for c in cells} == {"analytic", "sweep"}
        assert {c.sn_order for c in cells} == {2, 4, 8, 16}

    def test_cell_names(self):
        assert BenchCell("analytic", 16).name == "analytic_S16"
        assert BenchCell("sweep", 4, ke=1.3).name == "sweep_S4_ke1.3"


class TestRunBenchmark:
    def test_two_analytic_cells(self, pincell):
        cells = [BenchCell("analytic", 2), BenchCell("analytic", 4)]
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
        report = run_benchmark(pincell, [BenchCell("analytic", 2)],
                               baseline="analytic_S2")
        assert report.baseline is None
        assert "time_ratio_vs_baseline" not in report.cells[0]

    def test_failed_cells_collected(self, pincell):
        crippled = replace(pincell, config=replace(pincell.config, max_outer=2))
        report = run_benchmark(crippled, [BenchCell("analytic", 2)], warmup=False)
        assert report.cells == []
        assert len(report.failed) == 1
        assert "MaxOuterIterationsError" in report.failed[0]["error"]
