"""The benchmark in perfbench/ names package attributes that it swaps for
timing wrappers, and its setup probe composes the spectral calls itself.
A renamed attribute or a changed signature would only surface as a crash
of a traced benchmark run, so these tests load the benchmark's modules and
check what they rely on.  Nothing under perfbench/ is written."""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from slab_sn import power_iteration, save_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    """Import perfbench/<name>.py the way the benchmark runs it: with
    perfbench/ on sys.path, under a private module name, writing no
    bytecode cache there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, table", [("tracing", "BOUNDARIES"),
                                         ("child", "CLI_BOUNDARIES")])
def test_boundaries_resolve_to_callables(monkeypatch, name, table):
    boundaries = getattr(load_perfbench(name, monkeypatch), table)
    assert boundaries
    for span, (module, attr) in boundaries.items():
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{span}: {module}.{attr} is not callable"


@pytest.mark.parametrize("ke", [None, 1.3])
def test_setup_probe_runs(monkeypatch, tmp_path, pincell, ke):
    # the probe runs block_diagonalize(assemble_A(material, quad, scale))
    # for every material of an analytic problem
    child = load_perfbench("child", monkeypatch)
    path = tmp_path / "pincell.ini"
    config = replace(pincell.config, solver_kind="analytic", sn_order=4, ke=ke)
    save_problem(path, replace(pincell, config=config))
    report = child.setup(str(path))
    assert report["spectral_calls"] == 1 + 2 * len(set(pincell.geometry.materials))
    assert report["spectral_s"] >= 0.0


@pytest.mark.parametrize("kind", ["analytic", "sweep"])
def test_traced_solve_attributes_every_outer_iteration(monkeypatch, pincell, kind):
    # run.traced_layers divides by the per-outer call counts, so a lost
    # per-outer boundary would only show as a crash of a traced benchmark run
    tracing = load_perfbench("tracing", monkeypatch)
    run = load_perfbench("run", monkeypatch)
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    config = replace(pincell.config, solver_kind=kind, sn_order=4, fine_mesh_size=70)
    problem = replace(pincell, config=config)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = tracer.solve(power_iteration, problem.geometry, problem.materials, config)
    layers, coverage = run.traced_layers(tracer, [(tracer.solve_id, result)], problem)
    assert layers["trace.unobserved"] == 0, coverage
    assert layers["eigen.outer_iters"] == result.iterations
    assert layers[f"{kind}.calls"] == result.iterations
