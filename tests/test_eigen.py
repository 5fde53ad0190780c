import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from _helpers import (assert_within_roundoff, fission_source, one_group_material,
                      split_geometry)
from slab_sn import (BoundaryCondition, FluxField, MaxOuterIterationsError,
                     NonpositiveIntegralError, ShiftAtEigenvalueError,
                     SlabGeometry, SolverConfig, ValidationError,
                     ZeroFluxError, build_fine_mesh,
                     gauss_legendre, power_iteration, update_keff)
from slab_sn import SourceField, evaluate_flux
from slab_sn.eigen import _initial_production, _per_cell, build_operator, solve_source
from slab_sn.recurrence import FirstOrderScan

PCM = 1e-5


def flat_flux(mesh, value=1.0, groups=2, n=2):
    psi = np.full((mesh.n_cells, groups * n), value / 2.0)
    return FluxField.from_psi(mesh.centers, psi, gauss_legendre(n))


class TestFissionSource:
    def test_reflector_cells_have_zero_source(self, pincell):
        mesh = build_fine_mesh(pincell.geometry, 70)
        flux = flat_flux(mesh)
        src = fission_source(flux, pincell.geometry, pincell.materials, mesh, k=1.0)
        refl = np.concatenate([np.arange(*mesh.offsets[0:2]), np.arange(*mesh.offsets[2:4])])
        assert np.all(src.emission[refl] == 0.0)
        assert np.any(src.emission[np.arange(*mesh.offsets[1:3])] > 0.0)

    def test_unshifted_source_is_half_production_over_k(self, pincell):
        mesh = build_fine_mesh(pincell.geometry, 70)
        flux = flat_flux(mesh)
        core = pincell.materials["core"]
        src = fission_source(flux, pincell.geometry, pincell.materials, mesh, k=1.0)
        cells = np.arange(*mesh.offsets[1:3])
        production = core.nu_sigma_f @ flux.phi[cells[0]]
        # chi = (1, 0): all emission in the fast group, half of it on each ordinate
        assert src.emission[cells[0], 0] == pytest.approx(production, rel=1e-14)
        assert src.emission[cells[0], 1] == 0.0

    def test_shift_at_eigenvalue_raises(self, pincell):
        mesh = build_fine_mesh(pincell.geometry, 70)
        flux = flat_flux(mesh)
        with pytest.raises(ShiftAtEigenvalueError):
            fission_source(flux, pincell.geometry, pincell.materials, mesh,
                           k=1.3, ke=1.3)

    def test_rejects_nonpositive_k(self, pincell):
        mesh = build_fine_mesh(pincell.geometry, 70)
        with pytest.raises(ValidationError):
            fission_source(flat_flux(mesh), pincell.geometry, pincell.materials,
                           mesh, k=0.0)


class TestUpdateKeff:
    def test_fixed_point(self):
        assert update_keff(1.2, None, 3.0, 3.0) == pytest.approx(1.2, rel=1e-15)

    def test_unshifted_ratio(self):
        assert update_keff(1.0, None, 2.0, 3.0) == pytest.approx(1.5, rel=1e-15)

    def test_large_shift_limit_matches_unshifted(self):
        plain = update_keff(1.1, None, 2.0, 2.6)
        shifted = update_keff(1.1, 1e12, 2.0, 2.6)
        assert shifted == pytest.approx(plain, abs=1e-9)

    def test_one_group_infinite_medium_surrogate(self):
        # 0-D balance with sigma_t=0.5, sigma_s=0.2, nu_sigma_f=0.45:
        # phi_1 = nu_sigma_f phi_0 / (k_0 sigma_a), so one update lands on
        # k_inf = nu_sigma_f / sigma_a = 1.5 exactly
        sigma_a, nu_sf = 0.3, 0.45
        k0, phi0 = 1.0, 1.0
        phi1 = nu_sf * phi0 / (k0 * sigma_a)
        k1 = update_keff(k0, None, nu_sf * phi0, nu_sf * phi1)
        assert k1 == pytest.approx(1.5, rel=1e-14)
        phi2 = nu_sf * phi1 / (k1 * sigma_a)
        k2 = update_keff(k1, None, nu_sf * phi1, nu_sf * phi2)
        assert k2 == pytest.approx(1.5, rel=1e-14)

    @pytest.mark.parametrize("prev,new", [(0.0, 1.0), (1.0, -2.0), (np.nan, 1.0)])
    def test_rejects_nonpositive_integrals(self, prev, new):
        with pytest.raises(NonpositiveIntegralError):
            update_keff(1.0, None, prev, new)

    @pytest.mark.parametrize("k,prev,new", [(1.0, 1.0, -2.0), (1.5, 1.0, 0.1)])
    def test_shift_below_k_names_the_remedy(self, k, prev, new):
        # a negative integral, or a 1/k update through zero
        with pytest.raises(NonpositiveIntegralError,
                           match="k_e = 1.2 is below the eigenvalue and must be raised"):
            update_keff(k, 1.2, prev, new)

    def test_unshifted_error_names_no_shift(self):
        with pytest.raises(NonpositiveIntegralError) as exc:
            update_keff(1.0, None, 1.0, -2.0)
        assert "k_e" not in str(exc.value)


class TestNormalize:
    """FluxField.from_psi with the cell widths, the normalization that
    power_iteration's final flux read uses."""

    def geometry(self):
        geo = SlabGeometry(edges=np.array([0.0, 35.0]), materials=("m",))
        return geo, build_fine_mesh(geo, 70)

    def normed(self, psi, mesh):
        # from_psi scales the array it is given in place
        return FluxField.from_psi(mesh.centers, np.array(psi, dtype=float),
                                  gauss_legendre(2), mesh.widths)

    def test_constant_flux_scale_factor(self):
        _, mesh = self.geometry()
        c = 4.0
        normed = self.normed(np.full((70, 2), c / 2.0), mesh)
        assert np.allclose(normed.phi, 1.0 / 35.0, rtol=1e-13)

    def test_idempotent_and_projective(self):
        _, mesh = self.geometry()
        rng = np.random.default_rng(7)
        psi = rng.uniform(0.1, 1.0, size=(70, 2))
        once = self.normed(psi, mesh)
        assert np.allclose(self.normed(once.psi, mesh).psi, once.psi, rtol=1e-14)
        assert np.allclose(self.normed(7.0 * psi, mesh).psi, once.psi, rtol=1e-13)

    def test_zero_flux_raises(self):
        _, mesh = self.geometry()
        with pytest.raises(ZeroFluxError):
            self.normed(np.zeros((70, 2)), mesh)


class TestPowerIteration:
    def run(self, pincell, **over):
        cfg = replace(pincell.config, sn_order=2, **over)
        return power_iteration(pincell.geometry, pincell.materials, cfg)

    def test_pincell_s2_regression(self, pincell):
        res = self.run(pincell)
        assert res.k_eff == pytest.approx(1.2475935, abs=5e-6)
        assert res.history_norm[-1] < res.config.flux_tolerance
        assert res.iterations == len(res.history_k)
        # normalized: summed group integrals of the scalar flux equal one
        mesh = build_fine_mesh(pincell.geometry, res.config.fine_mesh_size)
        total = np.sum(res.flux.phi * mesh.widths[:, None])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_shift_choice_leaves_k_unchanged(self, pincell):
        ks = [self.run(pincell, ke=ke).k_eff for ke in (None, 1.3, 1.5)]
        assert max(ks) - min(ks) < 1.0 * PCM

    def test_shift_reduces_iterations_and_decay_ratio(self, pincell):
        plain = self.run(pincell)
        shifted = self.run(pincell, ke=1.3)
        assert shifted.iterations < plain.iterations
        ratios_plain = plain.history_norm[-3:] / plain.history_norm[-4:-1]
        ratios_shift = shifted.history_norm[-2:] / shifted.history_norm[-3:-1]
        assert ratios_shift.mean() < ratios_plain.mean()

    def test_norms_decay_geometrically(self, pincell):
        res = self.run(pincell)
        norms = res.history_norm[1:]
        assert np.all(norms[3:] < norms[2:-1])
        ratios = norms[-4:] / norms[-5:-1]
        assert np.all(ratios < 0.9)

    def test_start_is_absx_on_the_fissile_cells(self, pincell):
        mesh = build_fine_mesh(pincell.geometry, 700)
        start = _initial_production(
            mesh, _per_cell(pincell.geometry, pincell.materials, mesh, "nu_sigma_f"))
        core = mesh.region_of_cell == 1
        assert np.array_equal(start, np.where(core, np.abs(mesh.centers), 0.0))

    @pytest.mark.parametrize("solver_kind, k", [("analytic", 1.3524434921525474),
                                                ("sweep", 0.9937856959177384)])
    def test_one_cell_core_at_zero_starts_flat(self, pincell, solver_kind, k):
        # M = 3: one cell per region, so |x| is zero on the only core cell
        # and the start is one there
        config = replace(pincell.config, fine_mesh_size=3, solver_kind=solver_kind)
        mesh = build_fine_mesh(pincell.geometry, 3)
        start = _initial_production(
            mesh, _per_cell(pincell.geometry, pincell.materials, mesh, "nu_sigma_f"))
        assert np.array_equal(start, [0.0, 1.0, 0.0])
        res = power_iteration(pincell.geometry, pincell.materials, config)
        assert res.k_eff == pytest.approx(k, rel=1e-10)
        assert res.iterations == 2
        assert np.all(np.isfinite(res.flux.psi))
        assert np.sum(res.flux.phi * mesh.widths[:, None]) == pytest.approx(1.0, abs=1e-12)

    def test_shift_below_k_names_the_remedy(self, pincell):
        # k = 1.2476 at S2: a shift at 1.2 turns the fission integral negative
        with pytest.raises(NonpositiveIntegralError, match="k_e = 1.2 is below the eigenvalue"):
            self.run(pincell, ke=1.2)

    def test_max_outer_raises(self, pincell):
        with pytest.raises(MaxOuterIterationsError):
            self.run(pincell, max_outer=3)

    def test_requires_fissile_region(self):
        mats = {"s": one_group_material("s", sigma_t=1.0, sigma_s=0.5)}
        geo = SlabGeometry(edges=np.array([0.0, 10.0]), materials=("s",))
        with pytest.raises(ValidationError, match="fissile"):
            power_iteration(geo, mats, SolverConfig(sn_order=2, fine_mesh_size=20))

    def test_sweep_driver_converges(self, pincell):
        cfg = replace(pincell.config, sn_order=2, solver_kind="sweep",
                      flux_tolerance=2e-4)
        res = power_iteration(pincell.geometry, pincell.materials, cfg)
        assert res.config == cfg
        assert res.inner_sweeps > res.iterations
        # loose tolerance, loose band around the converged sweep value
        assert res.k_eff == pytest.approx(1.2431, abs=2e-3)

    def test_history_timing_monotone(self, pincell):
        res = self.run(pincell)
        assert np.all(np.diff(res.history_seconds) >= 0.0)
        assert res.timing["setup_seconds"] >= 0.0
        assert res.timing["flux_seconds"] >= 0.0


    def test_each_solve_builds_one_operator_and_checks_sweep_inputs_first(
            self, pincell, monkeypatch):
        import slab_sn.eigen as eigen
        calls = {"FixedSourceOperator": 0, "SweepOperator": 0, "source_iteration": 0}

        def counted(name):
            original = getattr(eigen, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(eigen, name, counted(name))
        for kind, built in (("analytic", "FixedSourceOperator"), ("sweep", "SweepOperator")):
            calls.update(dict.fromkeys(calls, 0))
            res = self.run(pincell, solver_kind=kind, flux_tolerance=2e-4)
            assert calls[built] == 1
            assert calls["FixedSourceOperator"] + calls["SweepOperator"] == 1
            assert calls["source_iteration"] == (res.iterations if kind == "sweep" else 0)

        # sweep input errors surface in setup, before any inner iteration
        core = pincell.materials["core"]
        kernel = np.kron(core.sigma_s.T, np.full((2, 2), 0.5))
        with_kernel = dict(pincell.materials, core=replace(core, scatter_kernel=kernel))
        calls.update(dict.fromkeys(calls, 0))
        with pytest.raises(ValidationError, match="isotropic"):
            power_iteration(pincell.geometry, with_kernel,
                            replace(pincell.config, sn_order=2, solver_kind="sweep"))
        with pytest.raises(ValidationError, match="ratio"):
            self.run(pincell, solver_kind="sweep", ke=1.3)
        assert calls["source_iteration"] == 0

    @pytest.mark.parametrize("solver_kind", ["analytic", "sweep"])
    def test_one_source_solve_per_outer_iteration(self, pincell, solver_kind, monkeypatch):
        import slab_sn.eigen as eigen
        kinds = []
        original = eigen.solve_source

        def counted(operator, source, config, *args, **kwargs):
            kinds.append(config.solver_kind)
            return original(operator, source, config, *args, **kwargs)

        monkeypatch.setattr(eigen, "solve_source", counted)
        cfg = replace(pincell.config, sn_order=4, fine_mesh_size=70, solver_kind=solver_kind)
        res = power_iteration(pincell.geometry, pincell.materials, cfg)
        assert kinds == [solver_kind] * res.iterations


# the analytic half of the digest set (tests/_helpers.py): (case, split60
# seed or None for the pincell, config changes, k at one BLAS thread, outer
# count), recorded before the interface solve's per-column form; the S8
# sweep is pinned by test_sweep_benchmark_counts
DIGEST_SET = [
    ("S2", None, dict(sn_order=2), 1.2475934712112022, 21),
    ("S16", None, dict(sn_order=16), 1.2497403355711365, 22),
    ("S64", None, dict(sn_order=64), 1.2497485202535177, 22),
    ("S2-ke", None, dict(sn_order=2, ke=1.3), 1.2475944564688932, 6),
    ("S16-ke", None, dict(sn_order=16, ke=1.3), 1.2497414857834392, 6),
    ("S64-ke", None, dict(sn_order=64, ke=1.3), 1.2497497346759625, 6),
    ("split60-1", 1, dict(sn_order=6), 1.2496812253467933, 22),
    ("split60-2", 2, dict(sn_order=6), 1.2496812253467937, 22),
    ("split60-3", 3, dict(sn_order=6), 1.2496812253467946, 22),
    ("finemesh", None, dict(sn_order=16, fine_mesh_size=20000, ke=1.3), 1.249741520459386, 6),
]


class TestDigestSet:
    @pytest.mark.parametrize("seed, over, k, outers", [case[1:] for case in DIGEST_SET],
                             ids=[case[0] for case in DIGEST_SET])
    def test_k_and_outer_counts_within_roundoff(self, pincell, seed, over, k, outers):
        geometry = (pincell.geometry if seed is None
                    else split_geometry(pincell.geometry, 60, seed))
        res = power_iteration(geometry, pincell.materials, replace(pincell.config, **over))
        assert res.iterations == outers
        assert_within_roundoff(res.k_eff, k)


class TestInfiniteMediumLimit:
    def test_reflective_core_slab_reproduces_k_inf(self, pincell):
        core = pincell.materials["core"]
        t_minus_s = np.diag(core.sigma_t) - core.sigma_s.T
        k_inf = core.nu_sigma_f @ np.linalg.solve(t_minus_s, core.chi)
        geo = SlabGeometry(edges=np.array([-200.0, 200.0]), materials=("core",),
                           bc_left=BoundaryCondition.reflective(),
                           bc_right=BoundaryCondition.reflective())
        cfg = SolverConfig(sn_order=4, fine_mesh_size=100, ke=1.41, max_outer=400)
        res = power_iteration(geo, {"core": core}, cfg)
        assert abs(res.k_eff - k_inf) < 2.0 * PCM


class TestOneCallerAtATime:
    """Threads on one operator get the answers of serial calls."""

    @pytest.mark.parametrize("solver", ["analytic", "sweep"])
    def test_two_threads_get_the_serial_answers(self, pincell, monkeypatch, solver):
        # every march waits on a barrier once it has scanned the operator's
        # workspace, so that unguarded calls from two threads meet there and
        # the first to arrive reads on from the other's scan; guarded ones
        # wait for the operator's lock instead, and the first wait's timeout
        # breaks the barrier, so that they cannot deadlock
        config = replace(pincell.config, sn_order=4, fine_mesh_size=70, solver_kind=solver)
        operator = build_operator(pincell.geometry, pincell.materials, config)
        mesh = operator.mesh
        sources = [SourceField(mesh, np.ones((mesh.n_cells, 2))),
                   SourceField(mesh, np.abs(mesh.centers)[:, None] * [1.0, 0.5])]

        def run(source):
            phi, solution = solve_source(operator, source, config, config.flux_tolerance)
            answer = [phi, operator.flux(solution).psi]
            if solver == "analytic":
                answer.append(evaluate_flux(operator, solution, mesh.edges).psi)
            return answer

        serial = [run(source) for source in sources]
        barrier, scan = threading.Barrier(2, timeout=0.5), FirstOrderScan.in_place

        def scan_then_wait(*args, **kwargs):
            scan(*args, **kwargs)
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass

        monkeypatch.setattr(FirstOrderScan, "in_place", scan_then_wait)
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(run, sources, timeout=60))
        for got, ref in zip(threaded, serial):
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
        # a guarded call met the barrier alone
        assert barrier.broken

    @pytest.mark.parametrize("solver", ["analytic", "sweep"])
    def test_more_threads_than_cores_get_the_serial_answers(self, pincell, solver):
        # four threads, each solving and reading its own source ten times,
        # switching as often as the interpreter lets them
        config = replace(pincell.config, sn_order=4, fine_mesh_size=70, solver_kind=solver)
        operator = build_operator(pincell.geometry, pincell.materials, config)
        centers = operator.mesh.centers
        sources = [SourceField(operator.mesh, np.abs(centers - c)[:, None] * [1.0, 0.5])
                   for c in (-9.0, -3.0, 3.0, 9.0)]

        def run(source):
            answers = []
            for _ in range(10):
                phi, solution = solve_source(operator, source, config, config.flux_tolerance)
                answers.append([phi, operator.flux(solution).psi])
            return answers

        serial = [run(source)[0] for source in sources]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(run, sources, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for runs, ref in zip(threaded, serial):
            for answer in runs:
                for a, b in zip(answer, ref):
                    assert np.array_equal(a, b)
