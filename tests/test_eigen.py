from dataclasses import replace

import numpy as np
import pytest

from _helpers import fission_source, one_group_material
from slab_sn import (BoundaryCondition, FluxField, MaxOuterIterationsError,
                     NonpositiveIntegralError, ShiftAtEigenvalueError,
                     SlabGeometry, SolverConfig, ValidationError,
                     ZeroFluxError, build_fine_mesh,
                     gauss_legendre, normalize, power_iteration, update_keff)

PCM = 1e-5


def flat_flux(mesh, value=1.0, groups=2, n=2):
    psi = np.full((mesh.n_cells, groups * n), value / 2.0)
    return FluxField.from_psi(mesh.centers, psi, gauss_legendre(n))


class TestFissionSource:
    def test_reflector_cells_have_zero_source(self, pincell):
        mesh = build_fine_mesh(pincell.geometry, 70)
        flux = flat_flux(mesh)
        src = fission_source(flux, pincell.geometry, pincell.materials, mesh, k=1.0)
        refl = np.concatenate([mesh.cells_of_region(0), mesh.cells_of_region(2)])
        assert np.all(src.emission[refl] == 0.0)
        assert np.any(src.emission[mesh.cells_of_region(1)] > 0.0)

    def test_unshifted_source_is_half_production_over_k(self, pincell):
        mesh = build_fine_mesh(pincell.geometry, 70)
        flux = flat_flux(mesh)
        core = pincell.materials["core"]
        src = fission_source(flux, pincell.geometry, pincell.materials, mesh, k=1.0)
        cells = mesh.cells_of_region(1)
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


class TestNormalize:
    def geometry(self):
        geo = SlabGeometry(edges=np.array([0.0, 35.0]), materials=("m",))
        return geo, build_fine_mesh(geo, 70)

    def test_constant_flux_scale_factor(self):
        _, mesh = self.geometry()
        c = 4.0
        flux = FluxField.from_psi(mesh.centers, np.full((70, 2), c / 2.0),
                                  gauss_legendre(2))
        normed = normalize(flux, mesh)
        assert np.allclose(normed.phi, 1.0 / 35.0, rtol=1e-13)

    def test_idempotent_and_projective(self):
        _, mesh = self.geometry()
        rng = np.random.default_rng(7)
        psi = rng.uniform(0.1, 1.0, size=(70, 2))
        flux = FluxField.from_psi(mesh.centers, psi, gauss_legendre(2))
        once = normalize(flux, mesh)
        assert np.allclose(normalize(once, mesh).psi, once.psi, rtol=1e-14)
        assert np.allclose(normalize(flux.scaled(7.0), mesh).psi, once.psi,
                           rtol=1e-13)

    def test_zero_flux_raises(self):
        _, mesh = self.geometry()
        flux = FluxField.from_psi(mesh.centers, np.zeros((70, 2)),
                                  gauss_legendre(2))
        with pytest.raises(ZeroFluxError):
            normalize(flux, mesh)


class TestPowerIteration:
    def run(self, pincell, **over):
        cfg = replace(pincell.config, sn_order=2, **over)
        return power_iteration(pincell.geometry, pincell.materials, cfg)

    def test_pincell_s2_regression(self, pincell):
        res = self.run(pincell)
        assert res.k_eff == pytest.approx(1.2475935, abs=5e-6)
        assert res.history_norm[-1] < res.tolerance
        assert res.iterations == len(res.history_k)
        # normalized: summed group integrals of the scalar flux equal one
        mesh = build_fine_mesh(pincell.geometry, res.mesh_size)
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

    def test_initialization_independence(self, pincell):
        k_absx = self.run(pincell, initial_source="absx").k_eff
        k_flat = self.run(pincell, initial_source="flat").k_eff
        assert abs(k_absx - k_flat) < 1.0 * PCM

    def test_normalization_off_keeps_k(self, pincell):
        on = self.run(pincell)
        off = self.run(pincell, normalization="none")
        assert on.k_eff == pytest.approx(off.k_eff, abs=1e-12)
        mesh = build_fine_mesh(pincell.geometry, off.mesh_size)
        total = np.sum(off.flux.phi * mesh.widths[:, None])
        assert abs(total - 1.0) > 1e-6

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
        assert res.solver_kind == "sweep"
        assert res.inner_sweeps > res.iterations
        # loose tolerance, loose band around the converged sweep value
        assert res.k_eff == pytest.approx(1.2431, abs=2e-3)

    def test_history_timing_monotone(self, pincell):
        res = self.run(pincell)
        assert np.all(np.diff(res.history_seconds) >= 0.0)
        assert res.timing["setup_seconds"] >= 0.0


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
