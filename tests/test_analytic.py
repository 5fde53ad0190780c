import numpy as np
import pytest

from _helpers import (absorber_problem, absorber_psi, graded_mesh,
                      one_group_material, oracle_fixed_source, random_slab)
from slab_sn import (BoundaryCondition, FineMesh, FixedSourceOperator,
                     GlobalSystem, MaterialXS, MeshAlignmentError,
                     PointOutOfDomainError, SingularSystemError, SlabGeometry,
                     SourceField, SweepOperator, ValidationError,
                     assemble_A, assemble_global_system, block_diagonalize,
                     build_fine_mesh, evaluate_flux, fixed_source_solve,
                     gauss_legendre, mesh_from_edges, select_rows,
                     solve_alpha, solve_fixed_source, sweep_fixed_source)


def spectra_for(geometry, materials, quad, fission_scale=0.0):
    return {name: block_diagonalize(assemble_A(materials[name], quad, fission_scale))
            for name in set(geometry.materials)}


def analytic_setup(geometry, materials, n, m, emission):
    """Solve with an isotropic per-group emission (scalar or per-cell array)."""
    quad = gauss_legendre(n)
    mesh = build_fine_mesh(geometry, m)
    n_groups = materials[geometry.materials[0]].n_groups
    emission = np.broadcast_to(np.asarray(emission, dtype=float).reshape(-1, n_groups)
                               if np.ndim(emission) else
                               np.full((mesh.n_cells, n_groups), emission),
                               (mesh.n_cells, n_groups))
    source = SourceField.isotropic(mesh, emission, quad.n)
    spectra = spectra_for(geometry, materials, quad)
    operator = FixedSourceOperator(geometry, spectra, source.mesh, quad)
    return quad, mesh, operator, solve_fixed_source(operator, source)


class TestSelectRows:
    def test_positive_rows(self, quad2):
        got = select_rows(np.eye(4), quad2, "positive")
        assert np.array_equal(got, np.eye(4)[[1, 3]])

    def test_negative_rows(self, quad2):
        got = select_rows(np.eye(4), quad2, "negative")
        assert np.array_equal(got, np.eye(4)[[0, 2]])

    def test_partition_is_row_permutation(self, quad4, rng):
        m = rng.standard_normal((8, 8))
        stacked = np.vstack([select_rows(m, quad4, "positive"),
                             select_rows(m, quad4, "negative")])
        assert sorted(map(tuple, stacked)) == sorted(map(tuple, m))


class TestGlobalSystem:
    def test_zero_source_gives_zero_alpha(self):
        geo, mats = absorber_problem(sigma_t=0.9, length=3.0)
        quad, mesh, operator, solution = analytic_setup(geo, mats, 4, 12, 0.0)
        for alpha in solution[0]:
            assert np.allclose(alpha, 0.0, atol=1e-14)
        flux = evaluate_flux(operator, solution, [0.3, 1.5, 2.9])
        assert np.allclose(flux.psi, 0.0, atol=1e-14)

    def test_pincell_system_shape_and_sparsity(self, pincell, quad2):
        mesh = build_fine_mesh(pincell.geometry, 70)
        source = SourceField.isotropic(mesh, np.ones((70, 2)), quad2.n)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad2)
        system = assemble_global_system(pincell.geometry, spectra, source, quad2)
        assert system.matrix.shape == (12, 12) and system.rhs.shape == (12,)
        # boundary rows touch only their own region's block column
        assert np.all(system.matrix[:2, 4:] == 0.0)
        assert np.all(system.matrix[2:4, :8] == 0.0)
        # interface rows couple adjacent region blocks only
        assert np.all(system.matrix[4:8, 8:] == 0.0)
        assert np.all(system.matrix[8:12, :4] == 0.0)
        assert np.any(system.matrix[4:8, :8] != 0.0)

    def test_solve_alpha_zero_rhs(self, rng):
        m = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        system = GlobalSystem(matrix=m, rhs=np.zeros(6), ng=3, n_regions=2)
        assert all(np.allclose(a, 0.0) for a in solve_alpha(system))

    def test_solve_alpha_row_permutation_invariant(self, rng):
        m = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        rhs = rng.standard_normal(6)
        perm = rng.permutation(6)
        a1 = solve_alpha(GlobalSystem(m, rhs, 3, 2))
        a2 = solve_alpha(GlobalSystem(m[perm], rhs[perm], 3, 2))
        assert np.allclose(np.concatenate(a1), np.concatenate(a2), rtol=1e-12)

    def test_solve_alpha_singular(self):
        m = np.ones((4, 4))
        with pytest.raises(SingularSystemError):
            solve_alpha(GlobalSystem(m, np.ones(4), 2, 2))


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_absorber_with_constant_source(self, n):
        sigma_t, length, q = 1.3, 4.0, 0.75
        geo, mats = absorber_problem(sigma_t=sigma_t, length=length)
        quad, mesh, operator, solution = analytic_setup(
            geo, mats, n, 10, 2.0 * q)  # emission 2q -> q per ordinate
        xs = np.linspace(0.013, length - 0.013, 40)
        flux = evaluate_flux(operator, solution, xs)
        expected = absorber_psi(xs[:, None], quad.mu[None, :], sigma_t, q, length)
        assert np.max(np.abs(flux.psi - expected)) < 1e-10

    def test_absorber_with_incoming_beam(self):
        sigma_t, length = 0.7, 3.0
        beam = np.array([0.8, 1.2])   # incoming for mu > 0, ascending mu
        geo, mats = absorber_problem(
            sigma_t=sigma_t, length=length,
            bc_left=BoundaryCondition.incoming(beam))
        quad, mesh, operator, solution = analytic_setup(geo, mats, 4, 15, 0.0)
        xs = np.linspace(0.0, length, 31)
        flux = evaluate_flux(operator, solution, xs)
        psi = flux.psi.reshape(xs.size, 1, 4)
        mu_pos = quad.mu[2:]
        expected = beam[None, :] * np.exp(-sigma_t * xs[:, None] / mu_pos[None, :])
        assert np.max(np.abs(psi[:, 0, 2:] - expected)) < 1e-12
        assert np.max(np.abs(psi[:, 0, :2])) < 1e-14

    def test_scalar_flux_consistent_with_weights(self, pincell):
        quad, mesh, operator, solution = analytic_setup(
            pincell.geometry, pincell.materials, 4, 70, 1.0)
        flux = evaluate_flux(operator, solution, mesh.centers[::7])
        psi = flux.psi.reshape(-1, 2, 4)
        assert np.max(np.abs(psi @ quad.weight - flux.phi)) < 1e-12


def pincell_chi_absx_source(pincell, mesh, quad):
    chi = np.vstack([pincell.materials[name].chi for name in pincell.geometry.materials])
    emission = chi[mesh.region_of_cell] * np.abs(mesh.centers)[:, None]
    return SourceField.isotropic(mesh, emission, quad.n)


class TestTransportConsistency:
    def test_interface_continuity(self, pincell):
        quad = gauss_legendre(4)
        mesh = build_fine_mesh(pincell.geometry, 140)
        source = pincell_chi_absx_source(pincell, mesh, quad)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        operator = FixedSourceOperator(pincell.geometry, spectra, source.mesh, quad)
        solution = solve_fixed_source(operator, source)
        eps = 4e-10
        for x in (-15.0, 15.0):
            flux = evaluate_flux(operator, solution, [x, x + eps])
            scale = np.max(np.abs(flux.psi))
            assert np.max(np.abs(flux.psi[1] - flux.psi[0])) <= 1e-8 * scale

    def test_transport_equation_residual_second_order(self, pincell):
        # centered differences of Psi must reproduce A Psi + Theta with
        # second-order step convergence, away from source-cell edges
        quad = gauss_legendre(4)
        mesh = build_fine_mesh(pincell.geometry, 140)
        source = pincell_chi_absx_source(pincell, mesh, quad)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        operator = FixedSourceOperator(pincell.geometry, spectra, source.mesh, quad)
        solution = solve_fixed_source(operator, source)
        a_mats = {name: assemble_A(pincell.materials[name], quad)
                  for name in set(pincell.geometry.materials)}
        cells = [10, 75, 130]
        centers = mesh.centers[cells]
        theta = (source.q[cells] / np.tile(quad.mu, 2)[None, :]).T
        mat_names = [pincell.geometry.materials[r] for r in mesh.region_of_cell[cells]]

        def residual(h):
            worst = 0.0
            for j, x in enumerate(centers):
                vals = evaluate_flux(operator, solution, [x - h, x, x + h]).psi
                deriv = (vals[2] - vals[0]) / (2.0 * h)
                res = deriv - a_mats[mat_names[j]] @ vals[1] - theta[:, j]
                worst = max(worst, np.max(np.abs(res)))
            return worst

        width = mesh.widths[cells[0]]
        r1, r2 = residual(width / 8.0), residual(width / 16.0)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)

    def test_neutron_balance_per_region(self, pincell):
        quad = gauss_legendre(4)
        mesh = build_fine_mesh(pincell.geometry, 280)
        source = pincell_chi_absx_source(pincell, mesh, quad)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        operator = FixedSourceOperator(pincell.geometry, spectra, source.mesh, quad)
        solution = solve_fixed_source(operator, source)
        gl_x, gl_w = np.polynomial.legendre.leggauss(4)
        mu_w = np.tile(quad.mu * quad.weight, 2)
        geo = pincell.geometry
        emission_per_group = source.q[:, ::quad.n] * 2.0
        for r in range(geo.n_regions):
            mat = pincell.materials[geo.materials[r]]
            sigma_a = mat.sigma_t - mat.sigma_s.sum(axis=1)
            cells = mesh.cells_of_region(r)
            # Gauss points per cell for the absorption integral
            mids = mesh.centers[cells]
            half = mesh.widths[cells] / 2.0
            pts = (mids[:, None] + half[:, None] * gl_x[None, :]).ravel()
            wts = (half[:, None] * gl_w[None, :]).ravel()
            phi = evaluate_flux(operator, solution, pts).phi
            absorption = np.sum(wts[:, None] * phi * sigma_a[None, :])
            edges = evaluate_flux(operator, solution,
                                  [geo.edges[r], geo.edges[r + 1]]).psi
            leakage = (edges[1] - edges[0]) @ mu_w
            src = np.sum(emission_per_group[cells] * mesh.widths[cells][:, None])
            assert leakage + absorption == pytest.approx(src, rel=1e-6)

    def test_linearity(self, pincell, rng):
        quad = gauss_legendre(2)
        mesh = build_fine_mesh(pincell.geometry, 70)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        q1 = rng.uniform(0.0, 1.0, size=(70, 4))
        q2 = rng.uniform(0.0, 1.0, size=(70, 4))
        a, b = 2.3, -0.7

        operator = FixedSourceOperator(pincell.geometry, spectra, mesh, quad)

        def solve(q):
            return fixed_source_solve(operator, SourceField(mesh, q)).psi

        combined = solve(a * q1 + b * q2)
        split = a * solve(q1) + b * solve(q2)
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(combined - split)) <= 1e-10 * scale


def mirror_setup(rng):
    """An asymmetric two-region beam-driven problem and its mirror image."""
    beam = np.array([1.0, 0.5])
    mats = {"a": one_group_material("a", sigma_t=1.1, sigma_s=0.3),
            "b": one_group_material("b", sigma_t=0.8, sigma_s=0.6)}
    geo = SlabGeometry(edges=np.array([0.0, 2.0, 5.0]), materials=("a", "b"),
                       bc_left=BoundaryCondition.incoming(beam),
                       bc_right=BoundaryCondition.vacuum())
    mirror_beam = beam[::-1]   # ascending-mu order flips under reflection
    geo_m = SlabGeometry(edges=np.array([-5.0, -2.0, 0.0]), materials=("b", "a"),
                         bc_left=BoundaryCondition.vacuum(),
                         bc_right=BoundaryCondition.incoming(mirror_beam))
    emission = rng.uniform(0.2, 1.0, size=(25, 1))
    return geo, geo_m, mats, emission


class TestSymmetry:
    def test_mirrored_problem_mirrors_fluxes(self, rng):
        geo, geo_m, mats, emission = mirror_setup(rng)
        quad, mesh, op, sol = analytic_setup(geo, mats, 4, 25, emission)
        _, mesh_m, op_m, sol_m = analytic_setup(
            geo_m, mats, 4, 25, emission[::-1])
        xs = np.array([0.1, 0.9, 1.999, 2.0, 3.7, 4.96])
        psi = evaluate_flux(op, sol, xs).psi
        psi_m = evaluate_flux(op_m, sol_m, -xs).psi
        assert np.max(np.abs(psi_m[:, ::-1] - psi)) <= 1e-10 * np.max(np.abs(psi))

    def test_symmetric_problem_self_mirror(self, pincell):
        quad = gauss_legendre(4)
        mesh = build_fine_mesh(pincell.geometry, 140)
        source = pincell_chi_absx_source(pincell, mesh, quad)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        operator = FixedSourceOperator(pincell.geometry, spectra, source.mesh, quad)
        solution = solve_fixed_source(operator, source)
        xs = np.array([-16.2, -9.0, -1.3, 4.4, 12.5])
        psi = evaluate_flux(operator, solution, xs).psi
        psi_r = evaluate_flux(operator, solution, -xs).psi
        flipped = psi_r.reshape(-1, 2, 4)[:, :, ::-1].reshape(-1, 8)
        assert np.max(np.abs(flipped - psi)) <= 1e-8 * np.max(np.abs(psi))

    def test_reflective_half_slab_matches_full(self):
        mats = {"s": one_group_material("s", sigma_t=1.0, sigma_s=0.6)}
        full = SlabGeometry(edges=np.array([-4.0, 4.0]), materials=("s",))
        half = SlabGeometry(edges=np.array([0.0, 4.0]), materials=("s",),
                            bc_left=BoundaryCondition.reflective())
        quad, _, op_full, sol_full = analytic_setup(full, mats, 4, 64, 1.0)
        _, _, op_half, sol_half = analytic_setup(half, mats, 4, 32, 1.0)
        xs = np.array([0.25, 1.75, 3.125])
        psi_full = evaluate_flux(op_full, sol_full, xs).psi
        psi_half = evaluate_flux(op_half, sol_half, xs).psi
        assert np.max(np.abs(psi_full - psi_half)) <= 1e-9 * np.max(np.abs(psi_full))


class TestErrors:
    def test_point_out_of_domain(self):
        geo, mats = absorber_problem()
        quad, mesh, operator, solution = analytic_setup(geo, mats, 2, 8, 1.0)
        with pytest.raises(PointOutOfDomainError):
            evaluate_flux(operator, solution, [-0.5])

    def test_operator_rejects_source_on_another_mesh(self, pincell, quad2):
        spectra = spectra_for(pincell.geometry, pincell.materials, quad2)
        mesh = build_fine_mesh(pincell.geometry, 70)
        operator = FixedSourceOperator(pincell.geometry, spectra, mesh, quad2)
        other = build_fine_mesh(pincell.geometry, 71)
        with pytest.raises(ValidationError, match="mesh"):
            fixed_source_solve(operator, SourceField(other, np.ones((71, 4))))
        # a graded mesh of the same size passes every shape check
        graded = graded_mesh(pincell.geometry, np.bincount(mesh.region_of_cell))
        assert graded.n_cells == mesh.n_cells
        source = SourceField(graded, np.ones((70, 4)))
        with pytest.raises(ValidationError, match="mesh"):
            fixed_source_solve(operator, source)
        sweep = SweepOperator(pincell.geometry, pincell.materials, mesh, quad2)
        with pytest.raises(ValidationError, match="mesh"):
            sweep_fixed_source(sweep, source, 1e-8)

    def test_operator_rejects_interleaved_regions(self, quad2):
        mats = {"a": one_group_material("a", sigma_t=1.0)}
        geo = SlabGeometry(edges=np.array([0.0, 1.0, 2.0]), materials=("a", "a"))
        mesh = FineMesh(edges=np.linspace(0.0, 2.0, 5), region_of_cell=[0, 1, 0, 1])
        with pytest.raises(ValidationError, match="contiguous"):
            FixedSourceOperator(geo, spectra_for(geo, mats, quad2), mesh, quad2)

    def test_mesh_alignment(self, pincell):
        with pytest.raises(MeshAlignmentError):
            mesh_from_edges(np.linspace(-17.5, 17.5, 8), pincell.geometry)

    def test_mesh_from_edges_accepts_aligned(self, pincell):
        edges = np.concatenate([np.linspace(-17.5, -15.0, 3),
                                np.linspace(-15.0, 15.0, 31)[1:],
                                np.linspace(15.0, 17.5, 3)[1:]])
        mesh = mesh_from_edges(edges, pincell.geometry)
        assert mesh.n_cells == 34
        assert np.array_equal(np.unique(mesh.region_of_cell), [0, 1, 2])


def max_rel_diff(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestOperatorEquivalence:
    """FixedSourceOperator against the per-source path it replaced."""

    def test_random_heterogeneous_slabs(self):
        rng = np.random.default_rng(20240127)
        worst = 0.0
        for trial in range(40):
            n_regions = int(rng.integers(1, 9))
            n_groups = int(rng.integers(1, 5))
            quad = gauss_legendre(int(rng.choice([2, 4, 8])))
            geo, mats = random_slab(rng, n_groups, n_regions, quad.n)
            fission_scale = 0.0 if trial % 2 == 0 else float(rng.uniform(0.2, 1.0))
            spectra = spectra_for(geo, mats, quad, fission_scale)
            counts = rng.integers(1, 12, n_regions)
            mesh = (graded_mesh(geo, counts) if trial % 4 >= 2
                    else build_fine_mesh(geo, int(counts.sum())))
            source = SourceField(mesh, rng.uniform(0.0, 1.0, (mesh.n_cells,
                                                             n_groups * quad.n)))
            operator = FixedSourceOperator(geo, spectra, mesh, quad)
            psi = fixed_source_solve(operator, source).psi
            worst = max(worst, max_rel_diff(
                psi, oracle_fixed_source(geo, spectra, source, quad)))
            solution = solve_fixed_source(operator, source)
            points = np.concatenate([rng.uniform(geo.edges[0], geo.edges[-1], 20),
                                     geo.edges])
            psi = evaluate_flux(operator, solution, points).psi
            worst = max(worst, max_rel_diff(
                psi, oracle_fixed_source(geo, spectra, source, quad, points)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("graded", [False, True])
    def test_fine_pincell_mesh_takes_the_shared_path(self, pincell, graded):
        # M = 20000 cells whose widths agree only to ~1e-12 once sent the old
        # code down a per-element loop; every mesh now runs the same scan
        quad = gauss_legendre(2)
        geo = pincell.geometry
        mesh = graded_mesh(geo, (1429, 17142, 1429), ratio=1.0002) if graded \
            else build_fine_mesh(geo, 20000)
        spectra = spectra_for(geo, pincell.materials, quad)
        source = pincell_chi_absx_source(pincell, mesh, quad)
        psi = fixed_source_solve(FixedSourceOperator(geo, spectra, mesh, quad), source).psi
        assert max_rel_diff(psi, oracle_fixed_source(geo, spectra, source, quad)) <= 1e-12
