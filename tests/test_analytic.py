import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from _helpers import (_assemble, _region_works, _solve_alpha, absorber_problem,
                      absorber_psi, graded_mesh, loop_edge_block, loop_factor,
                      loop_rcond, loop_solve, loop_solve_transposed,
                      one_group_material, oracle_fixed_source, power_keff,
                      random_slab, rows_fixed_source, rows_hom, select_rows, source_over_mu,
                      split_geometry)
from slab_sn import recurrence, spectral
from slab_sn.analytic import WIDTH_RTOL, _Group, solve_alpha
from slab_sn.spectral import EXP_ARG_MAX, PHI_TAYLOR_CUT
from slab_sn.recurrence import FirstOrderScan
from slab_sn import (BlockSpectrum, BoundaryCondition, FineMesh, FixedSourceOperator,
                     FluxField, MaterialXS, MeshAlignmentError,
                     PointOutOfDomainError, SingularSystemError, SlabGeometry,
                     SolverConfig, SourceField, SweepOperator, ValidationError,
                     assemble_A, block_diagonalize, build_fine_mesh, build_operator,
                     evaluate_flux, fixed_source_solve, gauss_legendre,
                     mesh_from_edges, power_iteration,
                     solve_fixed_source, source_iteration)


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
    source = SourceField(mesh, emission)
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
        for alpha in solution.coefficients:
            assert np.allclose(alpha, 0.0, atol=1e-14)
        flux = evaluate_flux(operator, solution, [0.3, 1.5, 2.9])
        assert np.allclose(flux.psi, 0.0, atol=1e-14)

    def test_pincell_system_shape_and_sparsity(self, pincell, quad2):
        mesh = build_fine_mesh(pincell.geometry, 70)
        source = SourceField(mesh, np.ones((70, 2)))
        spectra = spectra_for(pincell.geometry, pincell.materials, quad2)
        matrix, rhs = _assemble(_region_works(pincell.geometry, spectra, source, quad2),
                                pincell.geometry, quad2)
        assert matrix.shape == (12, 12) and rhs.shape == (12,)
        # boundary rows touch only their own region's block column
        assert np.all(matrix[:2, 4:] == 0.0)
        assert np.all(matrix[2:4, :8] == 0.0)
        # interface rows couple adjacent region blocks only
        assert np.all(matrix[4:8, 8:] == 0.0)
        assert np.all(matrix[8:12, :4] == 0.0)
        assert np.any(matrix[4:8, :8] != 0.0)
        # the factor holds one step per region column and one coupling
        # block per adjacent pair, and it solves the oracle's system, whose
        # rows run left BC, right BC, interfaces (the factor's: left BC,
        # interfaces, right BC)
        operator = FixedSourceOperator(pincell.geometry, spectra, mesh, quad2)
        factor = operator.factor
        assert factor.step.shape == (2, 6, 6)
        assert factor.coupling.shape == (2, 4, 4) and factor.last.shape == (4, 4)
        rows = np.r_[0:2, 4:12, 2:4]
        got = operator.rhs(operator.particular(source))
        assert np.allclose(got, rhs[rows], rtol=1e-13, atol=1e-15)
        x = np.arange(12.0)
        assert np.allclose(factor.solve(matrix[rows] @ x).ravel(), x, rtol=0.0, atol=1e-12)
        assert np.allclose(factor.solve_transposed(matrix[rows].T @ x), x,
                           rtol=0.0, atol=1e-12)

    def test_solve_alpha_zero_rhs(self, rng):
        m = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        assert all(np.allclose(a, 0.0) for a in _solve_alpha(m, np.zeros(6), 3, 2))

    def test_solve_alpha_row_permutation_invariant(self, rng):
        m = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        rhs = rng.standard_normal(6)
        perm = rng.permutation(6)
        a1 = _solve_alpha(m, rhs, 3, 2)
        a2 = _solve_alpha(m[perm], rhs[perm], 3, 2)
        assert np.allclose(np.concatenate(a1), np.concatenate(a2), rtol=1e-12)

    def test_solve_alpha_singular(self):
        m = np.ones((4, 4))
        with pytest.raises(SingularSystemError):
            _solve_alpha(m, np.ones(4), 2, 2)


def oracle_rcond(geometry, spectra, mesh, quad):
    """Exact reciprocal 1-norm condition number of the dense oracle matrix."""
    n_groups = next(iter(spectra.values())).size // quad.n
    source = SourceField(mesh, np.zeros((mesh.n_cells, n_groups)))
    matrix, _ = _assemble(_region_works(geometry, spectra, source, quad), geometry, quad)
    return 1.0 / np.linalg.cond(matrix, 1)


def reachable_arrays(obj):
    """Every numpy array reachable from obj through attributes, containers
    and array bases."""
    seen, found, stack = set(), [], [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, str, bytes)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
            if item.base is not None:
                stack.append(item.base)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return found


# the analytic S4 pincell eigenvalue to one ulp: k_e bisected until the
# global system of the shifted spectra is as close to singular as it gets
S4_EIGENVALUE = 1.249587586475536


class TestInterfaceFactor:
    """Singularity guard and condition estimate of the factored system."""

    @pytest.mark.parametrize("case", ["zero_column", "reflective_void"])
    def test_structurally_singular_system_raises_at_build(self, case):
        quad = gauss_legendre(2)
        if case == "zero_column":
            # P's second column is zero, so both regions' edge blocks are too
            spec = BlockSpectrum(P=[[1.0, 0.0], [0.0, 0.0]], P_inv=np.eye(2),
                                 rates=[-1.0, 1.0])
            bcs = {}
        else:
            # no interaction, reflective ends: any constant isotropic flux
            # solves the homogeneous problem
            spec = BlockSpectrum(P=np.eye(2), P_inv=np.eye(2), rates=[0.0, 0.0])
            bcs = dict(bc_left=BoundaryCondition.reflective(),
                       bc_right=BoundaryCondition.reflective())
        geo = SlabGeometry(edges=np.array([0.0, 1.0, 2.5]), materials=("m", "m"), **bcs)
        with pytest.raises(SingularSystemError):
            FixedSourceOperator(geo, {"m": spec}, build_fine_mesh(geo, 6), quad)

    @pytest.mark.parametrize("n, ke, split", [
        (2, None, False), (2, 1.3, False), (16, None, False), (16, 1.3, False),
        (64, None, False), (64, 1.3, False), (6, None, True)])
    def test_rcond_estimate_matches_dense_oracle(self, pincell, n, ke, split):
        geo = split_geometry(pincell.geometry, 60, seed=1) if split else pincell.geometry
        quad = gauss_legendre(n)
        spectra = spectra_for(geo, pincell.materials, quad,
                              0.0 if ke is None else 1.0 / ke)
        mesh = build_fine_mesh(geo, 140)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        exact = oracle_rcond(geo, spectra, mesh, quad)
        assert exact / 3.0 <= operator.rcond <= 3.0 * exact

    def test_shift_at_the_eigenvalue_is_near_singular_but_passes(self, pincell):
        # a k_e on the S4 eigenvalue leaves the global system about 1e-12
        # from singular in rcond, above the 1e-14 guard: the operator builds
        # and reports it
        quad = gauss_legendre(4)
        geo = pincell.geometry
        spectra = spectra_for(geo, pincell.materials, quad, 1.0 / S4_EIGENVALUE)
        mesh = build_fine_mesh(geo, 70)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        exact = oracle_rcond(geo, spectra, mesh, quad)
        assert operator.rcond <= 1e-10
        assert exact / 3.0 <= operator.rcond <= 3.0 * exact


class TestHandBuiltOperators:
    """An operator built by hand, not through build_operator's validation,
    still refuses the slab ends and spectra it cannot read."""

    @staticmethod
    def build(solver, geometry, materials, quad, spectra=None):
        mesh = build_fine_mesh(geometry, 70)
        if solver == "sweep":
            return SweepOperator(geometry, materials, mesh, quad)
        spectra = spectra or spectra_for(geometry, materials, quad)
        return FixedSourceOperator(geometry, spectra, mesh, quad)

    @pytest.mark.parametrize("solver", ["analytic", "sweep"])
    @pytest.mark.parametrize("side", ["bc_left", "bc_right"])
    # 1, N G / 4 and N G / 2 - 1 values at S8 with two groups
    @pytest.mark.parametrize("count", [1, 4, 7])
    def test_wrong_length_incoming_end_raises(self, pincell, solver, side, count):
        geo = replace(pincell.geometry, **{side: BoundaryCondition.incoming(np.ones(count))})
        with pytest.raises(ValidationError, match=rf"^{side}: incoming flux must have "
                                                  rf"length N\*G/2 = 8, got {count}$"):
            self.build(solver, geo, pincell.materials, gauss_legendre(8))

    def test_missing_spectrum_raises(self, pincell):
        quad = gauss_legendre(4)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        del spectra["reflector"]
        with pytest.raises(ValidationError, match=r"missing \['reflector'\], sizes \[8\]"):
            self.build("analytic", pincell.geometry, pincell.materials, quad, spectra)

    # the S_N orders of the core's and the reflector's spectra, two groups
    # each, and the operator's quadrature order: mixed sizes, or one size
    # that is not a multiple of N
    @pytest.mark.parametrize("orders, n, sizes", [((4, 2), 4, [4, 8]), ((4, 8), 4, [8, 16]),
                                                  ((2, 2), 8, [4])])
    def test_spectra_of_mixed_or_indivisible_size_raise(self, pincell, orders, n, sizes):
        spectra = {name: block_diagonalize(assemble_A(pincell.materials[name],
                                                      gauss_legendre(order), 0.0))
                   for name, order in zip(("core", "reflector"), orders)}
        with pytest.raises(ValidationError,
                           match=re.escape(f"multiple of N = {n}: missing [], sizes {sizes}")):
            self.build("analytic", pincell.geometry, pincell.materials, gauss_legendre(n),
                       spectra)

    def test_sweep_missing_material_raises(self, pincell):
        materials = {"core": pincell.materials["core"]}
        with pytest.raises(ValidationError, match=r"no region material \['reflector'\]"):
            self.build("sweep", pincell.geometry, materials, gauss_legendre(4))

    def test_sweep_materials_of_mixed_group_counts_raise(self, pincell):
        # a one-group reflector beside the two-group core
        materials = {"core": pincell.materials["core"],
                     "reflector": one_group_material("reflector", sigma_t=1.0, sigma_s=0.5)}
        with pytest.raises(ValidationError,
                           match=re.escape("one group count, got {'reflector': 1, 'core': 2}")):
            self.build("sweep", pincell.geometry, materials, gauss_legendre(4))


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

    @pytest.mark.parametrize("reflective_right", [False, True])
    def test_two_group_absorbers_with_beams_at_both_ends(self, reflective_right):
        # two regions of different two-group pure absorbers and a distinct
        # incoming value on every (group, entering ordinate) of each end,
        # group-major in ascending mu: psi is each beam times the product of
        # the attenuations along its path; a reflective right end sends the
        # left beam back attenuated
        sigma = {"a": np.array([0.9, 0.4]), "b": np.array([0.25, 1.1])}
        mats = {name: MaterialXS(name=name, sigma_t=s, sigma_s=np.zeros((2, 2)),
                                 nu_sigma_f=np.zeros(2), chi=np.zeros(2))
                for name, s in sigma.items()}
        left_beam = np.array([0.8, 1.2, 0.5, 1.7])     # mu > 0
        right_beam = np.array([0.3, 1.4, 0.9, 0.6])    # mu < 0
        geo = SlabGeometry(edges=np.array([0.0, 1.3, 3.0]), materials=("a", "b"),
                           bc_left=BoundaryCondition.incoming(left_beam),
                           bc_right=BoundaryCondition.reflective() if reflective_right
                           else BoundaryCondition.incoming(right_beam))
        quad, mesh, operator, solution = analytic_setup(geo, mats, 4, 12, 0.0)
        xs = np.concatenate([np.linspace(0.0, 3.0, 31), [1.3 - 1e-7, 1.3, 1.3 + 1e-7]])
        psi = evaluate_flux(operator, solution, xs).psi.reshape(xs.size, 2, 4)
        # optical depth (points, G) from the left end, and the slab's
        tau = (np.minimum(xs, 1.3)[:, None] * sigma["a"]
               + np.maximum(xs - 1.3, 0.0)[:, None] * sigma["b"])
        depth = 1.3 * sigma["a"] + 1.7 * sigma["b"]
        mu = quad.mu[2:]
        forward = left_beam.reshape(2, 2) * np.exp(-tau[:, :, None] / mu)
        # entering at the right end, (G, mu < 0 ascending)
        back_in = (left_beam.reshape(2, 2) * np.exp(-depth[:, None] / mu))[:, ::-1] \
            if reflective_right else right_beam.reshape(2, 2)
        backward = back_in * np.exp(-(depth - tau)[:, :, None] / mu[::-1])
        expected = np.concatenate([backward, forward], axis=2)
        assert np.max(np.abs(psi - expected)) <= 1e-12 * np.max(np.abs(psi))

    def test_scalar_flux_consistent_with_weights(self, pincell):
        quad, mesh, operator, solution = analytic_setup(
            pincell.geometry, pincell.materials, 4, 70, 1.0)
        flux = evaluate_flux(operator, solution, mesh.centers[::7])
        psi = flux.psi.reshape(-1, 2, 4)
        assert np.max(np.abs(psi @ quad.weight - flux.phi)) < 1e-12


def pincell_chi_absx_source(pincell, mesh, quad):
    chi = np.vstack([pincell.materials[name].chi for name in pincell.geometry.materials])
    emission = chi[mesh.region_of_cell] * np.abs(mesh.centers)[:, None]
    return SourceField(mesh, emission)


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
        theta = source_over_mu(source, quad, cells)
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
        for r in range(geo.n_regions):
            mat = pincell.materials[geo.materials[r]]
            sigma_a = mat.sigma_t - mat.sigma_s.sum(axis=1)
            cells = np.arange(*mesh.offsets[r:r + 2])
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
            src = np.sum(source.emission[cells] * mesh.widths[cells][:, None])
            assert leakage + absorption == pytest.approx(src, rel=1e-6)

    def test_linearity(self, pincell, rng):
        quad = gauss_legendre(2)
        mesh = build_fine_mesh(pincell.geometry, 70)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        q1 = rng.uniform(0.0, 1.0, size=(70, 2))
        q2 = rng.uniform(0.0, 1.0, size=(70, 2))
        a, b = 2.3, -0.7

        operator = FixedSourceOperator(pincell.geometry, spectra, mesh, quad)

        def solve(q):
            solution = solve_fixed_source(operator, SourceField(mesh, q))
            return evaluate_flux(operator, solution, mesh.centers).psi

        combined = solve(a * q1 + b * q2)
        split = a * solve(q1) + b * solve(q2)
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(combined - split)) <= 1e-10 * scale


class TestPureScatterer:
    """Sigma_s = Sigma_t: nothing is absorbed, so the beam entering at the
    left leaves through the ends alone."""

    @staticmethod
    def setup(bc_right):
        mats = {"scat": one_group_material("scat", sigma_t=1.0, sigma_s=1.0)}
        geo = SlabGeometry(edges=np.array([0.0, 2.0]), materials=("scat",),
                           bc_left=BoundaryCondition.incoming(np.ones(2)), bc_right=bc_right)
        return geo, mats

    @pytest.mark.parametrize("bc_right", ["vacuum", "reflective"])
    def test_inflow_leaves_through_the_ends(self, bc_right):
        geo, mats = self.setup(BoundaryCondition(bc_right))
        quad, _, operator, solution = analytic_setup(geo, mats, 4, 20, 0.0)
        psi = evaluate_flux(operator, solution, [0.0, 2.0]).psi
        assert np.all(np.isfinite(psi))
        current = quad.weight * np.abs(quad.mu)
        inflow = current[2:].sum()
        out_left, out_right = psi[0, :2] @ current[:2], psi[1, 2:] @ current[2:]
        if bc_right == "vacuum":
            assert out_left + out_right == pytest.approx(inflow, rel=1e-13)
        else:
            assert out_left == pytest.approx(inflow, rel=1e-13)
            assert out_right == pytest.approx(psi[1, :2] @ current[:2], rel=1e-13)

    def test_sweep_refuses_it(self):
        geo, mats = self.setup(BoundaryCondition.vacuum())
        config = SolverConfig(sn_order=4, fine_mesh_size=20, solver_kind="sweep")
        with pytest.raises(ValidationError, match="scattering ratio 1.000000 >= 1"):
            build_operator(geo, mats, config)


class TestSeriesLimit:
    """Sigma_s = (1 - eps) Sigma_t: as eps falls the smallest |rate| dx / 2
    crosses PHI_TAYLOR_CUT, and the half-cell integrals switch to their
    series form inside the solve."""

    @pytest.mark.parametrize("eps", [1e-12, 1e-13, 3e-14, 1e-14, 0.0])
    def test_beam_balances_across_the_cut(self, eps):
        mats = {"scat": one_group_material("scat", sigma_t=1.0, sigma_s=1.0 - eps)}
        geo = SlabGeometry(edges=np.array([0.0, 2.0]), materials=("scat",),
                           bc_left=BoundaryCondition.incoming(np.ones(2)),
                           bc_right=BoundaryCondition.vacuum())
        quad, mesh, operator, solution = analytic_setup(geo, mats, 4, 20, 0.0)
        # 8.7e-8 at eps = 1e-12 down to 9.8e-10 at eps = 0: the series form
        # runs from eps = 1e-14 on; at eps = 0 the smallest rates are a
        # complex pair, in a group of their own
        smallest = min(np.min(np.abs(g.rho)) for g in operator.groups) * mesh.widths[0] / 2.0
        assert (smallest < PHI_TAYLOR_CUT) == (eps <= 1e-14)
        flux = operator.flux(solution)
        psi = evaluate_flux(operator, solution, [0.0, 2.0]).psi
        assert np.all(np.isfinite(flux.psi)) and np.all(np.isfinite(psi))
        current = quad.weight * np.abs(quad.mu)
        inflow = current[2:].sum()
        outflow = psi[0, :2] @ current[:2] + psi[1, 2:] @ current[2:]
        absorbed = eps * np.sum(flux.phi[:, 0] * mesh.widths)
        # measured at most 9.0e-10 (eps = 1e-14)
        assert abs(outflow + absorbed - inflow) <= 1e-8 * inflow


class TestThickCells:
    def test_anchoring_keeps_every_exponent_nonpositive(self, pincell, monkeypatch):
        # S64 at M = 4: the core's two 15 cm cells have |Re rate| dx of about
        # 1243, far above EXP_ARG_MAX, and still never reach the guard
        config = replace(pincell.config, sn_order=64, fine_mesh_size=4)
        operator = build_operator(pincell.geometry, pincell.materials, config)
        thickest = max(np.max(np.abs(g.rho.real)) * np.max(operator.mesh.widths[g.cells])
                       for g in operator.groups)
        assert thickest > EXP_ARG_MAX
        seen = []

        def recording(args):
            if args.size:
                seen.append(np.max(args))
            guard(args)

        guard = spectral._guard
        monkeypatch.setattr(spectral, "_guard", recording)
        res = power_iteration(pincell.geometry, pincell.materials, config)
        assert seen and max(seen) <= 0.0
        assert res.k_eff == pytest.approx(1.267749321647703, rel=1e-10)
        assert res.iterations == 2
        assert np.all(np.isfinite(res.flux.psi))


class TestOneCellRegion:
    """The pincell core split at -14.95 cm: a 0.05 cm core sliver of one
    source cell beside the rest of the core."""

    @pytest.mark.parametrize("m, sizes", [(700, [100, 600]), (701, [100, 1, 600])])
    def test_sliver_keeps_the_three_region_k(self, pincell, m, sizes):
        # at M = 700 the sliver's cell has the core's width and joins its
        # group; at M = 701 it does not, and is a group of its own
        geometry = replace(pincell.geometry,
                           edges=np.array([-17.5, -15.0, -14.95, 15.0, 17.5]),
                           materials=("reflector", "core", "core", "reflector"))
        config = replace(pincell.config, sn_order=16, fine_mesh_size=m)
        operator = build_operator(geometry, pincell.materials, config)
        assert [g.cells.size for g in operator.groups] == sizes
        k = power_iteration(geometry, pincell.materials, config).k_eff
        k3 = power_iteration(pincell.geometry, pincell.materials,
                             replace(config, fine_mesh_size=700)).k_eff
        # measured 1.249740335571135 (M = 700) and 1.249740338285186 (M = 701)
        assert k == pytest.approx(k3, rel=1e-8)


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

    def test_points_of_wrong_shape(self):
        geo, mats = absorber_problem()
        quad, mesh, operator, solution = analytic_setup(geo, mats, 2, 8, 1.0)
        with pytest.raises(ValidationError, match=r"shape \(1, 2\)"):
            evaluate_flux(operator, solution, [[0.0, 1.0]])
        # a scalar is one point
        assert evaluate_flux(operator, solution, 1.0).psi.shape == (1, 2)

    def test_operator_rejects_source_on_another_mesh(self, pincell, quad2):
        spectra = spectra_for(pincell.geometry, pincell.materials, quad2)
        mesh = build_fine_mesh(pincell.geometry, 70)
        operator = FixedSourceOperator(pincell.geometry, spectra, mesh, quad2)
        other = build_fine_mesh(pincell.geometry, 71)
        with pytest.raises(ValidationError, match="mesh"):
            fixed_source_solve(operator, SourceField(other, np.ones((71, 2))))
        # a graded mesh of the same size passes every shape check
        graded = graded_mesh(pincell.geometry, np.bincount(mesh.region_of_cell))
        assert graded.n_cells == mesh.n_cells
        source = SourceField(graded, np.ones((70, 2)))
        with pytest.raises(ValidationError, match="mesh"):
            fixed_source_solve(operator, source)
        sweep = SweepOperator(pincell.geometry, pincell.materials, mesh, quad2)
        with pytest.raises(ValidationError, match="mesh"):
            source_iteration(sweep, source, 1e-8)
        # six groups on the operator's mesh, against two
        wrong_groups = SourceField(mesh, np.ones((70, 6)))
        expected = r"expected \(cells, G\) = \(70, 2\)"
        with pytest.raises(ValidationError, match=expected):
            fixed_source_solve(operator, wrong_groups)
        with pytest.raises(ValidationError, match=expected):
            source_iteration(sweep, wrong_groups, 1e-8)

    @pytest.mark.parametrize("other", ["140", "graded"])
    def test_reads_reject_solution_on_another_mesh(self, pincell, other):
        # flux and evaluate_flux check a solution's source as the solve
        # does: the uniform 70-cell operator refuses a 140-cell or a graded
        # 70-cell solution, whose alphas have its shape
        quad = gauss_legendre(8)
        geo = pincell.geometry
        spectra = spectra_for(geo, pincell.materials, quad)
        mesh = build_fine_mesh(geo, 70)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        other_mesh = (build_fine_mesh(geo, 140) if other == "140"
                      else graded_mesh(geo, np.bincount(mesh.region_of_cell)))
        solver = FixedSourceOperator(geo, spectra, other_mesh, quad)
        emission = np.abs(other_mesh.centers)[:, None] * np.ones((1, 2))
        solution = solve_fixed_source(solver, SourceField(other_mesh, emission))
        points = np.linspace(geo.edges[0], geo.edges[-1], 11)
        assert solver.flux(solution).psi.shape == (other_mesh.n_cells, operator.ng)
        assert evaluate_flux(solver, solution, points).psi.shape == (11, operator.ng)
        with pytest.raises(ValidationError, match="another operator"):
            operator.flux(solution)
        with pytest.raises(ValidationError, match="another operator"):
            evaluate_flux(operator, solution, points)

    def test_reads_reject_solution_on_the_same_edges(self, pincell):
        # a split60 solution on the 3-region operator's own 70 mesh edges
        # passes its source check, and its (60, N G) alphas would index
        # through the operator's regions: only the solution's operator
        # tells the two apart
        quad = gauss_legendre(4)
        mesh = build_fine_mesh(pincell.geometry, 70)
        operator = FixedSourceOperator(
            pincell.geometry, spectra_for(pincell.geometry, pincell.materials, quad), mesh, quad)
        split = split_geometry(pincell.geometry, 60, seed=1)
        split_mesh = mesh_from_edges(mesh.edges, split)
        solver = FixedSourceOperator(split, spectra_for(split, pincell.materials, quad),
                                     split_mesh, quad)
        emission = np.abs(split_mesh.centers)[:, None] * np.ones((1, 2))
        solution = solve_fixed_source(solver, SourceField(split_mesh, emission))
        solution.source.require_on(operator.mesh, operator.n_groups)
        assert solution.coefficients.shape == (60, operator.ng)
        points = np.linspace(split.edges[0], split.edges[-1], 11)
        with pytest.raises(ValidationError, match="another operator"):
            operator.flux(solution)
        with pytest.raises(ValidationError, match="another operator"):
            evaluate_flux(operator, solution, points)

    def test_operator_rejects_interleaved_regions(self, quad2):
        # FineMesh owns the region-map rule, so no operator sees this mesh
        with pytest.raises(ValidationError, match="contiguous"):
            FineMesh(edges=np.linspace(0.0, 2.0, 5), region_of_cell=[0, 1, 0, 1])

    # hand-built meshes that do not fit their slab, each refused by both
    # operators with one typed error: on [0, 4] a cell that names no region,
    # two that reach past the slab's ends and one short of its right end;
    # on two regions [0, 1, 2] an interleaved region map and a region that
    # ends off its interface; on [0, 1, 1 + 1e-10, 2] a middle region, thinner
    # than the fit tolerance, that holds no cell
    @pytest.mark.parametrize("kind", ["analytic", "sweep"])
    @pytest.mark.parametrize("slab, edges, region_of_cell, error", [
        ([0.0, 4.0], [0.0, 1.0, 2.0], [0, 1], MeshAlignmentError),
        ([0.0, 4.0], [0.0, 2.0, 4.0, 6.0], [0, 0, 0], MeshAlignmentError),
        ([0.0, 4.0], [-3.0, 1.0, 2.0], [0, 0], MeshAlignmentError),
        ([0.0, 4.0], [0.0, 1.0, 3.0], [0, 0], MeshAlignmentError),
        ([0.0, 1.0, 2.0], np.linspace(0.0, 2.0, 5), [0, 1, 0, 1], ValidationError),
        ([0.0, 1.0, 2.0], [0.0, 0.6, 1.2, 2.0], [0, 0, 1], MeshAlignmentError),
        ([0.0, 1.0, 1.0 + 1e-10, 2.0], [0.0, 1.0, 2.0], [0, 2], MeshAlignmentError),
    ], ids=["no_region", "past_right", "past_left", "short_right", "interleaved",
            "interface_off_edge", "empty_region"])
    def test_operators_reject_mesh_that_does_not_fit(self, quad2, kind, slab, edges,
                                                     region_of_cell, error):
        mats = {"a": one_group_material("a", sigma_t=1.0, sigma_s=0.5)}
        geo = SlabGeometry(edges=np.array(slab), materials=("a",) * (len(slab) - 1))
        with pytest.raises(error):
            mesh = FineMesh(edges=edges, region_of_cell=region_of_cell)
            if kind == "analytic":
                FixedSourceOperator(geo, spectra_for(geo, mats, quad2), mesh, quad2)
            else:
                SweepOperator(geo, mats, mesh, quad2)

    @pytest.mark.parametrize("n_cells", [3, 70, 700, 20000])
    def test_built_meshes_fit(self, pincell, n_cells):
        # at 3 cells the pincell's reflectors keep one cell each
        mesh = build_fine_mesh(pincell.geometry, n_cells)
        mesh.require_fit(pincell.geometry)
        assert np.array_equal(np.unique(mesh.region_of_cell), [0, 1, 2])

    def test_mesh_alignment(self, pincell):
        with pytest.raises(MeshAlignmentError):
            mesh_from_edges(np.linspace(-17.5, 17.5, 8), pincell.geometry)

    def test_fine_mesh_rejects_nan_edge(self):
        with pytest.raises(ValidationError, match="increasing"):
            FineMesh(edges=[0.0, np.nan, 2.0], region_of_cell=[0, 0])

    def test_mesh_from_edges_rejects_nan_edge(self, pincell):
        edges = np.array([-17.5, -15.0, np.nan, 15.0, 17.5])
        with pytest.raises(ValidationError, match="increasing"):
            mesh_from_edges(edges, pincell.geometry)

    def test_nan_point_out_of_domain(self):
        geo, mats = absorber_problem()
        quad, mesh, operator, solution = analytic_setup(geo, mats, 2, 8, 1.0)
        with pytest.raises(PointOutOfDomainError):
            evaluate_flux(operator, solution, [0.5, np.nan])

    def test_mesh_from_edges_accepts_aligned(self, pincell):
        edges = np.concatenate([np.linspace(-17.5, -15.0, 3),
                                np.linspace(-15.0, 15.0, 31)[1:],
                                np.linspace(15.0, 17.5, 3)[1:]])
        mesh = mesh_from_edges(edges, pincell.geometry)
        assert mesh.n_cells == 34
        assert np.array_equal(np.unique(mesh.region_of_cell), [0, 1, 2])


def max_rel_diff(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def assert_factor_matches_loops(operator, source, seed):
    """The stacked edge blocks, the factor's arrays, its rcond, alpha for
    source and the solves with M and M^T of a vector drawn from seed
    equal, bit for bit, what the per-region loops they replaced give
    (tests/_helpers.py)."""
    for group in operator.groups:
        for side in ("left", "right"):
            stacked = group.edge_blocks(side)
            assert stacked.shape[0] == group.regions.size
            for i, block in enumerate(stacked):
                assert np.array_equal(block, loop_edge_block(group, i, side))
    factor = operator.factor
    step, coupling, last, norm = loop_factor(operator)
    assert np.array_equal(factor.step, step)
    assert np.array_equal(factor.coupling, coupling)
    assert np.array_equal(factor.last, last)
    assert operator.rcond == loop_rcond(factor, norm)
    rhs = operator.rhs(operator.particular(source))
    assert np.array_equal(solve_alpha(factor, rhs), loop_solve(factor, rhs))
    b = np.random.default_rng(seed).standard_normal(rhs.size)
    alpha, x = factor.solve(b), factor.solve_transposed(b)
    assert np.array_equal(alpha, loop_solve(factor, b))
    assert np.array_equal(x, loop_solve_transposed(factor, b))
    # every call returns a fresh array: a later solve leaves these alone
    factor.solve(-b)
    factor.solve_transposed(-b)
    assert np.array_equal(alpha, loop_solve(factor, b))
    assert np.array_equal(x, loop_solve_transposed(factor, b))


def random_slab_trial(rng, trial, n_regions, n_materials=None, n_groups=None, order=None):
    """Solve one random slab (graded mesh when trial % 4 >= 2, fission
    folded in on odd trials; 1-4 groups and S2, S4 or S8 unless given) with
    the operator and with the dense oracle.  Returns the operator, the
    slab's spectra and the worst relative differences of (psi at the
    centres and at random points against the oracle, phi from the (blocks,
    G) expansion, FixedSourceOperator.flux, the rows path)."""
    n_groups = int(rng.integers(1, 5)) if n_groups is None else n_groups
    quad = gauss_legendre(int(rng.choice([2, 4, 8])) if order is None else order)
    geo, mats = random_slab(rng, n_groups, n_regions, quad.n, n_materials)
    fission_scale = 0.0 if trial % 2 == 0 else float(rng.uniform(0.2, 1.0))
    spectra = spectra_for(geo, mats, quad, fission_scale)
    counts = rng.integers(1, 12, n_regions)
    mesh = (graded_mesh(geo, counts) if trial % 4 >= 2
            else build_fine_mesh(geo, int(counts.sum())))
    source = SourceField(mesh, rng.uniform(0.0, 1.0, (mesh.n_cells, n_groups)))
    operator = FixedSourceOperator(geo, spectra, mesh, quad)
    assert_factor_matches_loops(operator, source, trial)
    phi, solution = fixed_source_solve(operator, source)
    centres = evaluate_flux(operator, solution, mesh.centers)
    worst = max_rel_diff(centres.psi, oracle_fixed_source(geo, spectra, source, quad))
    # the per-outer scalar flux comes from the (blocks, G) expansion
    worst_phi = max_rel_diff(phi, FluxField.from_psi(mesh.centers, centres.psi, quad).phi)
    # the centre flux read from the stored factors
    flux = operator.flux(solution)
    assert np.array_equal(flux.points, mesh.centers)
    worst_centres = max(max_rel_diff(flux.psi, centres.psi),
                        max_rel_diff(flux.phi, centres.phi))
    points = np.concatenate([rng.uniform(geo.edges[0], geo.edges[-1], 20), geo.edges])
    psi = evaluate_flux(operator, solution, points).psi
    worst = max(worst, max_rel_diff(
        psi, oracle_fixed_source(geo, spectra, source, quad, points)))
    worst_rows = rows_path_error(operator, source, rng)
    return operator, spectra, (worst, worst_phi, worst_centres, worst_rows)


def rows_path_error(operator, source, rng, outers=3):
    """Worst relative difference between the operator's blocked path and
    the rows path it replaced (tests/_helpers.py): phi of outers solves,
    each from the previous one's phi, and then the first solve's psi from
    operator.flux and from evaluate_flux at off-centre points."""
    mesh = operator.mesh
    points = mesh.centers + rng.uniform(-0.45, 0.45, mesh.n_cells) * mesh.widths
    phi_ref, psi_ref, points_ref = rows_fixed_source(operator, source, points)
    phi, solution = fixed_source_solve(operator, source)
    worst = max_rel_diff(phi, phi_ref)
    for _ in range(outers - 1):
        source = SourceField(mesh, np.abs(phi) / np.max(np.abs(phi)))
        phi = fixed_source_solve(operator, source)[0]
        worst = max(worst, max_rel_diff(phi, rows_fixed_source(operator, source, points)[0]))
    return max(worst, max_rel_diff(operator.flux(solution).psi, psi_ref),
               max_rel_diff(evaluate_flux(operator, solution, points).psi, points_ref))


class TestOperatorEquivalence:
    """FixedSourceOperator against the per-source path it replaced."""

    def test_random_heterogeneous_slabs(self):
        rng = np.random.default_rng(20240127)
        worst = np.zeros(4)
        for trial in range(40):
            _, _, errors = random_slab_trial(rng, trial, int(rng.integers(1, 9)))
            worst = np.maximum(worst, errors)
        assert worst[0] <= 1e-12
        assert worst[1] <= 1e-13
        assert worst[2] <= 1e-13
        assert worst[3] <= 1e-13

    def test_random_slabs_sharing_materials(self):
        # regions apart share a material, so groups hold several regions,
        # on uniform meshes (a row per group) and graded ones (a row per cell)
        rng = np.random.default_rng(20261018)
        worst = np.zeros(4)
        grouped, ends, pairs = {False: 0, True: 0}, set(), False
        for trial in range(32):
            operator, spectra, errors = random_slab_trial(
                rng, trial, int(rng.integers(3, 9)), n_materials=int(rng.integers(2, 4)))
            worst = np.maximum(worst, errors)
            graded = trial % 4 >= 2
            grouped[graded] += any(g.regions.size > 1 for g in operator.groups)
            geo = operator.geometry
            ends |= {geo.bc_left.kind, geo.bc_right.kind}
            pairs |= trial % 2 == 1 and any(np.any(s.rates.imag != 0.0)
                                            for s in spectra.values())
        assert grouped[False] >= 8 and grouped[True] >= 8
        assert {"reflective", "incoming"} <= ends and pairs
        assert worst[0] <= 1e-12
        assert worst[1] <= 1e-13
        assert worst[2] <= 1e-13
        assert worst[3] <= 1e-13

    def test_hom_terms_gathered_in_several_passes(self, pincell, monkeypatch):
        # a scan scratch smaller than the core's hom terms gathers them in
        # several passes, with the scalar flux of the one-pass operator
        quad = gauss_legendre(4)
        geo, mesh = pincell.geometry, build_fine_mesh(pincell.geometry, 700)
        spectra = spectra_for(geo, pincell.materials, quad)
        source = pincell_chi_absx_source(pincell, mesh, quad)
        whole, _ = fixed_source_solve(FixedSourceOperator(geo, spectra, mesh, quad), source)
        monkeypatch.setattr(recurrence, "SCAN_CHUNK", 16)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        core = max(operator.groups, key=lambda group: group.cells.size)
        # the scratch's floats hold under a third of the (rows, 2 G) terms
        assert 3 * 2 * core.work[1].size < core.cells.size * 2 * operator.n_groups
        phi, _ = fixed_source_solve(operator, source)
        assert np.array_equal(phi, whole)

    @pytest.mark.parametrize("order, n_groups", [(16, 3), (8, 5)])
    def test_wide_graded_groups(self, order, n_groups):
        # graded groups of N G > 32 complex columns, wider than the random
        # trials' draws reach, scan a row per cell of over 512 bytes
        rng = np.random.default_rng(order * n_groups)
        worst, wide = np.zeros(4), 0
        for trial in (2, 3, 6, 7):
            operator, _, errors = random_slab_trial(rng, trial, 3, n_groups=n_groups, order=order)
            worst = np.maximum(worst, errors)
            wide += sum(g.per_row is not None and g.march.count > 1 for g in operator.groups)
        assert operator.groups[0].rho.size == order * n_groups and wide >= 4
        assert worst[0] <= 1e-12
        assert worst[1] <= 1e-13
        assert worst[2] <= 1e-13
        assert worst[3] <= 1e-13

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
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        psi = evaluate_flux(operator, solve_fixed_source(operator, source), mesh.centers).psi
        assert max_rel_diff(psi, oracle_fixed_source(geo, spectra, source, quad)) <= 1e-12


class TestOuterMemory:
    def finemesh_operator(self, pincell):
        """The S16, M = 20000, k_e = 1.3 operator, its pincell source, and
        the bytes of one (rows, blocks) complex array of the core, over all
        its blocks: those of its real group and of its pair group."""
        quad = gauss_legendre(16)
        geo = pincell.geometry
        mesh = build_fine_mesh(geo, 20000)
        operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad, 1.0 / 1.3),
                                       mesh, quad)
        core = max(operator.groups, key=lambda group: group.cells.size)
        blocks = operator.spectra["core"].rates.size
        assert blocks == sum(g.rho.size for g in operator.groups if g.cells.size == core.cells.size)
        rows_by_blocks = core.cells.size * blocks * np.dtype(complex).itemsize
        assert rows_by_blocks > 8e6
        return operator, pincell_chi_absx_source(pincell, mesh, quad), rows_by_blocks

    def test_fixed_source_solve_forms_no_rows_by_blocks_array(self, pincell):
        # the march, the centre flux and the segment ends stay in each
        # group's workspace: a warm solve allocates far less than one
        # (rows, blocks) complex array of the core group (a path that forms
        # theta and J takes two, 17 MB together, at S16 and M = 20000)
        operator, source, rows_by_blocks = self.finemesh_operator(pincell)
        phi, _ = fixed_source_solve(operator, source)
        tracemalloc.start()
        try:
            warm, _ = fixed_source_solve(operator, source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(warm, phi)
        assert peak < rows_by_blocks / 4

    def test_flux_allocates_about_what_it_returns(self, pincell):
        # the read after a solve marches nothing again and builds Psi a
        # chunk of rows at a time: beyond the (cells, N G) array it returns,
        # it allocates at most a quarter of one (rows, blocks) array
        operator, source, rows_by_blocks = self.finemesh_operator(pincell)
        _, solution = fixed_source_solve(operator, source)
        tracemalloc.start()
        try:
            flux = operator.flux(solution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= flux.psi.nbytes + rows_by_blocks / 4

    def test_scan_scratch_is_bounded(self, pincell):
        # each core group's workspace keeps its iterate, every (row, block)
        # in the group's dtype, and a scratch of at most SCAN_CHUNK rows,
        # not a second (rows, blocks) buffer
        operator, _, rows_by_blocks = self.finemesh_operator(pincell)
        cells = max(group.cells.size for group in operator.groups)
        cores = [group for group in operator.groups if group.cells.size == cells]
        assert [group.dtype for group in cores] == [float, complex]
        for core in cores:
            assert core.work[0].dtype == core.dtype
            assert core.work[0].size >= core.cells.size * core.rho.size
            tracemalloc.start()
            try:
                work = core.march.workspace(core.dtype)
                kept = tracemalloc.get_traced_memory()[1] - work[0].nbytes
            finally:
                tracemalloc.stop()
            assert kept <= rows_by_blocks / 4
            assert core.work[1].shape[1:] == work[1].shape[1:] == core.work[0].shape[1:]

    def test_shared_group_keeps_no_per_cell_table(self, pincell):
        # the homogeneous factors are two power tables of about sqrt(rows)
        # rows: beyond the scan workspace (work and the gathered emission
        # in emitted), its integer index arrays and the mesh's edges, the
        # core group keeps no array with a row per cell and at most an
        # eighth of one (rows, blocks) array in all, where one (rows,
        # blocks) table was kept
        operator, _, rows_by_blocks = self.finemesh_operator(pincell)
        core = max(operator.groups, key=lambda group: group.cells.size)
        assert core.per_row is None and core.mesh_edges is operator.mesh.edges
        kept = [a for name, value in vars(core).items()
                if name not in ("work", "emitted", "mesh_edges")
                for a in (value if isinstance(value, tuple) else (value,))
                if isinstance(a, np.ndarray) and a.dtype.kind in "fc"]
        assert all(len(a) < core.cells.size for a in kept)
        assert sum(a.nbytes for a in kept) <= rows_by_blocks / 8

    def test_eigen_flux_is_the_array_flux_wrote(self, pincell, monkeypatch):
        # power iteration normalizes the one Psi that the operator's flux
        # wrote, in place, and keeps it
        written = []
        flux = FixedSourceOperator.flux
        monkeypatch.setattr(FixedSourceOperator, "flux", lambda operator, *args, **kwargs:
                            written.append(flux(operator, *args, **kwargs)) or written[-1])
        config = replace(pincell.config, solver_kind="analytic", sn_order=16,
                         fine_mesh_size=20000, ke=1.3)
        result = power_iteration(pincell.geometry, pincell.materials, config)
        assert len(written) == 1 and result.flux.psi is written[0].psi
        assert not result.flux.psi.flags.writeable
        widths = build_fine_mesh(pincell.geometry, 20000).widths
        assert np.sum(result.flux.phi * widths[:, None]) == pytest.approx(1.0, rel=1e-14)

    def test_emission_gather_copies_no_index(self, pincell):
        # take copies a read-only index array on every call: 3.6 KB for a
        # pincell S16 group's gather
        quad = gauss_legendre(16)
        geo = pincell.geometry
        mesh = build_fine_mesh(geo, 700)
        operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad), mesh, quad)
        emission = np.ones((mesh.n_cells, 2))
        for group in operator.groups:
            tracemalloc.start()
            try:
                np.take(emission, group.gather, out=group.emitted, mode="clip")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert group.gather.nbytes > 1024 and peak < 1024


def factor_rows(operator):
    """Rows of each group's width-only factors, checked to agree."""
    rows = []
    for group in operator.groups:
        assert group.half.shape == group.phi_half.shape
        # the homogeneous factors: a shared row's p and q hold about
        # sqrt(rows) rows each, a row per cell's p one row per cell
        if group.half.shape[0] == 1:
            bound = np.ceil(np.sqrt(group.cells.size)) + 1
            assert len(group.p) <= bound and len(group.q) <= bound
        else:
            assert len(group.p) == group.cells.size and len(group.q) == 1
        rows.append(group.half.shape[0])
    return rows


def cells_per_material(geometry, mesh):
    """Cell count of each material, in order of first appearance."""
    counts = {}
    for material, m in zip(geometry.materials, np.bincount(mesh.region_of_cell)):
        counts[material] = counts.get(material, 0) + int(m)
    return list(counts.values())


def jittered_mesh(geometry, n_cells, jitter, rng):
    """build_fine_mesh's edges with every edge but the region interfaces
    moved by jitter (a callable of the edges) times a random integer in
    [-3, 3]."""
    edges = build_fine_mesh(geometry, n_cells).edges.copy()
    inner = ~np.isin(edges, geometry.edges)
    edges[inner] += rng.integers(-3, 4, inner.sum()) * jitter(edges[inner])
    return mesh_from_edges(edges, geometry)


class TestWidthFactors:
    """Width-only factors are kept once per group of regions of one material
    whose widths agree."""

    @pytest.mark.parametrize("split, m", [(False, 70), (False, 700), (False, 20000),
                                          (True, 700), (True, 20000)])
    def test_uniform_regions_hold_one_row(self, pincell, split, m):
        geo = split_geometry(pincell.geometry, 60, seed=1) if split else pincell.geometry
        quad = gauss_legendre(2)
        spectra = spectra_for(geo, pincell.materials, quad)
        mesh = build_fine_mesh(geo, m)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        # one group per (material, cell width); at M = 20000 the two water
        # regions hold 1429 and 1428 cells, so their widths differ
        widths = np.diff(geo.edges) / np.bincount(mesh.region_of_cell)
        pairs = set(zip(geo.materials, np.round(widths, 12)))
        assert factor_rows(operator) == [1] * len(pairs)
        assert len(pairs) == 2 if m <= 700 else len(pairs) > 2
        assert sorted(np.concatenate([g.regions for g in operator.groups])) == \
            list(range(geo.n_regions))

    def test_graded_regions_hold_one_row_per_cell(self, pincell):
        quad = gauss_legendre(2)
        geo = pincell.geometry
        spectra = spectra_for(geo, pincell.materials, quad)
        for mesh in (graded_mesh(geo, (5, 60, 5)),
                     graded_mesh(geo, (1429, 17142, 1429), ratio=1.0002)):
            operator = FixedSourceOperator(geo, spectra, mesh, quad)
            assert factor_rows(operator) == cells_per_material(geo, mesh)

    @pytest.mark.parametrize("jitter", ["ulps", "above_threshold"])
    def test_jittered_widths_match_per_cell_oracle(self, pincell, jitter):
        # edges moved by a few ulps still group to one row at the nominal
        # width; moved by multiples of 10 WIDTH_RTOL of the width they keep
        # one row per cell; either way k matches the oracle, which marches
        # every cell's own width
        geo, mats = pincell.geometry, pincell.materials
        grouped = jitter == "ulps"
        # cells are 0.5 cm wide at M = 70
        shift = np.spacing if grouped else lambda x: np.full(x.shape, 5 * WIDTH_RTOL)
        mesh = jittered_mesh(geo, 70, shift, np.random.default_rng(3))
        spread = np.ptp(mesh.widths[mesh.region_of_cell == 1]) / 0.5
        assert 0.0 < spread <= WIDTH_RTOL if grouped else spread > WIDTH_RTOL
        quad = gauss_legendre(4)
        spectra = spectra_for(geo, mats, quad)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        expected = [1, 1] if grouped else cells_per_material(geo, mesh)
        assert factor_rows(operator) == expected
        k = power_keff(lambda src: fixed_source_solve(operator, src)[0], geo, mats, mesh, 50)
        k_oracle = power_keff(
            lambda src: FluxField.from_psi(
                mesh.centers, oracle_fixed_source(geo, spectra, src, quad), quad).phi,
            geo, mats, mesh, 50)
        assert k == pytest.approx(k_oracle, rel=1e-12, abs=0.0)


class TestHomogeneousFactors:
    def test_power_tables_give_exp_at_the_centres(self, pincell):
        # one group of five core regions of 1, 2, 1428, 1429 and 17143
        # cells of one width, shifted so that complex pairs occur: p[i]
        # q[k] at every row equals the per-row exp(rho anchor) at the mesh
        # centres, also where q underflows to zero, with no warning.  The
        # width is a power of two, so that the centres and the anchors
        # taken from them are exact
        counts = np.array([1, 2, 1428, 1429, 17143])
        width = 2.0 ** -8
        edges = np.concatenate([[0.0], np.cumsum(counts) * width])
        geo = replace(pincell.geometry, edges=edges, materials=("core",) * counts.size)
        mesh = mesh_from_edges(np.arange(counts.sum() + 1) * width, geo)
        quad = gauss_legendre(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            operator = FixedSourceOperator(
                geo, spectra_for(geo, pincell.materials, quad, 1.0 / 1.3), mesh, quad)
            groups = operator.groups
            homs = []
            for group in groups:
                pair, i = np.divmod(group.pick, len(group.p))
                homs.append((group.p[i] * group.q[group.pair_k[pair]],
                             rows_hom(group, mesh.centers)))
        # the core's real rates and its complex pairs, each kind a group
        assert [group.dtype for group in groups] == [float, complex]
        assert any(np.any(group.q == 0.0) for group in groups)
        for group, (hom, expected) in zip(groups, homs):
            assert list(group.ends - group.starts) == list(counts)
            assert len(group.p) == len(group.q) == 131
            assert np.max(np.abs(hom - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestBlockKinds:
    """Each group holds one kind of block: the real rates in float64, or
    the complex pairs in complex128."""

    @pytest.mark.parametrize("order, split", [(2, False), (16, False), (64, False), (6, True)])
    def test_unshifted_groups_hold_no_complex_array(self, pincell, order, split):
        geo = split_geometry(pincell.geometry, 60, seed=1) if split else pincell.geometry
        config = replace(pincell.config, solver_kind="analytic", sn_order=order,
                         fine_mesh_size=700)
        operator = build_operator(geo, pincell.materials, config)
        # water and core, real rates only
        assert len(operator.groups) == 2
        for group in operator.groups:
            assert group.dtype is float
            assert not any(np.iscomplexobj(a) for a in reachable_arrays(group))

    def test_shifted_core_keeps_one_pair_group(self, pincell):
        config = replace(pincell.config, solver_kind="analytic", sn_order=16,
                         fine_mesh_size=700, ke=1.3)
        operator = build_operator(pincell.geometry, pincell.materials, config)
        core = [group for group in operator.groups if 1 in group.regions]
        assert [(group.dtype, group.rho.size) for group in core] == [(float, 30), (complex, 1)]
        assert not any(np.iscomplexobj(a) for a in reachable_arrays(core[0]))
        assert all(group.dtype is float for group in operator.groups if 1 not in group.regions)

    @pytest.mark.parametrize("cells", [140, 3, (1, 2, 1, 2, 1, 2)])
    def test_pair_group_flux_matches_the_dense_oracle(self, pincell, cells):
        # every group adds its share of phi and of psi at the points: the
        # core's pair group alone, or its real group alone, is far from the
        # oracle.  At 3 cells, and with regions of 1 and 2 cells, a
        # shared-width pair group's scan scratch holds fewer floats than one
        # row of its 2 G hom terms
        quad = gauss_legendre(8)
        if isinstance(cells, tuple):
            geo = split_geometry(pincell.geometry, len(cells), seed=1)
            mesh = graded_mesh(geo, cells, ratio=1.0)
        else:
            geo = pincell.geometry
            mesh = build_fine_mesh(geo, cells)
        spectra = spectra_for(geo, pincell.materials, quad, 1.0 / 1.3)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        pairs = [group for group in operator.groups if group.dtype is complex]
        narrow = min(group.work[1].size for group in pairs) * 2 < 2 * operator.n_groups
        assert narrow == (cells != 140)
        source = SourceField(mesh, np.ones((mesh.n_cells, 2)))
        phi, solution = fixed_source_solve(operator, source)
        points = np.concatenate([mesh.centers, geo.edges, np.linspace(-17.4, 17.4, 61)])
        psi = evaluate_flux(operator, solution, points).psi
        expected = oracle_fixed_source(geo, spectra, source, quad, points)
        assert max_rel_diff(psi, expected) <= 1e-12
        centres = FluxField.from_psi(mesh.centers, expected[:mesh.n_cells], quad)
        assert max_rel_diff(phi, centres.phi) <= 1e-12

    def test_centres_into_refuses_a_strided_out(self, pincell):
        # a shared row adds to out through a flat view, which reshape would
        # silently make a copy of for a transposed out
        quad = gauss_legendre(4)
        mesh = build_fine_mesh(pincell.geometry, 70)
        operator = FixedSourceOperator(pincell.geometry,
                                       spectra_for(pincell.geometry, pincell.materials, quad),
                                       mesh, quad)
        source = SourceField(mesh, np.ones((70, 2)))
        solution = solve_fixed_source(operator, source)
        out = np.zeros((2, 70)).T
        with pytest.raises(ValidationError, match="C-contiguous"):
            operator.groups[0].centres_into(solution.coefficients, source.emission, out)
        assert not out.any()


def pincell_lattice(pincell, rng, n_pins=20):
    """n_pins pincells in a row, each water | core | water with its own
    widths, the second half mirroring the first about x = 0 (3 n_pins
    regions), and a mesh of cells about 0.25 cm wide, mirrored too."""
    water, core = pincell.geometry.materials[:2]
    pins = [(rng.uniform(0.2, 0.6), rng.uniform(0.8, 1.6), rng.uniform(0.2, 0.6))
            for _ in range(n_pins // 2)]
    widths = np.concatenate([np.ravel(pins), np.ravel(pins)[::-1]])
    edges = np.concatenate([[0.0], np.cumsum(widths)]) - widths.sum() / 2.0
    geo = replace(pincell.geometry, edges=edges, materials=(water, core, water) * n_pins)
    mesh_edges = [edges[:1]] + [np.linspace(x0, x1, int(np.ceil((x1 - x0) / 0.25)) + 1)[1:]
                                for x0, x1 in zip(edges[:-1], edges[1:])]
    return geo, mesh_from_edges(np.concatenate(mesh_edges), geo)


class TestRegionCount:
    """Cost and answers as the number of regions grows."""

    @pytest.mark.parametrize("ke", [None, 1.3])
    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_region_split_leaves_k_unchanged(self, pincell, n, ke):
        # cutting a homogeneous region changes nothing the analytic solution
        # sees, so the 60-region cut must give the 3-region k and outer count
        config = replace(pincell.config, solver_kind="analytic", sn_order=n,
                         fine_mesh_size=700, ke=ke)
        split = split_geometry(pincell.geometry, 60, seed=1)
        assert np.allclose(build_fine_mesh(split, 700).edges,
                           build_fine_mesh(pincell.geometry, 700).edges, rtol=0.0, atol=1e-12)
        whole = power_iteration(pincell.geometry, pincell.materials, config)
        cut = power_iteration(split, pincell.materials, config)
        assert cut.iterations == whole.iterations
        assert cut.k_eff == pytest.approx(whole.k_eff, rel=1e-12, abs=0.0)

    def test_one_scan_per_group_not_per_region(self, pincell, monkeypatch):
        # split60's 60 regions fall into two groups (water, core): one
        # fixed-source solve scans each group once, in its workspace
        quad = gauss_legendre(6)
        geo = split_geometry(pincell.geometry, 60, seed=1)
        mesh = build_fine_mesh(geo, 700)
        operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad), mesh, quad)
        assert len(operator.groups) == 2
        calls = []
        call = FirstOrderScan.in_place
        monkeypatch.setattr(FirstOrderScan, "in_place",
                            lambda scan, work: calls.append(scan) or call(scan, work))
        fixed_source_solve(operator, pincell_chi_absx_source(replace(pincell, geometry=geo),
                                                             mesh, quad))
        assert len(calls) == 2
        assert {id(scan) for scan in calls} == {id(g.march) for g in operator.groups}

    def test_points_evaluated_once_per_group(self, pincell, monkeypatch):
        # evaluate_flux takes each group's points in one call (101 points,
        # fewer than EVAL_CHUNK), not one call per region, and matches the
        # per-region rows path at interface and off-grid points
        quad = gauss_legendre(6)
        geo = split_geometry(pincell.geometry, 60, seed=1)
        mesh = build_fine_mesh(geo, 700)
        operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad), mesh, quad)
        source = pincell_chi_absx_source(replace(pincell, geometry=geo), mesh, quad)
        rng = np.random.default_rng(5)
        points = np.concatenate([geo.edges, rng.uniform(geo.edges[0], geo.edges[-1], 40)])
        assert points.size == 101
        calls = []
        psi_at = _Group.psi_at
        monkeypatch.setattr(_Group, "psi_at",
                            lambda group, *args: calls.append(group) or psi_at(group, *args))
        psi = evaluate_flux(operator, solve_fixed_source(operator, source), points).psi
        assert len(calls) == len(operator.groups)
        assert {id(group) for group in calls} == {id(group) for group in operator.groups}
        assert max_rel_diff(psi, rows_fixed_source(operator, source, points)[2]) <= 1e-13

    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("kind", ["analytic", "sweep"])
    def test_solution_outlives_the_next_solve(self, pincell, kind, graded, monkeypatch):
        # a solution keeps its operator, coefficients (alphas, or the
        # sweep's blocked psi) and source: the flux read from it after the
        # operator has solved another source equals, bit for bit, the flux
        # read right after its own solve, which marches nothing again
        calls = []
        call = FirstOrderScan.in_place
        monkeypatch.setattr(FirstOrderScan, "in_place",
                            lambda scan, work: calls.append(scan) or call(scan, work))
        quad = gauss_legendre(6)
        geo = split_geometry(pincell.geometry, 60, seed=1)
        mesh = graded_mesh(geo, np.full(60, 12)) if graded else build_fine_mesh(geo, 700)
        source = pincell_chi_absx_source(replace(pincell, geometry=geo), mesh, quad)
        rng = np.random.default_rng(3)
        other = SourceField(mesh, rng.uniform(0.0, 1.0, source.emission.shape))
        points = np.linspace(geo.edges[0], geo.edges[-1], 101)
        if kind == "sweep":
            operator = SweepOperator(geo, pincell.materials, mesh, quad)
            solution = source_iteration(operator, source, 1e-8)[1]
            shape = operator.work[0].shape
            flux = operator.flux(solution)
            source_iteration(operator, other, 1e-8)
        else:
            operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad),
                                           mesh, quad)
            solution = solve_fixed_source(operator, source)
            shape = (geo.n_regions, operator.ng)
            marches = len(calls)
            flux, at_points = operator.flux(solution), evaluate_flux(operator, solution, points)
            assert len(calls) == marches
            fixed_source_solve(operator, other)
            assert np.array_equal(evaluate_flux(operator, solution, points).psi, at_points.psi)
        assert solution.operator is operator and solution.source is source
        assert solution.coefficients.shape == shape
        assert (solution.sweeps > 0) == (kind == "sweep")
        assert np.array_equal(operator.flux(solution).psi, flux.psi)
        # an eigenvalue run scans once a group and outer (a sweep once a
        # sweep): its final flux reads the last outer's march
        config = replace(pincell.config, solver_kind=kind, sn_order=4, fine_mesh_size=70)
        calls.clear()
        result = power_iteration(pincell.geometry, pincell.materials, config)
        # the analytic operator's two groups, water and core
        assert len({id(scan) for scan in calls}) == (1 if kind == "sweep" else 2)
        assert len(calls) == (result.inner_sweeps if kind == "sweep" else 2 * result.iterations)

    def test_interrupted_march_leaves_no_record(self, pincell, monkeypatch):
        # a march that raises after the first group has scanned another
        # source leaves no record of a source, so the next read marches the
        # solution's source again
        quad = gauss_legendre(4)
        geo = pincell.geometry
        mesh = build_fine_mesh(geo, 70)
        operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad), mesh, quad)
        source = pincell_chi_absx_source(pincell, mesh, quad)
        solution = solve_fixed_source(operator, source)
        flux = operator.flux(solution)
        other = SourceField(mesh, np.random.default_rng(4).uniform(0.0, 1.0, (70, 2)))
        call = FirstOrderScan.in_place

        def interrupted(scan, work):
            call(scan, work)
            if scan is operator.groups[0].march:
                raise KeyboardInterrupt

        monkeypatch.setattr(FirstOrderScan, "in_place", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fixed_source_solve(operator, other)
        monkeypatch.setattr(FirstOrderScan, "in_place", call)
        assert operator.marched is None
        assert np.array_equal(operator.flux(solution).psi, flux.psi)
        assert operator.marched is source

    def test_heterogeneous_lattice_matches_dense_oracle(self, pincell):
        geo, mesh = pincell_lattice(pincell, np.random.default_rng(7))
        assert geo.n_regions == 60
        quad = gauss_legendre(8)
        spectra = spectra_for(geo, pincell.materials, quad)
        source = pincell_chi_absx_source(replace(pincell, geometry=geo), mesh, quad)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        phi, solution = fixed_source_solve(operator, source)
        psi = evaluate_flux(operator, solution, mesh.centers).psi
        assert max_rel_diff(psi, oracle_fixed_source(geo, spectra, source, quad)) <= 1e-12
        # geometry, mesh and source are mirror-symmetric about x = 0
        assert max_rel_diff(phi[::-1], phi) <= 1e-10

    @pytest.mark.parametrize("ke", [None, 1.3])
    @pytest.mark.parametrize("n", [2, 6, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_split_matches_the_loops(self, pincell, seed, n, ke):
        quad = gauss_legendre(n)
        geo = split_geometry(pincell.geometry, 60, seed=seed)
        mesh = build_fine_mesh(geo, 700)
        spectra = spectra_for(geo, pincell.materials, quad, 0.0 if ke is None else 1.0 / ke)
        operator = FixedSourceOperator(geo, spectra, mesh, quad)
        assert operator.factor.n_regions == 60
        source = pincell_chi_absx_source(replace(pincell, geometry=geo), mesh, quad)
        assert_factor_matches_loops(operator, source, seed)

    def test_lattice_matches_the_loops(self, pincell):
        geo, mesh = pincell_lattice(pincell, np.random.default_rng(7))
        quad = gauss_legendre(8)
        operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad),
                                       mesh, quad)
        source = pincell_chi_absx_source(replace(pincell, geometry=geo), mesh, quad)
        assert_factor_matches_loops(operator, source, 7)

    def test_solve_allocates_only_its_result(self, pincell):
        # both passes of either solve run in place on the factor's one
        # kept buffer, so a call allocates its result and nothing else
        quad = gauss_legendre(6)
        geo = split_geometry(pincell.geometry, 60, seed=1)
        operator = FixedSourceOperator(geo, spectra_for(geo, pincell.materials, quad),
                                       build_fine_mesh(geo, 700), quad)
        factor = operator.factor
        rhs = np.random.default_rng(1).standard_normal(60 * operator.ng)
        for solve, loop in ((factor.solve, loop_solve),
                            (factor.solve_transposed, loop_solve_transposed)):
            expected = loop(factor, rhs)
            tracemalloc.start()
            try:
                result = solve(rhs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(result, expected)
            assert peak < 2 * result.nbytes

    def test_factor_memory_grows_linearly_in_region_count(self, pincell):
        quad = gauss_legendre(8)
        spectra = spectra_for(pincell.geometry, pincell.materials, quad)
        held = {}
        for n_regions in (30, 120):
            geo = split_geometry(pincell.geometry, n_regions, seed=1, grid=0.25)
            operator = FixedSourceOperator(geo, spectra, build_fine_mesh(geo, 140), quad)
            held[n_regions] = sum(a.nbytes for a in reachable_arrays(operator.factor))
            # nothing the size of the dense (N G R)^2 matrix is kept
            dense = (operator.ng * n_regions) ** 2
            assert max(a.size for a in reachable_arrays(operator)) < dense
        assert held[120] <= 4.4 * held[30]
