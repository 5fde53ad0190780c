import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _helpers import (absorber_problem, cell_sigma_t, graded_mesh,
                      one_group_material, oracle_source_iteration,
                      per_ordinate_source_iteration, random_slab, scan, sweep_once)
from slab_sn import (BoundaryCondition, FineMesh, FixedSourceOperator,
                     MaxInnerIterationsError, SlabGeometry, SourceField,
                     SweepOperator, ValidationError, assemble_A,
                     block_diagonalize, build_fine_mesh, evaluate_flux,
                     gauss_legendre, power_iteration, solve_fixed_source,
                     source_iteration)
from slab_sn.recurrence import FirstOrderScan


def simple_sweep_mesh(geometry, materials, n_cells, quad, q_value=0.0):
    """(mesh, per-cell sigma_t, constant per-ordinate source q)."""
    mesh = build_fine_mesh(geometry, n_cells)
    g = materials[geometry.materials[0]].n_groups
    q = np.full((n_cells, g * quad.n), q_value)
    return mesh, cell_sigma_t(geometry, materials, mesh), q


def constant(mesh, value, n_groups=1):
    """A SourceField of one emission density on every cell and group."""
    return SourceField(mesh, np.full((mesh.n_cells, n_groups), value))


def scan_order_sweep(geometry, materials, mesh, quad, scheme, emission, out):
    """One sweep the way the unblocked operator made it: half the emission
    repeated over the ordinates in scan order (mu < 0 columns in reversed
    cell order), times s, one FirstOrderScan over (cells, G, N) rows, and
    the weighted halves summed to the scalar flux; scheme "diamond" takes
    the face means as the cell averages.  Returns the angular
    flux (cells, G N) in cell order, the scalar flux (cells, G) and the
    outgoing face fluxes (G, N)."""
    h = quad.n // 2

    def scan_order(x):
        return np.concatenate([x[::-1, :, :h], x[:, :, h:]], axis=2)

    def incoming(bc, outgoing):
        if bc.kind == "reflective":
            return outgoing[:, ::-1]
        return np.reshape(bc.values, (-1, h)) if bc.kind == "incoming" else 0.0 * outgoing

    face = 1.0 if scheme == "step" else 2.0
    c = face * np.abs(quad.mu)[None, None, :] / mesh.widths[:, None, None]
    denom = c + cell_sigma_t(geometry, materials, mesh)[:, :, None]
    coef = c / denom
    a, s = (coef, 1.0 / denom) if scheme == "step" else (2.0 * coef - 1.0, 2.0 / denom)
    a, s = scan_order(a), scan_order(s)
    q = emission / 2.0
    b = np.repeat(np.stack([q[::-1], q], axis=2), h, axis=2) * s
    f_in = np.concatenate([incoming(geometry.bc_right, out[:, h:]),
                           incoming(geometry.bc_left, out[:, :h])], axis=1)
    b[0] += a[0] * f_in
    f = scan(FirstOrderScan(a), b)
    psi = f
    if scheme == "diamond":
        psi = np.empty_like(f)
        np.add(f[1:], f[:-1], out=psi[1:])
        np.add(f[0], f_in, out=psi[0])
        psi *= 0.5
    weights = np.zeros((quad.n, 2))
    weights[:h, 0], weights[h:, 1] = quad.weight[:h], quad.weight[h:]
    m, g, n = f.shape
    halves = (psi.reshape(m * g, n) @ weights).reshape(m, g, 2)
    return (scan_order(psi).reshape(m, g * n), halves[::-1, :, 0] + halves[:, :, 1],
            f[-1])


class TestSweepOnce:
    def test_single_cell_closure(self, quad2):
        geo, mats = absorber_problem(sigma_t=1.0, length=1.0)
        mesh, sigma_t, q = simple_sweep_mesh(geo, mats, 1, quad2)
        flux, out_left, out_right = sweep_once(mesh, sigma_t, q, quad2, [1.0], [0.0])
        mu = quad2.mu[1]
        assert flux[0, 1] == pytest.approx(mu / (mu + 1.0), rel=1e-14)
        assert out_right[0] == pytest.approx(mu / (mu + 1.0), rel=1e-14)
        assert flux[0, 0] == 0.0 and out_left[0] == 0.0

    def test_zero_source_vacuum_is_zero(self, quad4):
        geo, mats = absorber_problem(sigma_t=0.5, length=2.0)
        mesh, sigma_t, q = simple_sweep_mesh(geo, mats, 10, quad4)
        flux, out_left, out_right = sweep_once(mesh, sigma_t, q, quad4, np.zeros(2),
                                               np.zeros(2))
        assert np.all(flux == 0.0) and np.all(out_left == 0.0) and np.all(out_right == 0.0)

    def test_discrete_balance_per_cell(self, quad4, rng):
        # |mu| (psi_out - psi_in) + sigma_t dx psi_c == dx q to round-off
        mats = {"m": one_group_material("m", sigma_t=1.3)}
        geo = SlabGeometry(edges=np.array([0.0, 3.0]), materials=("m",))
        mesh = build_fine_mesh(geo, 7)
        q = rng.uniform(0.0, 2.0, size=(7, 4))
        inc_l = rng.uniform(0.0, 1.0, 2)
        inc_r = rng.uniform(0.0, 1.0, 2)
        flux, _, _ = sweep_once(mesh, cell_sigma_t(geo, mats, mesh), q, quad4, inc_l, inc_r)
        dx = mesh.widths
        for j, mu in enumerate(quad4.mu):
            order = range(7) if mu > 0 else range(6, -1, -1)
            psi_in = inc_l[j - 2] if mu > 0 else inc_r[j]
            for m in order:
                psi_c = flux[m, j]
                lhs = abs(mu) * (psi_c - psi_in) + 1.3 * dx[m] * psi_c
                assert lhs == pytest.approx(dx[m] * q[m, j], rel=1e-12, abs=1e-13)
                psi_in = psi_c

    def test_rejects_unknown_scheme(self, quad2):
        geo, mats = absorber_problem()
        mesh, sigma_t, q = simple_sweep_mesh(geo, mats, 4, quad2)
        with pytest.raises(ValidationError):
            sweep_once(mesh, sigma_t, q, quad2, [0.0], [0.0], scheme="upstream")


def absorber_cell_average(edges, mu, sigma_t, q):
    """Exact cell-average of the absorber solution for mu > 0."""
    x0, x1 = edges[:-1], edges[1:]
    dx = x1 - x0
    integral = (q / sigma_t) * (dx + (mu / sigma_t)
                                * (np.exp(-sigma_t * x1 / mu) - np.exp(-sigma_t * x0 / mu)))
    return integral / dx


class TestSchemeAccuracy:
    @pytest.mark.parametrize("scheme,order", [("step", 1), ("diamond", 2)])
    def test_absorber_convergence_order(self, quad2, scheme, order):
        sigma_t, length, q = 1.0, 2.0, 0.5
        geo, mats = absorber_problem(sigma_t=sigma_t, length=length)
        errs = []
        for n_cells in (20, 40):
            mesh, sigma_t, q_cells = simple_sweep_mesh(geo, mats, n_cells, quad2, q)
            flux, _, _ = sweep_once(mesh, sigma_t, q_cells, quad2, [0.0], [0.0],
                                    scheme=scheme)
            exact = absorber_cell_average(mesh.edges, quad2.mu[1], sigma_t, q)
            errs.append(np.max(np.abs(flux[:, 1] - exact)))
        assert errs[0] / errs[1] == pytest.approx(2.0 ** order, rel=0.25)


class TestSourceIteration:
    def test_no_scattering_converges_in_one_sweep(self, quad2):
        geo, mats = absorber_problem(sigma_t=1.0, length=2.0)
        mesh = build_fine_mesh(geo, 10)
        operator = SweepOperator(geo, mats, mesh, quad2)
        _, psi, sweeps = source_iteration(operator, constant(mesh, 0.6), 1e-8)
        assert sweeps == 1
        assert np.all(operator.flux(psi).psi[:, 1] > 0.0)

    def test_iterations_grow_with_scattering_ratio(self, quad2):
        counts = []
        for c in (0.3, 0.6, 0.9):
            mats = {"s": one_group_material("s", sigma_t=1.0, sigma_s=c)}
            geo = SlabGeometry(edges=np.array([0.0, 6.0]), materials=("s",))
            mesh = build_fine_mesh(geo, 60)
            operator = SweepOperator(geo, {"s": mats["s"]}, mesh, quad2)
            _, _, sweeps = source_iteration(operator, constant(mesh, 2.0), 1e-7)
            counts.append(sweeps)
        assert counts[0] < counts[1] < counts[2]

    def test_contraction_rate_tracks_scattering_ratio(self, quad2):
        c = 0.8
        mats = {"s": one_group_material("s", sigma_t=1.0, sigma_s=c)}
        geo = SlabGeometry(edges=np.array([0.0, 50.0]), materials=("s",))
        mesh = build_fine_mesh(geo, 100)
        q = np.full((100, 2), 1.0)
        # drive single sweeps by hand and watch the change norms contract
        flux = np.zeros((100, 2))
        phi = np.zeros(100)
        changes = []
        for _ in range(40):
            q_total = q + np.repeat(c * phi[:, None] / 2.0, 2, axis=1)
            flux, _, _ = sweep_once(mesh, cell_sigma_t(geo, mats, mesh), q_total,
                                    quad2, [0.0], [0.0])
            phi_new = flux.reshape(100, 1, 2) @ quad2.weight
            phi_new = phi_new[:, 0]
            changes.append(np.linalg.norm(phi_new - phi))
            phi = phi_new
        ratios = np.array(changes[-5:]) / np.array(changes[-6:-1])
        # thick scattering slab: asymptotic rate just below the scattering ratio
        assert np.all(ratios < c + 0.02)
        assert ratios[-1] > 0.5 * c

    def test_reflector_slab_converges(self, pincell, quad2):
        refl = pincell.materials["reflector"]
        geo = SlabGeometry(edges=np.array([0.0, 2.5]), materials=("reflector",))
        mesh = build_fine_mesh(geo, 50)
        operator = SweepOperator(geo, {"reflector": refl}, mesh, quad2)
        phi, psi, sweeps = source_iteration(operator, constant(mesh, 2.0, 2), 1e-7)
        assert sweeps > 1 and np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))

    def test_max_inner_iterations(self, quad2):
        mats = {"s": one_group_material("s", sigma_t=1.0, sigma_s=0.999)}
        geo = SlabGeometry(edges=np.array([0.0, 40.0]), materials=("s",))
        mesh = build_fine_mesh(geo, 40)
        with pytest.raises(MaxInnerIterationsError):
            source_iteration(SweepOperator(geo, mats, mesh, quad2), constant(mesh, 2.0),
                             1e-12, max_inner=5)

    def test_rejects_scattering_ratio_of_one(self, quad2):
        mats = {"s": one_group_material("s", sigma_t=1.0, sigma_s=1.0)}
        geo = SlabGeometry(edges=np.array([0.0, 1.0]), materials=("s",))
        mesh = build_fine_mesh(geo, 4)
        with pytest.raises(ValidationError, match="ratio"):
            source_iteration(SweepOperator(geo, mats, mesh, quad2), constant(mesh, 2.0), 1e-6)

    def test_shift_folds_fission_into_source(self, pincell, quad2):
        # a weak shift keeps every folded scattering ratio below one
        core = pincell.materials["core"]
        geo = SlabGeometry(edges=np.array([0.0, 5.0]), materials=("core",))
        mesh = build_fine_mesh(geo, 25)
        source = constant(mesh, 0.4, 2)
        flux_plain, _, _ = source_iteration(
            SweepOperator(geo, {"core": core}, mesh, quad2), source, 1e-9)
        flux_shift, _, _ = source_iteration(
            SweepOperator(geo, {"core": core}, mesh, quad2, ke=5.0), source, 1e-9)
        # folded fission production must increase the flux
        assert flux_shift.sum() > flux_plain.sum()

    def test_strong_shift_rejected_when_ratio_exceeds_one(self, pincell, quad2):
        # folding chi nu-fission / 1.3 into the core pushes the thermal
        # column past one; the precondition guard must catch it
        core = pincell.materials["core"]
        geo = SlabGeometry(edges=np.array([0.0, 5.0]), materials=("core",))
        mesh = build_fine_mesh(geo, 25)
        with pytest.raises(ValidationError, match="ratio"):
            source_iteration(SweepOperator(geo, {"core": core}, mesh, quad2, ke=1.3),
                             constant(mesh, 0.4, 2), 1e-9)

    def test_reflective_half_slab_matches_full(self, quad4):
        mats = {"s": one_group_material("s", sigma_t=1.0, sigma_s=0.6)}
        full = SlabGeometry(edges=np.array([-4.0, 4.0]), materials=("s",))
        half = SlabGeometry(edges=np.array([0.0, 4.0]), materials=("s",),
                            bc_left=BoundaryCondition.reflective())
        mesh_f = build_fine_mesh(full, 64)
        mesh_h = build_fine_mesh(half, 32)
        op_f = SweepOperator(full, mats, mesh_f, quad4)
        op_h = SweepOperator(half, mats, mesh_h, quad4)
        flux_f = op_f.flux(source_iteration(op_f, constant(mesh_f, 1.0), 1e-11)[1]).psi
        flux_h = op_h.flux(source_iteration(op_h, constant(mesh_h, 1.0), 1e-11)[1]).psi
        assert np.allclose(flux_h, flux_f[32:], atol=1e-8 * flux_f.max())


class TestNearCritical:
    """A scattering ratio 1 - eps, from scattering alone or with fission
    folded in under a shift (sigma_s = nu sigma_f = 0.5, k_e = 0.5 / (0.5 - eps)):
    one group, sigma_t = 1, a unit source in a 2 cm slab, S4, M = 20."""

    @staticmethod
    def solve(quad, eps, ends, folded):
        """(phi, flux, sweeps, absorption rate over the slab)."""
        if folded:
            mat = one_group_material("m", sigma_t=1.0, sigma_s=0.5, nu_sigma_f=0.5)
            ke = 0.5 / (0.5 - eps)
        else:
            mat, ke = one_group_material("m", sigma_t=1.0, sigma_s=1.0 - eps), None
        bc = BoundaryCondition(ends)
        geo = SlabGeometry(edges=np.array([0.0, 2.0]), materials=("m",),
                           bc_left=bc, bc_right=bc)
        mesh = build_fine_mesh(geo, 20)
        operator = SweepOperator(geo, {"m": mat}, mesh, quad, ke)
        phi, psi, sweeps = source_iteration(operator, constant(mesh, 1.0), 1e-8)
        assert np.all(np.isfinite(phi))
        return phi, operator.flux(psi), sweeps, eps * phi[:, 0] @ mesh.widths

    @pytest.mark.parametrize("folded", [False, True], ids=["scattering", "folded"])
    def test_vacuum_ends_balance(self, quad4, folded):
        phi, flux, sweeps, absorbed = self.solve(quad4, 1e-6, "vacuum", folded)
        # the step closure's outgoing face flux is the end cell's average
        current = np.abs(quad4.mu) * quad4.weight
        leakage = flux.psi[0, :2] @ current[:2] + flux.psi[-1, 2:] @ current[2:]
        assert sweeps == 78
        # measured 1.9e-9 of the source
        assert abs(absorbed + leakage - 2.0) < 1e-8 * 2.0

    @pytest.mark.parametrize("folded", [False, True], ids=["scattering", "folded"])
    def test_reflective_ends_reach_the_infinite_medium(self, quad4, folded):
        phi, _, sweeps, absorbed = self.solve(quad4, 1e-2, "reflective", folded)
        assert sweeps == 2473
        # phi = 1 / eps and absorption = source, each measured to 2.8e-9
        assert np.allclose(phi, 100.0, rtol=1e-8, atol=0.0)
        assert abs(absorbed - 2.0) < 1e-8 * 2.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("folded", [False, True], ids=["scattering", "folded"])
    def test_closer_to_one_runs_out_of_sweeps(self, quad4, folded):
        with pytest.raises(MaxInnerIterationsError, match="scattering ratio too close to 1"):
            self.solve(quad4, 1e-3, "reflective", folded)


class TestCrossSolver:
    def test_matches_analytic_on_refined_mesh(self, pincell):
        # the first eigenvalue iteration's source, solved both ways; source
        # iteration on the second-order diamond closure serves as the
        # independent oracle
        geo, mats = pincell.geometry, pincell.materials
        quad = gauss_legendre(2)

        def chi_absx(mesh):
            chi = np.vstack([mats[n].chi for n in geo.materials])
            emission = chi[mesh.region_of_cell] * np.abs(mesh.centers)[:, None]
            return SourceField(mesh, emission)

        mesh_a = build_fine_mesh(geo, 700)
        src_a = chi_absx(mesh_a)
        spectra = {n: block_diagonalize(assemble_A(mats[n], quad))
                   for n in set(geo.materials)}
        operator = FixedSourceOperator(geo, spectra, src_a.mesh, quad)
        solution = solve_fixed_source(operator, src_a)

        mesh_s = build_fine_mesh(geo, 700)
        emission = chi_absx(mesh_s).emission
        scatter = np.stack([mats[n].sigma_s for n in geo.materials])[mesh_s.region_of_cell]
        phi, out = np.zeros_like(emission), np.zeros((2, 2))
        for _ in range(5000):
            total = emission + np.einsum("mg,mgh->mh", phi, scatter)
            _, phi_new, out = scan_order_sweep(geo, mats, mesh_s, quad, "diamond", total, out)
            change = np.linalg.norm(phi_new - phi)
            phi = phi_new
            if change < 1e-9:
                break
        else:
            raise AssertionError("diamond source iteration did not converge")
        phi_a = evaluate_flux(operator, solution, mesh_s.centers).phi
        mask = phi_a > 1e-3 * phi_a.max()
        rel = np.abs(phi - phi_a)[mask] / phi_a[mask]
        assert rel.max() < 0.005


class TestFastPathConsistency:
    @pytest.mark.parametrize("n,bc,graded", [
        pytest.param(2, "vacuum", False, id="2-step"),
        pytest.param(8, "vacuum", False, id="8-step"),
        pytest.param(4, "vacuum", False, id="4-step"),
        pytest.param(4, "reflective", True, id="4-step-reflective-graded"),
        pytest.param(8, "vacuum", True, id="8-step-graded"),
    ])
    def test_planned_sweep_equals_reference(self, pincell, rng, n, bc, graded):
        # with reflective ends, three lagged sweeps feed each sweep's
        # mirrored outgoing flux back in, as source_iteration does
        geo, mats = pincell.geometry, pincell.materials
        quad = gauss_legendre(n)
        mesh = graded_mesh(geo, (9, 50, 11)) if graded else build_fine_mesh(geo, 70)
        emission = rng.uniform(0.0, 1.0, size=(70, 2))
        # half the isotropic emission on every ordinate
        q = np.repeat(emission / 2.0, n, axis=1)
        sigma_t = cell_sigma_t(geo, mats, mesh)
        inc_ref = (rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))

        def mirror(out):
            return out.reshape(2, n // 2)[:, ::-1].ravel()

        if bc == "reflective":
            # the first sweep's incoming flux is the mirror image of out
            ends = BoundaryCondition.reflective(), BoundaryCondition.reflective()
            out = np.concatenate([mirror(inc_ref[0]).reshape(2, n // 2),
                                  mirror(inc_ref[1]).reshape(2, n // 2)], axis=1)
        else:
            ends = tuple(BoundaryCondition.incoming(inc) for inc in inc_ref)
            out = np.zeros((2, n))
        geo = replace(geo, bc_left=ends[0], bc_right=ends[1])
        operator = SweepOperator(geo, mats, mesh, quad)
        phi = np.empty((70, 2))
        for _ in range(3 if bc == "reflective" else 1):
            ref, ol_ref, or_ref = sweep_once(mesh, sigma_t, q, quad, *inc_ref)
            fast = operator.sweep(emission.T / 2.0, out, phi.T)
            assert np.allclose(operator.flux(fast).psi, ref, atol=1e-14)
            assert np.allclose(phi, ref.reshape(70, 2, n) @ quad.weight, atol=1e-14)
            assert np.allclose(out[:, :n // 2].ravel(), ol_ref, atol=1e-14)
            assert np.allclose(out[:, n // 2:].ravel(), or_ref, atol=1e-14)
            inc_ref = (mirror(ol_ref), mirror(or_ref))

    @pytest.mark.parametrize("cells", ["70", "49", "48", "graded"])
    @pytest.mark.parametrize("ends", [("vacuum", "vacuum"), ("reflective", "reflective"),
                                      ("incoming", "reflective"), ("vacuum", "incoming")])
    def test_blocked_sweep_is_bit_identical_to_scan_order(self, pincell, cells, ends):
        # 70 uniform cells leave the scan's last block partial, 49 leave it
        # one row, 48 fill every block; three sweeps carry the outgoing flux
        # into reflective ends
        rng = np.random.default_rng(21)
        quad = gauss_legendre(4)
        geo = replace(pincell.geometry, **{
            side: (BoundaryCondition.incoming(rng.uniform(0.0, 1.0, 4)) if kind == "incoming"
                   else BoundaryCondition(kind))
            for side, kind in zip(("bc_left", "bc_right"), ends)})
        mesh = (graded_mesh(geo, (9, 50, 11)) if cells == "graded"
                else build_fine_mesh(geo, int(cells)))
        operator = SweepOperator(geo, pincell.materials, mesh, quad)
        # rows in the last block, past whole 4-row (70 cells) or 3-row blocks
        assert mesh.n_cells % operator.march.size == {"70": 2, "49": 1, "48": 0, "graded": 2}[cells]
        emission = rng.uniform(0.0, 1.0, (mesh.n_cells, 2))
        out, ref_out = np.zeros((2, 4)), np.zeros((2, 4))
        phi = np.empty((mesh.n_cells, 2))
        for _ in range(3):
            psi = operator.sweep(emission.T / 2.0, out, phi.T)
            ref_psi, ref_phi, ref_out = scan_order_sweep(geo, pincell.materials, mesh, quad,
                                                         "step", emission, ref_out)
            assert np.array_equal(operator.flux(psi).psi, ref_psi)
            assert np.array_equal(phi, ref_phi)
            assert np.array_equal(out, ref_out)

    @pytest.mark.parametrize("cells", ["70", "49", "graded"])
    @pytest.mark.parametrize("ends", [("vacuum", "vacuum"), ("reflective", "reflective"),
                                      ("incoming", "reflective"), ("vacuum", "incoming")])
    def test_diamond_oracles_agree(self, pincell, cells, ends):
        # the scan-order diamond sweep that TestCrossSolver iterates against
        # the cell-by-cell diamond sweep of sweep_once; three sweeps carry
        # the outgoing flux into reflective ends
        rng = np.random.default_rng(21)
        quad = gauss_legendre(4)
        geo = replace(pincell.geometry, **{
            side: (BoundaryCondition.incoming(rng.uniform(0.0, 1.0, 4)) if kind == "incoming"
                   else BoundaryCondition(kind))
            for side, kind in zip(("bc_left", "bc_right"), ends)})
        mesh = (graded_mesh(geo, (9, 50, 11)) if cells == "graded"
                else build_fine_mesh(geo, int(cells)))
        sigma_t = cell_sigma_t(geo, pincell.materials, mesh)
        emission = rng.uniform(0.0, 1.0, (mesh.n_cells, 2))
        q = np.repeat(emission / 2.0, 4, axis=1)

        def incoming(bc, outgoing):
            if bc.kind == "reflective":
                return outgoing.reshape(2, 2)[:, ::-1].ravel()
            return bc.values if bc.kind == "incoming" else np.zeros(4)

        out = np.zeros((2, 4))
        ref_left, ref_right = np.zeros(4), np.zeros(4)
        for _ in range(3):
            psi, phi, out = scan_order_sweep(geo, pincell.materials, mesh, quad, "diamond",
                                             emission, out)
            ref, ref_left, ref_right = sweep_once(
                mesh, sigma_t, q, quad, incoming(geo.bc_left, ref_left),
                incoming(geo.bc_right, ref_right), scheme="diamond")
            scale = np.max(np.abs(ref))
            assert np.allclose(psi, ref, rtol=0.0, atol=1e-13 * scale)
            assert np.allclose(phi, ref.reshape(-1, 2, 4) @ quad.weight, rtol=0.0,
                               atol=1e-13 * scale)
            assert np.allclose(out[:, :2].ravel(), ref_left, rtol=0.0, atol=1e-13 * scale)
            assert np.allclose(out[:, 2:].ravel(), ref_right, rtol=0.0, atol=1e-13 * scale)

    def test_converged_flux_is_a_sweep_fixed_point(self, pincell, quad2):
        # one reference sweep of the converged total source must reproduce
        # the converged flux
        geo, mats = pincell.geometry, pincell.materials
        mesh = build_fine_mesh(geo, 70)
        q_ext = np.full((70, 4), 0.1)
        operator = SweepOperator(geo, mats, mesh, quad2)
        _, psi, _ = source_iteration(operator, constant(mesh, 0.2, 2), 1e-12)
        flux = operator.flux(psi).psi
        phi = flux.reshape(70, 2, 2) @ quad2.weight
        scat = np.empty((70, 2))
        for r in range(geo.n_regions):
            cells = np.arange(*mesh.offsets[r:r + 2])
            t = mats[geo.materials[r]].sigma_s.T
            scat[cells] = phi[cells] @ t.T
        q_total = q_ext + np.repeat(scat / 2.0, 2, axis=1)
        again, _, _ = sweep_once(mesh, cell_sigma_t(geo, mats, mesh), q_total, quad2,
                                 np.zeros(2), np.zeros(2))
        assert np.allclose(again, flux, atol=1e-11 * flux.max())

    def test_random_slabs_match_oracle(self):
        # whole inner iterations, sweep for sweep, against sweep_once plus a
        # region-by-region scattering update
        rng = np.random.default_rng(20240311)
        kinds, worst = set(), 0.0
        for trial in range(24):
            n_groups = int(rng.integers(1, 4))
            quad = gauss_legendre(int(rng.choice([2, 4, 8])))
            geo, mats = random_slab(rng, n_groups, int(rng.integers(1, 7)), quad.n)
            kinds |= {geo.bc_left.kind, geo.bc_right.kind}
            ke = None
            if trial % 4 >= 2:
                # k_e that keeps every folded ratio at or below 0.92 (1 without fission)
                ke = 1.25 * max(np.max(m.nu_sigma_f / (m.sigma_t - m.sigma_s.sum(axis=1)))
                                for m in mats.values()) or 1.0
            counts = rng.integers(1, 9, geo.n_regions)
            mesh = (graded_mesh(geo, counts) if trial % 3 == 0
                    else build_fine_mesh(geo, int(counts.sum())))
            shape = (mesh.n_cells, n_groups)
            emission = rng.uniform(0.0, 1.0, shape)
            phi0 = rng.uniform(0.0, 1.0, shape) if trial % 5 == 0 else None
            operator = SweepOperator(geo, mats, mesh, quad, ke)
            _, psi, sweeps = source_iteration(operator, SourceField(mesh, emission), 1e-10,
                                              phi0=phi0)
            psi = operator.flux(psi).psi
            ref, ref_sweeps = oracle_source_iteration(geo, mats, mesh, quad, emission,
                                                      1e-10, phi0=phi0, ke=ke)
            assert sweeps == ref_sweeps, trial
            worst = max(worst, np.max(np.abs(psi - ref)) / np.max(np.abs(ref)))
        assert kinds == {"vacuum", "reflective", "incoming"}
        assert worst <= 1e-12


class TestGroupMajorSource:
    """source_iteration's group-major source path against the per-ordinate
    loop it replaced: same sweeps, same bits."""

    ENDS = [("vacuum", "vacuum"), ("reflective", "vacuum"), ("incoming", "reflective"),
            ("vacuum", "incoming"), ("reflective", "reflective")]

    # both paths add the groups front to back, so every group count,
    # nine included, matches bit for bit
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    @pytest.mark.parametrize("n_groups", [2, 3, 4, 9])
    def test_bit_identical_to_per_ordinate_loop(self, n_groups, graded):
        rng = np.random.default_rng(2400 + 10 * n_groups + graded)
        for ends in self.ENDS:
            for shifted in (False, True):
                quad = gauss_legendre(int(rng.choice([2, 4, 8])))
                geo, mats = random_slab(rng, n_groups, int(rng.integers(1, 5)), quad.n)
                geo = replace(geo, **{
                    side: (BoundaryCondition.incoming(rng.uniform(0.0, 1.0, n_groups * quad.n // 2))
                           if kind == "incoming" else BoundaryCondition(kind))
                    for side, kind in zip(("bc_left", "bc_right"), ends)})
                # k_e that keeps every folded ratio at or below 0.92 (1 without fission)
                ke = 1.25 * max(np.max(m.nu_sigma_f / (m.sigma_t - m.sigma_s.sum(axis=1)))
                                for m in mats.values()) or 1.0 if shifted else None
                counts = rng.integers(2, 12, geo.n_regions)
                mesh = (graded_mesh(geo, counts) if graded
                        else build_fine_mesh(geo, int(counts.sum())))
                source = SourceField(mesh, rng.uniform(0.0, 1.0, (mesh.n_cells, n_groups)))
                phi0 = rng.uniform(0.0, 1.0, (mesh.n_cells, n_groups)) if shifted else None
                operator = SweepOperator(geo, mats, mesh, quad, ke)
                phi, psi, sweeps = source_iteration(operator, source, 1e-10, phi0=phi0)
                ref_phi, ref_psi, ref_sweeps = per_ordinate_source_iteration(
                    operator, geo, mats, source, 1e-10, phi0=phi0, ke=ke)
                case = (ends, shifted)
                assert sweeps == ref_sweeps, case
                assert np.array_equal(phi, ref_phi), case
                assert np.array_equal(psi, ref_psi), case
                assert np.array_equal(operator.flux(psi).psi, operator.flux(ref_psi).psi), case

    def test_sweep_benchmark_counts(self, pincell):
        # the step-sweep baseline at S8, M = 700: outer and sweep counts of
        # unaccelerated source iteration, and k
        config = replace(pincell.config, solver_kind="sweep", sn_order=8, fine_mesh_size=700)
        result = power_iteration(pincell.geometry, pincell.materials, config)
        assert result.iterations == 21
        assert result.inner_sweeps == 7311
        assert result.k_eff == pytest.approx(1.245843313327492, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("order", [8, 16])
    def test_warm_sweeps_keep_no_per_ordinate_temporary(self, pincell, order):
        # 500 sweeps short of a zero tolerance, so no psi is returned: a
        # (rows, G, N) array would be N (cells, G) arrays or more
        mesh = build_fine_mesh(pincell.geometry, 700)
        operator = SweepOperator(pincell.geometry, pincell.materials, mesh, gauss_legendre(order))
        source = constant(mesh, 1.0, 2)

        def sweeps():
            with pytest.raises(MaxInnerIterationsError):
                source_iteration(operator, source, 0.0, max_inner=500)

        sweeps()
        tracemalloc.start()
        try:
            sweeps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 7.2 (cells, G) arrays: the call's five and numpy's buffer
        # for the broadcast transfer product
        assert peak < 10 * mesh.n_cells * 2 * 8


def _sweep_operator(materials=None, ke=None):
    geo, mats = absorber_problem()
    quad = gauss_legendre(2)
    return SweepOperator(geo, materials or mats, build_fine_mesh(geo, 8), quad, ke)


def _iterate_two_groups():
    operator = _sweep_operator()
    return source_iteration(operator, constant(operator.mesh, 1.0, 2), 1e-8)


def _read_psi_of_another_size():
    # the 9-cell operator's blocked psi, (2, 5, 1, 2), read by the 8-cell one
    geo, mats = absorber_problem()
    other = SweepOperator(geo, mats, build_fine_mesh(geo, 9), gauss_legendre(2))
    psi = source_iteration(other, constant(other.mesh, 1.0), 1e-8)[1]
    return _sweep_operator().flux(psi)


# one bad input per typed check: (constructor, error type, message fragment)
SWEEP_ERRORS = {
    "kernel": (lambda: _sweep_operator({"abs": replace(
        one_group_material("abs"), scatter_kernel=np.full((2, 2), 0.25))}),
        ValidationError, "isotropic scattering only"),
    "ratio": (lambda: _sweep_operator({"abs": one_group_material("abs", sigma_s=1.0)}),
              ValidationError, "scattering ratio 1.000000 >= 1"),
    "emission_shape": (_iterate_two_groups, ValidationError, "expected (cells, G) = (8, 1)"),
    "source_mesh": (lambda: source_iteration(_sweep_operator(), SourceField(
        build_fine_mesh(absorber_problem()[0], 9), np.ones((9, 1))), 1e-8),
        ValidationError, "source mesh differs from the operator's mesh"),
    "psi_shape": (_read_psi_of_another_size, ValidationError,
                  "blocked array has shape (2, 5, 1, 2), expected (2, 4, 1, 2)"),
}


@pytest.mark.parametrize("case", SWEEP_ERRORS)
def test_typed_input_errors(case):
    build, error, fragment = SWEEP_ERRORS[case]
    with pytest.raises(error) as exc:
        build()
    assert fragment in str(exc.value)
