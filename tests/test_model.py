import numpy as np
import pytest

from _helpers import gauss_legendre_newton, one_group_material
from slab_sn import (BoundaryCondition, MaterialXS, QuadratureSet,
                     SlabGeometry, SolverConfig, ValidationError,
                     gauss_legendre, validate_problem)


class TestGaussLegendre:
    def test_n2_exact_values(self):
        q = gauss_legendre(2)
        assert np.allclose(q.mu, [-1 / np.sqrt(3.0), 1 / np.sqrt(3.0)], atol=1e-14)
        assert np.allclose(q.weight, [1.0, 1.0], atol=1e-14)

    def test_n4_against_newton_oracle(self):
        q = gauss_legendre(4)
        mu_ref, w_ref = gauss_legendre_newton(4)
        assert np.allclose(q.mu, mu_ref, atol=1e-13)
        assert np.allclose(q.weight, w_ref, atol=1e-13)
        # frozen values from the Newton oracle
        assert np.allclose(np.abs(q.mu[[1, 0]]), [0.3399810436, 0.8611363116], atol=1e-9)
        assert np.allclose(q.weight[[1, 0]], [0.6521451549, 0.3478548451], atol=1e-9)

    @pytest.mark.parametrize("n", range(2, 66, 2))
    def test_weight_and_first_moment_sums(self, n):
        q = gauss_legendre(n)
        assert abs(q.weight.sum() - 2.0) <= 1e-12
        assert abs(q.weight @ q.mu) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_integrates_monomials_exactly(self, n):
        q = gauss_legendre(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(q.weight @ q.mu ** k - exact) <= 1e-12

    @pytest.mark.parametrize("n", [3, 0, -2, 1, 66])
    def test_rejects_bad_order(self, n):
        with pytest.raises(ValidationError):
            gauss_legendre(n)


class TestQuadratureSetInvariants:
    def test_rejects_zero_ordinate(self):
        with pytest.raises(ValidationError, match="nonzero"):
            QuadratureSet(mu=[-0.5, 0.0, 0.25, 0.5], weight=[0.5] * 4)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="ascending"):
            QuadratureSet(mu=[0.5, -0.5], weight=[1.0, 1.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            QuadratureSet(mu=[-0.4, 0.5], weight=[1.0, 1.0])

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValidationError, match="sum to 2"):
            QuadratureSet(mu=[-0.5, 0.5], weight=[1.0, 1.1])

    def test_rejects_nan_ordinates(self):
        with pytest.raises(ValidationError, match="ordinates"):
            QuadratureSet(mu=[np.nan, np.nan], weight=[1.0, 1.0])

    def test_rejects_nan_weights(self):
        with pytest.raises(ValidationError, match="weights"):
            QuadratureSet(mu=[-0.5, 0.5], weight=[np.nan, np.nan])

    def test_rejects_odd_size(self):
        with pytest.raises(ValidationError):
            QuadratureSet(mu=[-0.5, 0.2, 0.5], weight=[0.6, 0.8, 0.6])

    def test_arrays_are_readonly(self, quad2):
        with pytest.raises(ValueError):
            quad2.mu[0] = 0.1


class TestMaterialXS:
    def test_rejects_negative_sigma_t(self):
        with pytest.raises(ValidationError, match="sigma_t"):
            MaterialXS("m", sigma_t=[-1.0], sigma_s=[[0.0]],
                       nu_sigma_f=[0.0], chi=[0.0])

    def test_fissile_needs_normalized_chi(self):
        with pytest.raises(ValidationError, match="chi"):
            MaterialXS("m", sigma_t=[1.0, 1.0], sigma_s=np.zeros((2, 2)),
                       nu_sigma_f=[0.1, 0.2], chi=[0.6, 0.3])

    def test_non_fissile_zero_chi_allowed(self, pincell):
        refl = pincell.materials["reflector"]
        assert refl.chi.sum() == 0.0
        assert not refl.fissile

    def test_rejects_bad_sigma_s_shape(self):
        with pytest.raises(ValidationError, match="sigma_s"):
            MaterialXS("m", sigma_t=[1.0, 2.0], sigma_s=[[1.0]],
                       nu_sigma_f=[0.0, 0.0], chi=[0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            MaterialXS("m", sigma_t=[np.nan], sigma_s=[[0.0]],
                       nu_sigma_f=[0.0], chi=[0.0])


class TestGeometryAndBCs:
    def test_rejects_non_monotone_edges(self):
        with pytest.raises(ValidationError, match="increasing"):
            SlabGeometry(edges=[0.0, 2.0, 1.0], materials=("a", "b"))

    def test_rejects_wrong_material_count(self):
        with pytest.raises(ValidationError, match="regions"):
            SlabGeometry(edges=[0.0, 1.0, 2.0], materials=("a",))

    def test_rejects_unknown_bc(self):
        with pytest.raises(ValidationError, match="boundary"):
            BoundaryCondition("mirror")

    def test_rejects_negative_incoming(self):
        with pytest.raises(ValidationError, match="incoming"):
            BoundaryCondition.incoming([-1.0, 0.5])

    def test_incoming_length_checked_against_problem(self, pincell):
        geo = SlabGeometry(edges=pincell.geometry.edges,
                           materials=pincell.geometry.materials,
                           bc_left=BoundaryCondition.incoming([1.0, 2.0, 3.0]))
        with pytest.raises(ValidationError, match="N\\*G/2"):
            validate_problem(geo, pincell.materials, SolverConfig(sn_order=4))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(sn_order=8)
        assert cfg.fine_mesh_size == 700
        assert cfg.flux_tolerance == 1e-6
        assert cfg.max_outer == 200
        assert cfg.ke is None
        assert cfg.solver_kind == "analytic"

    @pytest.mark.parametrize("kwargs", [
        {"sn_order": 3}, {"sn_order": 8, "flux_tolerance": 0.0},
        {"sn_order": 8, "ke": -1.0}, {"sn_order": 8, "solver_kind": "magic"},
        {"sn_order": 8, "fine_mesh_size": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"flux_tolerance": np.inf}, "flux_tolerance must be finite"),
        ({"flux_tolerance": np.nan}, "flux_tolerance must be finite"),
        ({"ke": np.inf}, "ke must be finite"),
        ({"ke": np.nan}, "ke must be finite"),
        ({"fine_mesh_size": 700.5}, "fine_mesh_size must be an integer"),
        ({"max_outer": 30.0}, "max_outer must be an integer"),
        ({"max_inner": "50"}, "max_inner must be an integer"),
        ({"sn_order": 4.0}, "sn_order must be an even integer"),
    ])
    def test_rejects_values_it_cannot_run(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            SolverConfig(**{"sn_order": 8, **kwargs})

    def test_numpy_integers_are_plain_ints(self):
        cfg = SolverConfig(sn_order=np.int64(4), fine_mesh_size=np.int32(70),
                           max_outer=np.uint16(9), max_inner=np.int8(5))
        assert (cfg.sn_order, cfg.fine_mesh_size, cfg.max_outer, cfg.max_inner) == (4, 70, 9, 5)
        assert all(type(v) is int for v in (cfg.sn_order, cfg.fine_mesh_size,
                                             cfg.max_outer, cfg.max_inner))

    def test_mesh_must_cover_regions(self, pincell):
        cfg = SolverConfig(sn_order=2, fine_mesh_size=2)
        with pytest.raises(ValidationError, match="fine_mesh_size"):
            validate_problem(pincell.geometry, pincell.materials, cfg)


def _geometry(materials=("m",), **kw):
    return SlabGeometry(edges=np.arange(len(materials) + 1.0), materials=materials, **kw)


def _material(**kw):
    base = {"sigma_t": [1.0], "sigma_s": [[0.5]], "nu_sigma_f": [0.0], "chi": [0.0]}
    return MaterialXS("m", **{**base, **kw})


# one bad input per typed check: (constructor, error type, message fragment)
MODEL_ERRORS = {
    "weight_length": (lambda: QuadratureSet(mu=[-0.5, 0.5], weight=[2.0]),
                      ValidationError, "same length"),
    "order_not_integer": (lambda: gauss_legendre(2.0),
                          ValidationError, "sn_order must be an even integer"),
    "no_groups": (lambda: _material(sigma_t=[], sigma_s=np.zeros((0, 0)),
                                    nu_sigma_f=[], chi=[]),
                  ValidationError, "needs at least one group"),
    "fission_length": (lambda: _material(nu_sigma_f=[0.0, 0.0]),
                       ValidationError, "nu_sigma_f and chi must have length 1"),
    "non_fissile_chi": (lambda: _material(chi=[0.5]),
                        ValidationError, "chi must be all zero or sum to 1"),
    "kernel_shape": (lambda: _material(scatter_kernel=np.ones((2, 3))),
                     ValidationError, "scatter_kernel must be square"),
    "kernel_nan": (lambda: _material(scatter_kernel=np.full((2, 2), np.nan)),
                   ValidationError, "scatter_kernel entries must be finite"),
    "incoming_no_values": (lambda: BoundaryCondition("incoming"),
                           ValidationError, "needs a value vector"),
    "incoming_empty": (lambda: BoundaryCondition.incoming([]),
                       ValidationError, "nonempty vector"),
    "vacuum_values": (lambda: BoundaryCondition("vacuum", [1.0]),
                      ValidationError, "vacuum boundary condition takes no values"),
    "one_edge": (lambda: SlabGeometry(edges=[0.0], materials=()),
                 ValidationError, "at least two edges"),
    "infinite_edge": (lambda: SlabGeometry(edges=[0.0, np.inf], materials=("m",)),
                      ValidationError, "edges must be finite"),
    "bc_not_a_condition": (lambda: _geometry(bc_left="vacuum"),
                           ValidationError, "must be BoundaryCondition values"),
    "zero_iterations": (lambda: SolverConfig(sn_order=2, max_outer=0),
                        ValidationError, "iteration limits must be >= 1"),
    "group_counts": (lambda: validate_problem(
        _geometry(("a", "b")),
        {"a": one_group_material("a"),
         "b": MaterialXS("b", sigma_t=[1.0, 1.0], sigma_s=np.zeros((2, 2)),
                         nu_sigma_f=[0.0, 0.0], chi=[0.0, 0.0])},
        SolverConfig(sn_order=2, fine_mesh_size=4)),
        ValidationError, "share one group count, got [1, 2]"),
    "kernel_order": (lambda: validate_problem(
        _geometry(), {"m": _material(scatter_kernel=np.full((2, 2), 0.25))},
        SolverConfig(sn_order=4, fine_mesh_size=4)),
        ValidationError, "scatter_kernel is 2x2, expected 4x4"),
}


@pytest.mark.parametrize("case", MODEL_ERRORS)
def test_typed_input_errors(case):
    build, error, fragment = MODEL_ERRORS[case]
    with pytest.raises(error) as exc:
        build()
    assert fragment in str(exc.value)
