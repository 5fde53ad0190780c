import numpy as np
import pytest
from scipy.integrate import quad_vec

from _helpers import (eigenvalues, faddeev_leverrier, gamma, one_group_material,
                      random_spectrum, segment_integral)
from slab_sn import (BlockSpectrum, DefectiveMatrixError,
                     ExponentOverflowError, MaterialXS, ValidationError,
                     assemble_A, block_diagonalize, gauss_legendre)

SQRT3 = np.sqrt(3.0)


def hand_assembled_A(material, quad, fission_scale):
    """Element-by-element assembly straight from the defining formula."""
    g, n = material.n_groups, quad.n
    a = np.zeros((g * n, g * n))
    for gg in range(1, g + 1):
        for nn in range(1, n + 1):
            r = (gg - 1) * n + nn - 1
            for gp in range(1, g + 1):
                for npr in range(1, n + 1):
                    c = (gp - 1) * n + npr - 1
                    val = -material.sigma_t[gg - 1] * (gg == gp) * (nn == npr)
                    val += quad.weight[npr - 1] * (
                        material.sigma_s[gp - 1, gg - 1] / 2.0
                        + fission_scale * material.chi[gg - 1]
                        * material.nu_sigma_f[gp - 1] / 2.0)
                    a[r, c] = val / quad.mu[nn - 1]
    return a


class TestAssembleA:
    def test_pure_absorber_is_diagonal(self, quad2):
        mat = one_group_material(sigma_t=1.0)
        a = assemble_A(mat, quad2)
        assert np.allclose(a, np.diag([SQRT3, -SQRT3]), atol=1e-14)

    def test_pure_scatterer_has_isotropic_null_vector(self, quad2):
        mat = one_group_material(sigma_t=1.0, sigma_s=1.0)
        a = assemble_A(mat, quad2)
        assert np.allclose(a @ np.ones(2), 0.0, atol=1e-14)

    @pytest.mark.parametrize("scale", [0.0, 1.0 / 1.3])
    def test_core_matches_hand_assembly(self, pincell, quad2, scale):
        core = pincell.materials["core"]
        a = assemble_A(core, quad2, scale)
        assert np.allclose(a, hand_assembled_A(core, quad2, scale), rtol=1e-14, atol=0.0)

    def test_core_frozen_entries(self, pincell, quad2):
        # first row of the two-group S2 core matrix, fission excluded
        a = assemble_A(pincell.materials["core"], quad2)
        row0 = [0.62109609908612351, -0.56179067943496530,
                -3.6471793854977845e-04, -3.6471793854977845e-04]
        assert np.allclose(a[0], row0, rtol=1e-13, atol=0.0)

    def test_reflection_similarity(self, rng):
        # reversing the ordinate order maps A to -A for isotropic kernels
        quad = gauss_legendre(4)
        for _ in range(5):
            g = rng.integers(1, 4)
            sig_s = rng.uniform(0.0, 0.4, size=(g, g))
            mat = MaterialXS("m", sigma_t=rng.uniform(1.0, 2.0, g), sigma_s=sig_s,
                             nu_sigma_f=np.zeros(g), chi=np.zeros(g))
            a = assemble_A(mat, quad)
            perm = np.arange(g * 4).reshape(g, 4)[:, ::-1].ravel()
            assert np.allclose(a[np.ix_(perm, perm)], -a, atol=1e-13)

    def test_explicit_isotropic_kernel_matches_default(self, pincell, quad2):
        core = pincell.materials["core"]
        kernel = np.kron(core.sigma_s.T, np.ones((2, 2))) / 2.0
        with_kernel = MaterialXS("core", core.sigma_t, core.sigma_s,
                                 core.nu_sigma_f, core.chi, scatter_kernel=kernel)
        assert np.allclose(assemble_A(with_kernel, quad2),
                           assemble_A(core, quad2), rtol=1e-15)

    def test_anisotropic_kernel_used_verbatim(self, quad2, rng):
        kernel = rng.uniform(0.0, 0.3, size=(2, 2))
        mat = MaterialXS("m", sigma_t=[1.0], sigma_s=[[0.5]], nu_sigma_f=[0.0],
                         chi=[0.0], scatter_kernel=kernel)
        a = assemble_A(mat, quad2)
        expected = kernel * quad2.weight[None, :]
        expected[np.arange(2), np.arange(2)] -= 1.0
        expected /= quad2.mu[:, None]
        assert np.allclose(a, expected, rtol=1e-14)

    def test_rejects_negative_fission_scale(self, pincell, quad2):
        with pytest.raises(ValidationError):
            assemble_A(pincell.materials["core"], quad2, -0.5)


class TestBlockDiagonalize:
    def test_diagonal_matrix(self):
        spec = block_diagonalize(np.diag([SQRT3, -SQRT3]))
        assert np.all(spec.rates.imag == 0.0)
        assert np.allclose(spec.rates.real, [-SQRT3, SQRT3])
        # sorting by eigenvalue makes P the corresponding signed permutation
        assert np.allclose(np.abs(spec.P), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_rotation_generator(self):
        spec = block_diagonalize(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert spec.rates.tolist() == [complex(0.0, 1.0)]
        assert np.allclose(spec.B, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)

    def test_shifted_core_residual_and_char_poly(self, pincell, quad2):
        core = pincell.materials["core"]
        a = assemble_A(core, quad2, 1.0 / 1.3)
        spec = block_diagonalize(a)
        resid = np.linalg.norm(a @ spec.P - spec.P @ spec.B)
        assert resid <= 1e-10 * np.linalg.norm(a)
        # eigenvalues against the characteristic polynomial built by the
        # Faddeev-LeVerrier trace recursion (independent of the eigensolver)
        roots = np.sort_complex(np.roots(faddeev_leverrier(a)))
        assert np.allclose(np.sort_complex(eigenvalues(spec)), roots, atol=1e-8)
        # the Wielandt shift makes this matrix genuinely complex
        assert np.any(spec.rates.imag > 0.0)

    def test_defective_matrix_raises(self):
        with pytest.raises(DefectiveMatrixError):
            block_diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones(4),
                                   np.array([[1.0, np.nan], [0.0, 1.0]]),
                                   np.array([[np.inf, 0.0], [0.0, 1.0]])],
                             ids=["non-square", "vector", "nan", "inf"])
    def test_rejects_bad_matrix(self, a):
        with pytest.raises(ValidationError, match="square|finite"):
            block_diagonalize(a)

    def test_deterministic_and_sorted(self, pincell, quad4):
        a = assemble_A(pincell.materials["core"], quad4, 1.0 / 1.3)
        s1, s2 = block_diagonalize(a), block_diagonalize(a)
        assert np.array_equal(s1.rates, s2.rates)
        assert np.array_equal(s1.P, s2.P)
        keys = [(z.real, z.imag) for z in s1.rates]
        assert keys == sorted(keys)

    def test_lapack_returns_exact_conjugate_pairs(self, pincell):
        # block_diagonalize relies on geev's order: every complex pair as
        # exact conjugates, adjacent, the b > 0 member first
        quad = gauss_legendre(16)
        rng = np.random.default_rng(13)
        mats = [assemble_A(pincell.materials["core"], quad, 1.0 / 1.3)]
        mats += [rng.standard_normal((n, n)) for n in (5, 9, 16)]
        for a in mats:
            w, v = np.linalg.eig(a)
            first = np.flatnonzero(w.imag > 0.0)
            assert first.size and np.array_equal(np.flatnonzero(w.imag < 0.0), first + 1)
            assert np.array_equal(w[first + 1], w[first].conj())
            assert np.array_equal(v[:, first + 1], v[:, first].conj())
            spec = block_diagonalize(a)
            assert np.array_equal(np.sort_complex(eigenvalues(spec)), np.sort_complex(w))

    def test_random_well_conditioned(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 17))
            a, _ = random_spectrum(rng, n)
            spec = block_diagonalize(a)
            resid = np.linalg.norm(a @ spec.P - spec.P @ spec.B)
            assert resid <= 1e-10 * np.linalg.norm(a)


def direct_spectrum(*rates):
    """Spectrum with P = I: a real rate owns one column, a complex one two."""
    n = sum(2 if complex(z).imag > 0.0 else 1 for z in rates)
    eye = np.eye(n)
    return BlockSpectrum(P=eye, P_inv=eye, rates=rates)


class TestGamma:
    def test_identity_at_zero(self, rng):
        a, spec = random_spectrum(rng, 6)
        assert np.allclose(gamma(spec, 0.0), np.eye(6), atol=1e-14)

    def test_scalar_exponential(self):
        spec = direct_spectrum(2.0)
        assert np.allclose(gamma(spec, 0.5), [[np.e]], rtol=1e-14)

    def test_half_turn_rotation(self):
        spec = direct_spectrum(complex(0.0, np.pi))
        assert np.allclose(gamma(spec, 1.0), -np.eye(2), atol=1e-12)

    def test_overflow_guard(self):
        spec = direct_spectrum(800.0)
        with pytest.raises(ExponentOverflowError):
            gamma(spec, 1.0)
        # decay of the same magnitude underflows harmlessly
        assert gamma(spec, -1.0)[0, 0] == 0.0

    def test_group_law_and_inverse(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 11))
            _, spec = random_spectrum(rng, n)
            x, y = rng.uniform(-5.0, 5.0, size=2)
            gx, gy, gxy = gamma(spec, x), gamma(spec, y), gamma(spec, x + y)
            assert np.linalg.norm(gx @ gy - gxy) <= 1e-10 * np.linalg.norm(gxy)
            ginv = gamma(spec, -x)
            assert np.linalg.norm(gx @ ginv - np.eye(n)) <= 1e-10

    def test_derivative_matches_generator(self, rng):
        # d/dx of P Gamma(x) c equals A P Gamma(x) c, checked by centered
        # differences with second-order step convergence
        a, spec = random_spectrum(rng, 8)
        c = rng.standard_normal(8)
        x0 = 0.7
        exact = a @ (spec.P @ gamma(spec, x0) @ c)

        def fd(h):
            plus = spec.P @ gamma(spec, x0 + h) @ c
            minus = spec.P @ gamma(spec, x0 - h) @ c
            return np.linalg.norm((plus - minus) / (2.0 * h) - exact)

        e1, e2 = fd(1e-3), fd(5e-4)
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)


class TestSegmentIntegral:
    def test_zero_eigenvalue_gives_width(self):
        spec = direct_spectrum(0.0)
        assert segment_integral(spec, 1.0, 3.5)[0, 0] == pytest.approx(2.5, abs=1e-15)

    def test_scalar_case(self):
        spec = direct_spectrum(1.0)
        assert segment_integral(spec, 0.0, 1.0)[0, 0] == pytest.approx(
            1.0 - np.exp(-1.0), rel=1e-14)

    def test_complex_pair_frozen_and_quadrature(self):
        # oracle: adaptive quadrature of Gamma(-xi) entrywise
        spec = direct_spectrum(complex(0.3, 2.0))
        got = segment_integral(spec, 0.1, 0.7)
        frozen = np.array([[0.35598608474468846, -0.35326635962764941],
                           [0.35326635962764941, 0.35598608474468846]])
        assert np.allclose(got, frozen, atol=1e-14)
        oracle, _ = quad_vec(lambda t: gamma(spec, -t), 0.1, 0.7,
                             epsabs=1e-13, epsrel=1e-13)
        assert np.allclose(got, oracle, atol=1e-10)

    def test_rejects_reversed_bounds(self):
        spec = direct_spectrum(1.0)
        with pytest.raises(ValidationError):
            segment_integral(spec, 1.0, 0.0)

    def test_matches_quadrature_on_random_segments(self, rng):
        for k in range(12):
            n = int(rng.integers(2, 9))
            _, spec = random_spectrum(rng, n, zero_block=(k % 3 == 0))
            x_a = rng.uniform(-2.0, 2.0)
            x_b = x_a + rng.uniform(0.0, 2.0)
            got = segment_integral(spec, x_a, x_b)
            oracle, _ = quad_vec(lambda t: gamma(spec, -t), x_a, x_b,
                                 epsabs=1e-12, epsrel=1e-12)
            assert np.max(np.abs(got - oracle)) <= 1e-9

    def test_tiny_segment_no_cancellation(self):
        spec = direct_spectrum(1e-9, complex(-1e-10, 1e-9))
        width = 0.5e-8
        got = segment_integral(spec, 1.0, 1.0 + width)
        assert np.allclose(np.diag(got), width, rtol=1e-6)


# one bad input per typed check: (constructor, error type, message fragment)
KERNEL_MATERIAL = MaterialXS("k", sigma_t=[1.0], sigma_s=[[0.5]], nu_sigma_f=[0.0],
                             chi=[0.0], scatter_kernel=np.full((2, 2), 0.25))
SPECTRAL_ERRORS = {
    "fission_scale": (lambda: assemble_A(one_group_material(), gauss_legendre(2), -1.0),
                      ValidationError, "fission_scale must be finite and >= 0"),
    "kernel_order": (lambda: assemble_A(KERNEL_MATERIAL, gauss_legendre(4)),
                     ValidationError, "scatter_kernel is 2x2, expected 4x4"),
    "blocks_short": (lambda: BlockSpectrum(P=np.eye(2), P_inv=np.eye(2), rates=[-1.0]),
                     ValidationError, "blocks must tile all columns of P"),
    "negative_pair": (lambda: BlockSpectrum(P=np.eye(2), P_inv=np.eye(2), rates=[-1.0 - 1.0j]),
                      ValidationError, "blocks must tile all columns of P"),
    "not_square": (lambda: block_diagonalize(np.ones((2, 3))),
                   ValidationError, "transport matrix must be square"),
    "not_finite": (lambda: block_diagonalize(np.full((2, 2), np.nan)),
                   ValidationError, "transport matrix entries must be finite"),
}


@pytest.mark.parametrize("case", SPECTRAL_ERRORS)
def test_typed_input_errors(case):
    build, error, fragment = SPECTRAL_ERRORS[case]
    with pytest.raises(error) as exc:
        build()
    assert fragment in str(exc.value)
