import tracemalloc

import numpy as np
import pytest

from _helpers import recurrence_loop
from slab_sn import ValidationError
from slab_sn.recurrence import FirstOrderScan


def coefficients(rng, kind, shape):
    if kind == "zero":
        return np.zeros(shape)
    if kind == "one":
        return np.ones(shape)
    if kind == "tiny":
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, -299.0, shape)
    if kind == "complex":
        return rng.uniform(0.0, 1.0, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    return rng.uniform(-1.0, 1.0, shape)


class TestFirstOrderScan:
    @pytest.mark.parametrize("kind", ["zero", "one", "tiny", "complex", "random"])
    @pytest.mark.parametrize("m", [1, 2, 5, 16, 17, 700])
    def test_matches_loop(self, kind, m):
        rng = np.random.default_rng(7)
        a = coefficients(rng, kind, (m, 3, 2))
        b = rng.standard_normal((m, 3, 2))
        if kind == "complex":
            b = b + 1j * rng.standard_normal((m, 3, 2))
        ref = recurrence_loop(a, b)
        got = FirstOrderScan(a)(b)
        assert got.shape == b.shape and got.dtype == ref.dtype
        # a = 1 is a running sum, whose rounding grows with the row count
        scale = np.max(np.abs(np.cumsum(np.abs(b), axis=0)))
        assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps * scale

    def test_complex_source_with_real_coefficients(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.0, 1.0, (40, 4))
        b = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        scan = FirstOrderScan(a)
        assert np.allclose(scan(b), recurrence_loop(a, b), rtol=0, atol=1e-14)
        # the coefficients are reused unchanged by a second call
        assert np.allclose(scan(b.real), recurrence_loop(a, b.real), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["random", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 7, 49, 50, 1429])
    def test_shared_row_matches_repeated_rows(self, kind, m):
        rng = np.random.default_rng(9)
        a = coefficients(rng, kind, (1, 3, 2))
        b = rng.standard_normal((m, 3, 2))
        if kind == "complex":
            b = b + 1j * rng.standard_normal((m, 3, 2))
        got = FirstOrderScan(a, m)(b)
        ref = FirstOrderScan(np.repeat(a, m, axis=0))(b)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_shared_row_keeps_no_per_row_product(self):
        rng = np.random.default_rng(10)
        a = coefficients(rng, "complex", (1, 64))
        m = 1429

        def construction_peak(coef, rows):
            tracemalloc.start()
            try:
                scan = FirstOrderScan(coef, rows)
                return scan, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scan, peak = construction_peak(a, m)
        running_product = scan.size * scan.count * a.nbytes
        assert peak < running_product / 10
        # per-row coefficients do need the (size, count, columns) product
        _, peak = construction_peak(np.repeat(a, m, axis=0), m)
        assert peak >= running_product

    def test_rejects_mismatched_source(self):
        with pytest.raises(ValidationError):
            FirstOrderScan(np.ones((4, 2)))(np.ones((4, 3)))
        with pytest.raises(ValidationError):
            FirstOrderScan(np.ones((1, 2)), 4)(np.ones((5, 2)))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            FirstOrderScan(np.ones((3, 2)), 4)
