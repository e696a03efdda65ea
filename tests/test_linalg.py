import numpy as np
import pytest

from jezsl.errors import NumericalError
from jezsl.linalg import l2_normalize_rows, make_rng


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3, 4]]), [[0.6, 0.8]], atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(l2_normalize_rows(v), v, atol=1e-12)

    def test_zero_vector_errors(self):
        with pytest.raises(NumericalError, match="row 1"):
            l2_normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    def test_output_unit_norm(self):
        normed = l2_normalize_rows(make_rng(9).standard_normal((50, 6)))
        assert np.max(np.abs(np.linalg.norm(normed, axis=1) - 1.0)) <= 1e-12

    def test_rows_variant_matches(self):
        rng = make_rng(1)
        m = rng.standard_normal((4, 3))
        np.testing.assert_allclose(l2_normalize_rows(m),
                                   m / np.linalg.norm(m, axis=1, keepdims=True), atol=1e-15)


class TestRng:
    def test_same_seed_identical_streams(self):
        a = make_rng(123).random(10_000)
        b = make_rng(123).random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))
