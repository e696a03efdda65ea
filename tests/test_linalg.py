import numpy as np
import pytest

from jezsl.errors import NumericalError
from jezsl.linalg import l2_normalize_rows, make_rng


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows(np.array([[3.0, 4.0]]))[0], [[0.6, 0.8]],
                                   atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(l2_normalize_rows(v)[0], v, atol=1e-12)

    def test_zero_vector_errors(self):
        with pytest.raises(NumericalError, match="row 1"):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("rows, message", [
        ([[1.0, 0.0], [np.nan, 1.0], [0.0, 0.0]], "row 1 has norm nan non-finite"),
        ([[1.0, 0.0], [1.0, 0.0], [np.inf, 0.0]], "row 2 has norm inf non-finite"),
        # Finite rows whose squares overflow: the norm is inf, and dividing
        # by it would give a zero row instead of a unit one.
        ([[1e200, 1e200]], "row 0 has norm inf non-finite"),
    ], ids=["nan", "inf", "squares-overflow"])
    def test_guard_names_the_first_bad_row(self, rows, message):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=f"^rows {message}$"):
                l2_normalize_rows(np.array(rows), "rows")

    def test_returns_the_norms(self):
        rows, norms = l2_normalize_rows(np.array([[3.0, 4.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(norms, [5.0, 2.0])
        np.testing.assert_array_equal(rows, [[0.6, 0.8], [0.0, 1.0]])

    def test_output_unit_norm(self):
        normed = l2_normalize_rows(make_rng(9).standard_normal((50, 6)))[0]
        assert np.max(np.abs(np.linalg.norm(normed, axis=1) - 1.0)) <= 1e-12

    def test_rows_variant_matches(self):
        rng = make_rng(1)
        m = rng.standard_normal((4, 3))
        np.testing.assert_allclose(l2_normalize_rows(m)[0],
                                   m / np.linalg.norm(m, axis=1, keepdims=True), atol=1e-15)


class TestRng:
    def test_same_seed_identical_streams(self):
        a = make_rng(123).random(10_000)
        b = make_rng(123).random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))
