import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpum.errors import DegenerateRatio, LengthMismatch
from blockpum.validation import (
    TEST_FUNCTIONS,
    convergence_rate,
    eval_test_function,
    mae,
    rmse,
)


class TestFunctions:
    def test_product_bump_center(self):
        assert eval_test_function("f4", (0.5, 0.5, 0.5)) == pytest.approx(1.0, rel=1e-15)

    def test_product_bump_faces_vanish(self):
        for p in [(0.0, 0.3, 0.7), (1.0, 0.5, 0.5), (0.2, 0.0, 0.9), (0.4, 0.6, 1.0)]:
            assert eval_test_function("f4", p) == 0.0

    def test_franke_at_origin(self):
        # frozen from a 40-digit arbitrary-precision evaluation
        assert eval_test_function("f1", (0.0, 0.0)) == pytest.approx(
            0.7664205912849231, rel=1e-14
        )

    def test_ridge_spot_value(self):
        # x = 1/3 kills the quadratic, cos(0) = 1: (1.25 + 1) / 6
        assert eval_test_function("f2", (1 / 3, 0.0)) == pytest.approx(0.375, rel=1e-14)

    def test_franke_3d_matches_2d_structure(self):
        # at z chosen so the extra terms match the 2D exponents
        val = eval_test_function("f3", (0.1, 0.2, 0.3))
        assert np.isfinite(val) and 0 < val < 1.5

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            eval_test_function("f1", (0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            eval_test_function("f4", (0.1, 0.2))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            eval_test_function("f9", (0.1, 0.2))

    def test_vectorized_matches_scalar(self, rng):
        pts = rng.random((20, 2))
        for fid in ("f1", "f2"):
            batch = eval_test_function(fid, pts)
            single = [eval_test_function(fid, p) for p in pts]
            assert np.allclose(batch, single, rtol=1e-15)

    def test_registry_dims(self):
        assert {fid: dim for fid, (dim, _) in TEST_FUNCTIONS.items()} == {
            "f1": 2, "f2": 2, "f3": 3, "f4": 3,
        }


class TestMetrics:
    def test_zero_when_equal(self, rng):
        v = rng.random(30)
        assert mae(v, v) == 0.0
        assert rmse(v, v) == 0.0

    def test_single_error_among_zeros(self):
        truth = np.zeros(9)
        approx = np.zeros(9)
        approx[4] = -0.3
        assert mae(truth, approx) == pytest.approx(0.3)
        assert rmse(truth, approx) == pytest.approx(0.1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mae([1.0, 2.0], [1.0])
        with pytest.raises(LengthMismatch):
            rmse([], [])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_mae_bounds_rmse(self, errors):
        truth = np.zeros(len(errors))
        assert mae(truth, errors) >= rmse(truth, errors) - 1e-12

    def test_rmse_of_equal_errors_not_above_mae(self):
        # unscaled, the mean of the squares rounds up and rmse exceeds mae by one ulp
        errors = [428079.6953125] * 3
        assert rmse(np.zeros(3), errors) <= mae(np.zeros(3), errors)

    def test_rmse_of_nonfinite_errors(self):
        assert np.isnan(rmse([0.0, 0.0], [1.0, np.nan]))
        assert rmse([0.0, 0.0], [1.0, np.inf]) == np.inf

    def test_rmse_permutation_invariant(self, rng):
        truth = rng.random(40)
        approx = truth + rng.normal(0, 0.1, 40)
        perm = rng.permutation(40)
        assert rmse(truth, approx) == pytest.approx(rmse(truth[perm], approx[perm]), rel=1e-12)


class TestConvergenceRate:
    def test_linear(self):
        assert convergence_rate(0.2, 0.1, 0.2, 0.1) == pytest.approx(1.0)

    def test_quadratic(self):
        assert convergence_rate(0.4, 0.1, 0.2, 0.1) == pytest.approx(2.0)

    def test_published_style_row(self):
        # log(1.40e-4 / 3.30e-5) / log(3.30e-2 / 1.76e-2)
        assert convergence_rate(1.40e-4, 3.30e-5, 3.30e-2, 1.76e-2) == pytest.approx(
            2.29894, abs=1e-4
        )

    def test_reversed_levels_agree(self):
        a = convergence_rate(1.4e-4, 3.3e-5, 3.3e-2, 1.76e-2)
        b = convergence_rate(3.3e-5, 1.4e-4, 1.76e-2, 3.3e-2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateRatio):
            convergence_rate(0.1, 0.2, 0.5, 0.5)
        with pytest.raises(DegenerateRatio):
            convergence_rate(0.0, 0.2, 0.5, 0.2)
