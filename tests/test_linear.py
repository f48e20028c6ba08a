import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivforest.errors import NumericError, UnderdeterminedError
from ivforest.frame import IntervalFrame, SplitSpec, split
from ivforest.linear import (
    VARIANTS,
    design,
    fit_linear,
    linear_to_json,
    nnls,
    ols,
    predict_linear,
    predict_linear_frame,
)
from ivforest.models import model_from_json
from ivforest.simulate import SimSetting, simulate


def lattice_nnls_oracle(X, y, hi=5.0, points=26, refinements=2):
    """Grid search over beta >= 0, refined around the incumbent."""
    k = X.shape[1]
    lo = np.zeros(k)
    width = np.full(k, hi)
    best = None
    for _ in range(refinements + 1):
        axes = [np.linspace(lo[j], lo[j] + width[j], points) for j in range(k)]
        mesh = np.meshgrid(*axes, indexing="ij")
        betas = np.stack([m.ravel() for m in mesh], axis=1)
        rss = np.sum((y[None, :] - betas @ X.T) ** 2, axis=1)
        i = int(np.argmin(rss))
        best = betas[i]
        step = width / (points - 1)
        lo = np.maximum(0.0, best - step)
        width = 2 * step
    return best


class TestOls:
    def test_exact_line(self):
        X = design(np.array([[0.0], [1.0], [2.0]]))
        res = ols(X, np.array([1.0, 3.0, 5.0]))
        np.testing.assert_allclose(res.coeffs, [1.0, 2.0], atol=1e-12)
        assert res.rss < 1e-20

    def test_constant_response(self):
        X = design(np.array([[0.0], [1.0], [2.0]]))
        res = ols(X, np.array([4.0, 4.0, 4.0]))
        np.testing.assert_allclose(res.coeffs, [4.0, 0.0], atol=1e-12)

    def test_duplicated_column_minimum_norm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=5)
        X = np.column_stack([np.ones(5), x, x])
        y = rng.normal(size=5)
        res = ols(X, y)
        assert res.rank_deficient
        oracle = np.linalg.pinv(X) @ y
        np.testing.assert_allclose(res.coeffs, oracle, atol=1e-9)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            ols(np.ones((2, 3)), np.ones(2))

    def test_non_finite(self):
        with pytest.raises(NumericError):
            ols(np.array([[1.0], [np.nan]]), np.ones(2))


class TestNnls:
    def test_negative_slope_pinned(self):
        """Radius-style fit where the unconstrained slope is negative."""
        X = design(np.array([[1.0], [2.0], [3.0]]))
        y = np.array([3.0, 2.0, 1.0])
        res = nnls(X, y)
        oracle = lattice_nnls_oracle(X, y)
        np.testing.assert_allclose(res.coeffs, [2.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(oracle, [2.0, 0.0], atol=0.01)
        assert res.active == (1,)

    def test_inactive_constraints_reduce_to_ols(self):
        X = design(np.array([[1.0], [2.0], [3.0], [4.0]]))
        y = np.array([2.0, 3.1, 3.9, 5.2])
        unconstrained = ols(X, y).coeffs
        assert np.all(unconstrained > 0)
        np.testing.assert_allclose(nnls(X, y).coeffs, unconstrained, atol=1e-10)

    def test_zero_response(self):
        X = design(np.array([[1.0], [2.0]]))
        res = nnls(X, np.zeros(2))
        np.testing.assert_allclose(res.coeffs, [0.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(NumericError):
            nnls(np.array([[1.0], [np.inf]]), np.ones(2))

    def kkt_violation(self, X, y, beta, tol=1e-8):
        g = X.T @ (X @ beta - y)
        scale = max(1.0, float(np.abs(X.T @ y).max()))
        free = beta > tol
        worst = 0.0
        if free.any():
            worst = max(worst, float(np.abs(g[free]).max()) / scale)
        if (~free).any():
            worst = max(worst, float(-(g[~free]).min()) / scale)
        return worst

    @pytest.mark.parametrize("seed", range(10))
    def test_kkt_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, k = rng.integers(5, 30), rng.integers(1, 5)
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        res = nnls(X, y)
        assert np.all(res.coeffs >= 0)
        assert self.kkt_violation(X, y, res.coeffs) <= 1e-8

    @staticmethod
    def three_column_problem():
        """A 6 x 3 problem whose solution (1, 2, 3) has every column free."""
        X = np.abs(np.random.default_rng(0).normal(size=(6, 3)))
        return X, X @ np.array([1.0, 2.0, 3.0])

    def test_exhausted_max_iter_raises(self):
        """All three columns enter at the solution: one admission cannot reach it."""
        X, y = self.three_column_problem()
        np.testing.assert_allclose(nnls(X, y).coeffs, [1.0, 2.0, 3.0], atol=1e-10)
        with pytest.raises(NumericError, match="max_iter"):
            nnls(X, y, max_iter=1)

    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    def test_solution_follows_column_and_response_scale(self, scale):
        """Scaling X by s divides the solution by s; scaling y by s multiplies it by s."""
        X, y = self.three_column_problem()
        want = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(nnls(X * scale, y).coeffs, want / scale, rtol=1e-9)
        np.testing.assert_allclose(nnls(X, y * scale).coeffs, want * scale, rtol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda k: st.tuples(
            arrays(float, (k + 3, k), elements=st.integers(-10, 10).map(float)),
            arrays(float, k + 3, elements=st.floats(-10, 10)),
        ))
    )
    def test_matches_scipy_oracle(self, problem):
        """Coefficients agree with scipy's NNLS to 1e-8 (|b| + 1), coefficient by coefficient.

        Rounding puts about eps * cond(X) * max|b| on a coefficient whose
        exact value is zero, so the absolute floor of 1 holds only while
        max|b| is moderate. Integer entries with cond(X) < 1e3 bound it by
        |y| / sigma_min(X) < 3e4; entries like 1e-180 would make it 1e180.
        """
        X, y = problem
        assume(np.linalg.cond(X) < 1e3)  # full column rank, so the solution is unique
        want, _ = scipy.optimize.nnls(X, y)
        got = nnls(X, y).coeffs
        assert np.all(np.abs(got - want) <= 1e-8 * (np.abs(want) + 1.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_random_feasible_points(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        res = nnls(X, y)
        samples = rng.uniform(0, 3, size=(10_000, 3))
        rss = np.sum((y[None, :] - samples @ X.T) ** 2, axis=1)
        assert res.rss <= rss.min() + 1e-8


def linear_frame(n=400, seed=0, a=2.0, bc=5.0, br=0.5, noise=0.0):
    """Noise-free (or noisy) data from the set-arithmetic prediction equations."""
    rng = np.random.default_rng(seed)
    xc = rng.normal(5, 2, n)
    xr = rng.uniform(0.5, 1.5, n)
    yc = a * xc + bc + noise * rng.normal(size=n)
    yr = abs(a) * xr + br + noise * rng.normal(size=n)
    return IntervalFrame(("x1",), xc[:, None], xr[:, None], yc, yr)


class TestFitLinear:
    def test_setting1_ccrm_recovers_generative_coefficients(self):
        frame = simulate(SimSetting(1, 20_000, 3))
        fit = fit_linear("ccrm", frame)
        assert abs(fit.first_coeffs[1] - 2.0) <= 0.1
        assert abs(fit.first_coeffs[0] - 5.0) <= 0.3
        assert abs(fit.second_coeffs[1] - 2.0) <= 0.1
        assert abs(fit.second_coeffs[0] - 0.5) <= 0.1

    def test_setting2_radius_intercept_pinned_at_zero(self):
        frame = simulate(SimSetting(2, 5_000, 3))
        fit = fit_linear("ccrm", frame)
        assert fit.second_coeffs[0] == 0.0
        assert 0 in fit.active_constraints
        # KKT dual for the pinned intercept must be nonnegative
        X = design(frame.x_radius)
        g = X.T @ (X @ fit.second_coeffs - frame.y_radius)
        assert g[0] >= -1e-8

    def test_noise_free_recovery(self):
        frame = linear_frame(noise=0.0)
        fit = fit_linear("ccrm", frame)
        np.testing.assert_allclose(fit.first_coeffs, [5.0, 2.0], atol=1e-6)
        np.testing.assert_allclose(fit.second_coeffs, [0.5, 2.0], atol=1e-6)
        pred = predict_linear_frame(fit, frame)
        assert np.mean((pred.center - frame.y_center) ** 2) <= 1e-12
        assert np.mean((pred.radius - frame.y_radius) ** 2) <= 1e-12

    def test_crm_equals_ccrm_when_constraints_inactive(self):
        frame = linear_frame(noise=0.05, seed=8)
        ccrm = fit_linear("ccrm", frame)
        crm = fit_linear("crm", frame)
        assert not ccrm.active_constraints
        np.testing.assert_allclose(ccrm.second_coeffs, crm.second_coeffs, atol=1e-10)

    def test_minmax_fits_bounds(self):
        frame = linear_frame(noise=0.0)
        fit = fit_linear("minmax", frame)
        pred = predict_linear_frame(fit, frame)
        assert np.mean((pred.center - frame.y_center) ** 2) <= 1e-10

    def test_too_few_rows(self):
        frame = linear_frame(n=2)
        with pytest.raises(UnderdeterminedError):
            fit_linear("ccrm", frame)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            fit_linear("ridge", linear_frame(n=10))


class TestPredictLinear:
    def test_ccrm_prediction_is_coherent(self):
        fit = fit_linear("ccrm", linear_frame(noise=0.1, seed=4))
        pred = predict_linear(fit, np.array([[6.0]]), np.array([[1.0]]))
        assert pred.radius[0] >= 0
        assert not pred.incoherent[0]

    def test_crm_negative_radius_flagged_not_repaired(self):
        frame = simulate(SimSetting(2, 2_000, 9))
        fit = fit_linear("crm", frame)
        # query far below the training radius range, like radius 1
        pred = predict_linear(fit, np.array([[10.0]]), np.array([[1.0]]))
        assert pred.radius[0] < 0
        assert pred.incoherent[0]
        assert pred.upper[0] < pred.lower[0]

    def test_minmax_crossing_lines_flagged(self):
        """Coherent training set whose lower/upper OLS lines cross past it."""
        xc = np.array([0.0, 0.4, 0.8, 1.2, 1.6, 2.0])
        xr = np.zeros(6)
        ylo = xc.copy()  # steep lower line
        yhi = 2.1 + 0.05 * xc  # nearly flat upper line; still above ylo here
        assert np.all(yhi >= ylo)
        frame = IntervalFrame(
            ("x1",), xc[:, None], xr[:, None], 0.5 * (ylo + yhi), 0.5 * (yhi - ylo)
        )
        fit = fit_linear("minmax", frame)
        pred = predict_linear(fit, np.array([[5.0]]), np.array([[0.0]]))
        assert pred.incoherent[0]  # fitted lower line exceeds upper line at x=5

    def test_dimension_mismatch(self):
        fit = fit_linear("ccrm", linear_frame(n=20))
        from ivforest.errors import DimensionError

        with pytest.raises(DimensionError):
            predict_linear(fit, np.ones((1, 2)), np.ones((1, 2)))


class TestSerialization:
    def test_round_trip(self):
        fit = fit_linear("ccrm", simulate(SimSetting(2, 300, 1)))
        again = model_from_json(linear_to_json(fit), kinds=VARIANTS)
        np.testing.assert_array_equal(again.first_coeffs, fit.first_coeffs)
        np.testing.assert_array_equal(again.second_coeffs, fit.second_coeffs)
        assert again.variant == fit.variant
        assert again.active_constraints == fit.active_constraints

    def test_wrong_document_kind(self):
        with pytest.raises(ValueError):
            model_from_json('{"model": "rf"}', kinds=VARIANTS)
