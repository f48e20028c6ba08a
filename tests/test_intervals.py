import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivforest.errors import ConfigError, DimensionError
from ivforest.intervals import delta_distance, hausdorff, hyper_distance, w_distance

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

bounds_st = st.tuples(finite, finite).map(lambda t: (min(t), max(t)))


def cr(lower, upper):
    """(center, radius) of [lower, upper]; works on scalars and arrays."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return 0.5 * (lower + upper), 0.5 * (upper - lower)


def bound_arrays(pairs):
    """Lower and upper bound arrays of a list of (lower, upper) pairs."""
    return np.array([lo for lo, _ in pairs]), np.array([hi for _, hi in pairs])


class TestMetrics:
    def test_hausdorff_examples(self):
        assert hausdorff(cr(0, 2), cr(1, 3)) == 1
        a = cr(-3, 4)
        assert hausdorff(a, a) == 0
        assert hausdorff(cr(0, 1), cr(5, 9)) == 8
        # the same three pairs at once, elementwise
        got = hausdorff(cr([0, -3, 0], [2, 4, 1]), cr([1, -3, 5], [3, 4, 9]))
        np.testing.assert_array_equal(got, [1.0, 0.0, 8.0])

    @given(st.lists(st.tuples(bounds_st, bounds_st), min_size=1, max_size=20))
    def test_hausdorff_closed_form_matches_endpoint_max(self, pairs):
        (al, au), (bl, bu) = bound_arrays([a for a, _ in pairs]), bound_arrays([b for _, b in pairs])
        endpoint = np.maximum(np.abs(al - bl), np.abs(au - bu))
        # the closed form works in center/radius coordinates, whose rounding
        # scales with the bounds, not with the distance: tolerance 1e-12
        # relative to the intervals' own magnitude
        tol = 1e-12 * np.maximum.reduce([np.ones_like(al), abs(al), abs(au), abs(bl), abs(bu)])
        assert np.all(np.abs(hausdorff(cr(al, au), cr(bl, bu)) - endpoint) <= tol)

    def test_delta_examples(self):
        assert delta_distance(cr(0, 2), cr(1, 3)) == 1
        a = cr(2, 5)
        assert delta_distance(a, a) == 0
        assert math.isclose(delta_distance(cr(0, 2), cr(0, 4)), math.sqrt(2))

    def test_w_distance_reduces_to_delta_at_one(self):
        a, b = cr([0, 1, -2], [2, 1, 3]), cr([0, 4, -1], [4, 7, 0])
        np.testing.assert_array_equal(w_distance(a, b, 1.0), delta_distance(a, b))

    def test_w_distance_lebesgue_third(self):
        got = w_distance(cr(0, 2), cr(0, 4), 1.0 / 3.0)
        assert math.isclose(got, math.sqrt(4.0 / 3.0), rel_tol=1e-12)

    def test_w_distance_identity(self):
        a = cr(-1, 6)
        for c in (0.1, 1 / 3, 1.0):
            assert w_distance(a, a, c) == 0

    @given(bounds_st, bounds_st, st.floats(min_value=1e-6, max_value=1.0))
    def test_w_distance_quadrature_oracle(self, a, b, c):
        """Closed form equals the integral of squared support-point differences.

        With the weighting measure W(dl) = w(l) dl chosen so that
        int (2l-1)^2 w(l) dl = c and int w(l) dl = 1, the distance is
        int [f_a(l) - f_b(l)]^2 W(dl) where f_x(l) = l*upper + (1-l)*lower.
        A symmetric two-point-plus-uniform mixture realizes any c in (1/3, 1];
        pure Lebesgue gives c = 1/3, so test both families.
        """
        lam = np.linspace(0.0, 1.0, 20001)
        fa = lam * a[1] + (1 - lam) * a[0]
        fb = lam * b[1] + (1 - lam) * b[0]
        diff2 = (fa - fb) ** 2
        if c >= 1.0 / 3.0:
            # mixture: mass m split between endpoint atoms, rest Lebesgue
            m = (c - 1.0 / 3.0) / (2.0 / 3.0)
            integral = m * 0.5 * (diff2[0] + diff2[-1]) + (1 - m) * np.trapezoid(diff2, lam)
        else:
            # beta-like symmetric density w(l) ~ (l(1-l))^k scaled: use
            # w(l) = (1-m) * uniform + m * atom at 1/2, giving c = (1-m)/3
            m = 1.0 - 3.0 * c
            mid = diff2[10000]
            integral = m * mid + (1 - m) * np.trapezoid(diff2, lam)
        got = w_distance(cr(*a), cr(*b), c)
        assert math.isclose(got, math.sqrt(integral), rel_tol=1e-5, abs_tol=1e-5)

    def test_hyper_distance_examples(self):
        x = np.array([[1.0, 1.0]])  # [0, 2] as (center, radius)
        y = np.array([[3.0, 1.0]])  # [2, 4]
        assert hyper_distance(x, y).shape == (1, 1)
        assert hyper_distance(x, y)[0, 0] == 2
        assert hyper_distance(x, x)[0, 0] == 0

    def test_hyper_distance_two_components(self):
        # rows hold centers then radii: x = ([0, 2], [0, 2]), y = ([2, 4], [0, 4]);
        # per-component squared terms: (1-3)^2 + 0 and (1-2)^2 + (1-2)^2
        x = np.array([[1.0, 1.0, 1.0, 1.0]])
        y = np.array([[3.0, 2.0, 1.0, 2.0]])
        assert math.isclose(hyper_distance(x, y)[0, 0], math.sqrt(6.0), rel_tol=1e-12)

    @settings(max_examples=60)
    @given(
        st.integers(1, 3), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e4, 1e8]),
    )
    def test_hyper_distance_matches_direct_differences(self, p, m, n, seed, shift):
        """(m, n) pairwise distances against a loop over rows and coordinates.

        The expansion rounds in proportion to the rows' squared spread about
        ``b``'s mean, not their magnitude, so a shift of the centers by up
        to 1e8 does not widen the tolerance.
        """
        rng = np.random.default_rng(seed)
        a = np.hstack([rng.normal(size=(m, p)) + shift, np.abs(rng.normal(size=(m, p)))])
        b = np.hstack([rng.normal(size=(n, p)) + shift, np.abs(rng.normal(size=(n, p)))])
        got = hyper_distance(a, b)
        assert got.shape == (m, n)
        spread2 = max(np.sum((a - b.mean(axis=0)) ** 2, axis=1).max(),
                      np.sum((b - b.mean(axis=0)) ** 2, axis=1).max())
        for i in range(m):
            for j in range(n):
                want2 = sum((a[i, k] - b[j, k]) ** 2 for k in range(2 * p))
                assert abs(got[i, j] ** 2 - want2) <= 1e-12 * spread2

    def test_hyper_distance_dimension_mismatch(self):
        x = np.array([[0.5, 0.5]])
        y = np.array([[0.5, 0.5, 0.5, 0.5]])
        with pytest.raises(DimensionError):
            hyper_distance(x, y)


def _axioms(dist, triples):
    for a, b, c in triples:
        dab, dba = dist(a, b), dist(b, a)
        assert dab >= 0
        assert math.isclose(dab, dba, rel_tol=1e-9, abs_tol=1e-9)
        assert dist(a, a) <= 1e-9
        assert dab <= dist(a, c) + dist(c, b) + 1e-9


@settings(max_examples=60)
@given(st.lists(bounds_st, min_size=3, max_size=3))
def test_metric_axioms_property(ivs):
    a, b, c = (cr(*iv) for iv in ivs)
    _axioms(hausdorff, [(a, b, c)])
    _axioms(delta_distance, [(a, b, c)])
    _axioms(lambda u, v: w_distance(u, v, 0.4), [(a, b, c)])
    _axioms(lambda u, v: hyper_distance(np.array([u]), np.array([v]))[0, 0], [(a, b, c)])


class TestWWeight:
    """The radius weight ``c_weight`` of ``w_distance`` lies in (0, 1]."""

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.1, float("nan")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigError):
            w_distance(cr(0, 2), cr(0, 4), bad)

    def test_unit_weight_allowed(self):
        assert w_distance(cr(0, 2), cr(0, 4), 1.0) == math.sqrt(2.0)
