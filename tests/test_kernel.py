import math

import numpy as np
import pytest

from ivforest.errors import ConfigError, DimensionError, EmptySampleError
from ivforest.frame import IntervalFrame, SplitSpec, split
from ivforest.intervals import hyper_distance
from ivforest.kernel import (
    KernelFit,
    default_grid,
    fit_kernel,
    kernel_to_json,
    kernel_weight,
    loo_loss,
    predict_kernel_frame,
    predict_kernel_rows,
    select_bandwidth,
)
from ivforest.models import model_from_json
from ivforest.simulate import SimSetting, simulate


def frame_from_rows(xc, xr, yc, yr, names=None):
    xc = np.atleast_2d(np.asarray(xc, dtype=float))
    if xc.shape[0] == 1 and len(np.asarray(yc).ravel()) > 1:
        xc = xc.T
    xr = np.reshape(np.asarray(xr, dtype=float), xc.shape)
    names = names or tuple(f"x{i+1}" for i in range(xc.shape[1]))
    return IntervalFrame(names, xc, xr, np.asarray(yc, float), np.asarray(yr, float))


def hand_weighted_average(dists, values, h, kernel="gaussian"):
    """Independent oracle: explicit loop over the weighted-average formula."""
    num = den = 0.0
    for d, v in zip(dists, values):
        w = kernel_weight(kernel, np.array([d / h]))[0]
        num += w * v
        den += w
    return num / den


def train_grid(train):
    """:func:`default_grid` over the training rows' own distance matrix."""
    feats = train.features()
    return default_grid(hyper_distance(feats, feats))


class TestPredict:
    def test_equidistant_pair_averages(self):
        # two training rows symmetric around the query: prediction [0, 4]
        train = frame_from_rows([[-1.0], [1.0]], [[0.5], [0.5]], [0.0, 4.0], [1.0, 3.0])
        fit = fit_kernel(train, h=1.0)
        got = predict_kernel_rows(fit, np.array([[0.0, 0.5]]))  # the interval [-0.5, 0.5]
        assert (got.lower[0], got.upper[0]) == (0.0, 4.0)

    def test_huge_bandwidth_gives_training_mean(self):
        rng = np.random.default_rng(3)
        train = frame_from_rows(
            rng.normal(size=(8, 1)), np.abs(rng.normal(size=(8, 1))),
            rng.normal(size=8), np.abs(rng.normal(size=8)),
        )
        fit = fit_kernel(train, h=1e9)
        pred = predict_kernel_rows(fit, np.array([[5.0, 1.0]]))
        assert math.isclose(pred.center[0], train.y_center.mean(), rel_tol=1e-9)
        assert math.isclose(pred.radius[0], train.y_radius.mean(), rel_tol=1e-9)

    def test_three_point_hand_oracle(self):
        """Training rows at distances 0, 1, 2 with centers 0, 1, 2 and h = 1."""
        train = frame_from_rows([[0.0], [1.0], [2.0]], [[0.0], [0.0], [0.0]], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        fit = fit_kernel(train, h=1.0)
        pred = predict_kernel_rows(fit, np.array([[0.0, 0.0]]))
        expected = (0.0 + 1.0 * math.exp(-0.5) + 2.0 * math.exp(-2.0)) / (
            1.0 + math.exp(-0.5) + math.exp(-2.0)
        )
        assert math.isclose(expected, 0.503598586180876, rel_tol=1e-12)
        assert math.isclose(pred.center[0], expected, rel_tol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 5, rng.integers(1, 4)
        train = frame_from_rows(
            rng.normal(size=(n, p)), np.abs(rng.normal(size=(n, p))),
            rng.normal(size=n), np.abs(rng.normal(size=n)),
        )
        fit = fit_kernel(train, h=float(rng.uniform(0.5, 3.0)))
        q = np.concatenate([rng.normal(size=p), np.abs(rng.normal(size=p))])
        # hand loop over the p center and p radius coordinates of each row
        dists = []
        for i in range(n):
            total = 0.0
            for k in range(p):
                dc = q[k] - train.x_center[i, k]
                dr = q[p + k] - train.x_radius[i, k]
                total += dc * dc + dr * dr
            dists.append(math.sqrt(total))
        pred = predict_kernel_rows(fit, q[None, :])
        for values, got in ((train.y_center, pred.center[0]), (train.y_radius, pred.radius[0])):
            want = hand_weighted_average(dists, values, fit.h)
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)

    def test_prediction_stays_in_training_hull(self):
        rng = np.random.default_rng(44)
        train = frame_from_rows(
            rng.normal(size=(30, 2)), np.abs(rng.normal(size=(30, 2))),
            rng.normal(size=30), np.abs(rng.normal(size=30)),
        )
        fit = fit_kernel(train, h=0.7)
        queries = np.column_stack([rng.normal(size=(50, 2)) * 3, np.abs(rng.normal(size=(50, 2)))])
        pred = predict_kernel_rows(fit, queries)
        assert np.all(pred.center >= train.y_center.min() - 1e-12)
        assert np.all(pred.center <= train.y_center.max() + 1e-12)
        assert np.all(pred.radius >= train.y_radius.min() - 1e-12)
        assert np.all(pred.radius <= train.y_radius.max() + 1e-12)
        assert np.all(pred.radius >= 0)

    def test_training_point_recovered_as_h_shrinks(self):
        rng = np.random.default_rng(7)
        train = frame_from_rows(
            np.arange(6, dtype=float)[:, None], np.ones((6, 1)),
            rng.normal(size=6), np.abs(rng.normal(size=6)),
        )
        fit = fit_kernel(train, h=1e-3)
        pred = predict_kernel_rows(fit, train.features()[2][None, :])
        assert math.isclose(pred.center[0], train.y_center[2], rel_tol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(12)
        train = frame_from_rows(
            rng.normal(size=(12, 1)), np.abs(rng.normal(size=(12, 1))),
            rng.normal(size=12), np.abs(rng.normal(size=12)),
        )
        perm = rng.permutation(12)
        shuffled = train.take(perm)
        q = np.array([[0.3, 0.8]])
        a = predict_kernel_rows(fit_kernel(train, h=0.9), q)
        b = predict_kernel_rows(fit_kernel(shuffled, h=0.9), q)
        assert math.isclose(a.center[0], b.center[0], rel_tol=1e-12)
        assert math.isclose(a.radius[0], b.radius[0], rel_tol=1e-12)

    def test_far_query_compact_kernel_falls_back_to_nearest(self):
        train = frame_from_rows([[0.0], [10.0]], [[0.1], [0.1]], [1.0, 9.0], [0.5, 0.7])
        fit = fit_kernel(train, h=1.0, kernel="epanechnikov")
        pred = predict_kernel_rows(fit, np.array([[100.0, 0.1]]))
        assert pred.extrapolated[0]
        assert pred.center[0] == 9.0  # nearest neighbor's response

    def test_weights_sum_to_one_when_positive(self):
        rng = np.random.default_rng(2)
        train = frame_from_rows(
            rng.normal(size=(9, 1)), np.abs(rng.normal(size=(9, 1))),
            rng.normal(size=9), np.abs(rng.normal(size=9)),
        )
        fit = fit_kernel(train, h=1.1)
        d = hyper_distance(np.array([[0.0, 1.0]]), fit.x_features)
        w = kernel_weight("gaussian", d / fit.h)
        w = w / w.sum()
        assert math.isclose(w.sum(), 1.0, rel_tol=1e-12)

    def test_dimension_mismatch(self):
        train = frame_from_rows([[0.0]], [[0.1]], [1.0], [0.5])
        fit = KernelFit(("x1",), train.features(), train.y_center, train.y_radius, 1.0)
        with pytest.raises(DimensionError):  # two intervals [0, 1] for a one-predictor model
            predict_kernel_rows(fit, np.full((1, 4), 0.5))


class TestBandwidth:
    def test_single_grid_value_returned(self):
        train = frame_from_rows(
            np.arange(5, dtype=float)[:, None], np.ones((5, 1)),
            np.arange(5, dtype=float), np.ones(5),
        )
        assert select_bandwidth(train, "gaussian", np.array([0.37])) == 0.37

    def test_duplicated_noise_free_data_zero_loss(self):
        """With exact duplicates, small bandwidths interpolate exactly; ties
        among zero-loss grid values resolve to the largest of them."""
        base_x = np.array([0.0, 1.0, 2.0, 3.0])
        xc = np.repeat(base_x, 2)[:, None]
        yc = np.repeat([5.0, 6.0, 7.0, 8.0], 2)
        train = frame_from_rows(xc, np.zeros_like(xc), yc, np.ones(8))
        grid = np.array([1e-3, 3e-3, 1e-2, 0.5, 1.0])
        h = select_bandwidth(train, "gaussian", grid)
        assert loo_loss(train, "gaussian", h) == 0.0
        zero_losses = [g for g in grid if loo_loss(train, "gaussian", float(g)) == 0.0]
        assert h == max(zero_losses)

    def test_empty_grid_rejected(self):
        train = frame_from_rows(np.arange(4.0)[:, None], np.ones((4, 1)), np.arange(4.0), np.ones(4))
        with pytest.raises(ConfigError):
            select_bandwidth(train, "gaussian", np.array([]))

    def test_nonpositive_grid_rejected(self):
        train = frame_from_rows(np.arange(4.0)[:, None], np.ones((4, 1)), np.arange(4.0), np.ones(4))
        with pytest.raises(ConfigError):
            select_bandwidth(train, "gaussian", np.array([0.5, -1.0]))

    def test_needs_three_rows(self):
        train = frame_from_rows([[0.0], [1.0]], [[0.1], [0.1]], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(EmptySampleError):
            select_bandwidth(train, "gaussian")

    def test_default_grid_spans_median_scale(self):
        rng = np.random.default_rng(5)
        train = frame_from_rows(
            rng.normal(size=(20, 1)), np.abs(rng.normal(size=(20, 1))),
            rng.normal(size=20), np.abs(rng.normal(size=20)),
        )
        grid = train_grid(train)
        assert len(grid) == 20
        assert grid[0] < grid[-1]
        assert math.isclose(grid[-1] / grid[0], 100.0, rel_tol=1e-9)

    def test_default_grid_reads_strict_upper_triangle(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(15, 4))
        d = hyper_distance(feats, feats)
        marked = d.copy()
        np.fill_diagonal(marked, np.inf)
        marked[np.tril_indices(15, -1)] = -1.0
        np.testing.assert_array_equal(default_grid(marked), default_grid(d))

    def test_search_builds_one_distance_matrix(self, monkeypatch):
        import ivforest.kernel as kernel_module

        shapes = []

        def recorded(a, b):
            shapes.append((a.shape, b.shape))
            return hyper_distance(a, b)

        monkeypatch.setattr(kernel_module, "hyper_distance", recorded)
        train = simulate(SimSetting(5, 60, 3))
        h = select_bandwidth(train, "gaussian")
        assert shapes == [((60, 2), (60, 2))]
        assert h in train_grid(train)

    def test_selected_h_close_to_finer_grid_quality(self):
        """LOO choice on the default grid compares to a grid twice as fine."""
        from ivforest.evaluate import evaluate_frame

        frame = simulate(SimSetting(5, 250, 21))
        train, test = split(frame, SplitSpec(0.8, "random", seed=2))
        grid = train_grid(train)
        coarse = select_bandwidth(train, "gaussian", grid)
        # the default span, at 40 points
        fine = select_bandwidth(train, "gaussian", np.geomspace(grid[0], grid[-1], 40))
        r2 = {}
        for tag, h in (("coarse", coarse), ("fine", fine)):
            pred = predict_kernel_frame(fit_kernel(train, h=h), test)
            r2[tag] = evaluate_frame(pred, test).center.r2
        assert r2["coarse"] >= r2["fine"] - 0.05


class TestPriceScale:
    """Distances and the bandwidth choice do not depend on where the centers sit.

    Every predictor center of a setting-5 sample is moved by a constant as
    large as 1e8. The shifted centers are then moved back by the same
    constant, which is exact in floating point, so both frames hold the same
    rounded data and differ only in magnitude.
    """

    @staticmethod
    def with_centers(frame, x_center):
        return IntervalFrame(frame.predictor_names, x_center, frame.x_radius,
                             frame.y_center, frame.y_radius)

    @pytest.mark.parametrize("shift", [1e4, 1e8])
    def test_distances_and_bandwidth_do_not_move(self, shift):
        frame = simulate(SimSetting(5, 2000, 1))
        moved = frame.x_center + shift
        far, near = self.with_centers(frame, moved), self.with_centers(frame, moved - shift)
        far_train, far_test = split(far, SplitSpec(0.8, "chronological"))
        near_train, near_test = split(near, SplitSpec(0.8, "chronological"))
        got = hyper_distance(far_test.features(), far_train.features())
        want = hyper_distance(near_test.features(), near_train.features())
        scale = float(np.median(want))
        assert np.max(np.abs(got - want)) <= 1e-9 * scale
        picks = []
        for train in (far_train, near_train):
            grid = train_grid(train)
            picks.append(int(np.flatnonzero(grid == select_bandwidth(train, "gaussian"))[0]))
        assert picks[0] == picks[1]


class TestKernels:
    def test_known_values(self):
        u = np.array([0.0, 0.5, 1.0, 2.0])
        np.testing.assert_allclose(kernel_weight("uniform", u), [0.5, 0.5, 0.5, 0.0])
        np.testing.assert_allclose(kernel_weight("triangular", u), [1.0, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(kernel_weight("epanechnikov", u), [0.75, 0.5625, 0.0, 0.0])
        np.testing.assert_allclose(kernel_weight("gaussian", u), np.exp(-0.5 * u**2))

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError):
            kernel_weight("cubic", np.array([0.0]))

    def test_bad_bandwidth_rejected(self):
        train = frame_from_rows([[0.0]], [[0.1]], [1.0], [0.5])
        with pytest.raises(ConfigError):
            KernelFit(("x1",), train.features(), train.y_center, train.y_radius, h=0.0)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        train = frame_from_rows(
            rng.normal(size=(6, 2)), np.abs(rng.normal(size=(6, 2))),
            rng.normal(size=6), np.abs(rng.normal(size=6)),
        )
        fit = fit_kernel(train, h=0.8, kernel="triangular")
        again = model_from_json(kernel_to_json(fit), kinds=("ke",))
        q = np.array([[0.1, 0.2, 0.3, 0.4]])
        a, b = predict_kernel_rows(fit, q), predict_kernel_rows(again, q)
        assert a.center[0] == b.center[0]
        assert a.radius[0] == b.radius[0]
