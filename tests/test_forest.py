import dataclasses
import json
import math

import numpy as np
import pytest

from ivforest import forest
from ivforest.cli import main
from ivforest.errors import ConfigError, DimensionError, OOBUnavailableError, UnderdeterminedError
from ivforest.evaluate import evaluate_frame
from ivforest.forest import (
    _CHUNK_SAMPLES,
    Ensemble,
    ForestParams,
    Tree,
    _sums,
    _tree_sums,
    fit_forest,
    forest_from_json,
    forest_to_json,
    grow_trees,
    oob_error,
    predict_forest_frame,
    predict_forest_rows,
)
from ivforest.frame import IntervalFrame, SplitSpec, split
from ivforest.models import model_from_json
from ivforest.rng import stream
from ivforest.simulate import SimSetting, simulate
from splits import ensemble_of, leaf_of, node_counts, root_split


def brute_force_split(rows, y, features, X, min_child=1, tol=1e-12):
    """Enumerate every (feature, midpoint) pair with direct sums."""
    rows = np.asarray(rows)
    yn = y[rows]
    n = yn.size
    parent_rss = float(np.sum((yn - yn.mean()) ** 2))
    best = None
    for f in sorted(int(v) for v in features):
        xv = X[rows, f]
        xs = np.sort(np.unique(xv))
        for a, b in zip(xs[:-1], xs[1:]):
            thr = 0.5 * (a + b)
            mask = xv <= thr
            nl = int(mask.sum())
            if nl < min_child or n - nl < min_child:
                continue
            yl, yr = yn[mask], yn[~mask]
            rss = float(np.sum((yl - yl.mean()) ** 2) + np.sum((yr - yr.mean()) ** 2))
            if parent_rss - rss <= tol:
                continue
            if best is None or rss < best[2] - 1e-15:
                best = (f, thr, rss)
    return best


def frame_of(xc, xr, yc, yr):
    xc = np.atleast_2d(np.asarray(xc, float))
    if xc.shape[0] == 1 and len(np.asarray(yc).ravel()) > 1:
        xc = xc.T
    xr = np.reshape(np.asarray(xr, float), xc.shape)
    names = tuple(f"x{i+1}" for i in range(xc.shape[1]))
    return IntervalFrame(names, xc, xr, np.asarray(yc, float), np.asarray(yr, float))


class TestBestSplit:
    def test_step_function(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        got = root_split(y, X)
        oracle = brute_force_split(np.arange(4), y, [0], X)
        assert got is not None and oracle is not None
        assert got[0] == oracle[0] == 0
        assert got[1] == oracle[1] == 2.5
        assert got[2] <= 1e-12 and oracle[2] <= 1e-12

    def test_constant_response_returns_none(self):
        X = np.arange(6, dtype=float)[:, None]
        assert root_split(np.full(6, 3.0), X) is None

    def test_identical_feature_values_returns_none(self):
        X = np.ones((2, 1))
        assert root_split(np.array([0.0, 1.0]), X) is None

    def test_min_child_filters_thresholds(self):
        X = np.arange(10, dtype=float)[:, None]
        y = np.array([0.0] * 1 + [5.0] * 9)  # best unconstrained split isolates row 0
        unconstrained = root_split(y, X)
        constrained = root_split(y, X, min_child=3)
        assert unconstrained[1] == 0.5
        assert constrained[1] >= 2.5

    def test_tie_breaks_lowest_feature_then_threshold(self):
        # identical duplicated feature columns: equal RSS, feature 0 must win
        X = np.column_stack([np.arange(4.0), np.arange(4.0)])
        y = np.array([0.0, 0.0, 8.0, 8.0])
        got = root_split(y, X)
        assert got[0] == 0
        # symmetric y: thresholds 0.5 and 2.5 tie; the lower one wins
        y2 = np.array([0.0, 4.0, 4.0, 8.0])
        got2 = root_split(y2, X[:, :1])
        assert got2[1] == 0.5

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 5))
        X = np.round(rng.normal(size=(n, m)), 2)  # rounded values create ties
        y = rng.normal(size=n)
        rows = np.arange(n)
        got = root_split(y, X)
        oracle = brute_force_split(rows, y, list(range(m)), X)
        if oracle is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == oracle[0]
            assert math.isclose(got[1], oracle[1], rel_tol=1e-12)
            assert math.isclose(got[2], oracle[2], rel_tol=1e-9, abs_tol=1e-9)


def grow_tree(bootstrap, y, X, params, rng):
    """One tree from the level-wise builder."""
    return grow_trees(X, y, [np.asarray(bootstrap)], [rng], params).trees[0]


class TestGrowTree:
    def test_min_node_at_least_n_gives_single_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        tree = grow_tree(np.arange(12), y, X, ForestParams(min_node=12, seed=0), stream("t", 0))
        assert tree.n_leaves == 1
        assert math.isclose(tree.value[0], y.mean(), rel_tol=1e-12)

    def test_noise_free_step_function_depth_one(self):
        X = np.linspace(-1, 1, 20)[:, None]
        y = (X[:, 0] > 0).astype(float)
        params = ForestParams(min_node=5, mtry=1, seed=0)
        tree = grow_tree(np.arange(20), y, X, params, stream("t", 1))
        assert tree.n_leaves == 2
        oracle = brute_force_split(np.arange(20), y, [0], X, min_child=5)
        assert math.isclose(tree.threshold[0], oracle[1], rel_tol=1e-12)
        sums, counts = _tree_sums(ensemble_of([tree]), np.array([[-0.5], [0.5]]))
        np.testing.assert_allclose(sums / counts, [0.0, 1.0])

    def test_constant_response_single_leaf(self):
        X = np.random.default_rng(1).normal(size=(30, 2))
        y = np.full(30, 7.0)
        tree = grow_tree(np.arange(30), y, X, ForestParams(seed=0), stream("t", 2))
        assert tree.n_leaves == 1

    def test_leaves_respect_min_node(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        params = ForestParams(min_node=5, seed=0)
        boot = stream("boot", 1).integers(0, 80, 80)
        tree = grow_tree(boot, y, X, params, stream("t", 3))
        leaf_counts = node_counts(tree, X[boot])[tree.feature < 0]
        assert leaf_counts.min() >= 5

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        tree = grow_tree(np.arange(100), y, X, ForestParams(max_depth=1, seed=0), stream("t", 4))
        assert tree.n_leaves <= 2


class TestLevelWiseBuilder:
    def test_tree_does_not_depend_on_forest_size(self):
        """Tree t is the same array for array whether it is grown with 2 or
        49 other trees; 50 trees of 1600 rows span several sample chunks."""
        frame = simulate(SimSetting(7, 1600, 21))
        params = ForestParams(n_trees=50, seed=8)
        assert params.resolved_mtry(10) < 10
        big = fit_forest(frame, params)
        small = fit_forest(frame, ForestParams(n_trees=3, seed=8))
        for component in ("center_trees", "radius_trees"):
            for a, b in zip(getattr(small, component), getattr(big, component)):
                for name in ("feature", "threshold", "left", "right", "value", "bootstrap"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    @pytest.mark.parametrize("setting", [1, 7])
    def test_right_child_follows_left(self, setting):
        fit = fit_forest(simulate(SimSetting(setting, 200, 6)), ForestParams(n_trees=20, seed=3))
        for tree in fit.center_trees + fit.radius_trees:
            split = tree.feature >= 0
            np.testing.assert_array_equal(tree.right[split], tree.left[split] + 1)

    def test_children_of_trees_laid_end_to_end(self):
        """A tree holds only what growth decides, and derives its children. An ``Ensemble``
        derives the whole ensemble's at once: each tree's ``left``, moved to where the tree
        starts."""
        assert [f.name for f in dataclasses.fields(Tree)] == ["feature", "threshold", "value",
                                                              "bootstrap"]
        fit = fit_forest(simulate(SimSetting(3, 150, 2)), ForestParams(n_trees=8, seed=1))
        root = Tree(np.array([-1]), np.zeros(1), np.array([2.5]), np.arange(3))
        trees = [root, *fit.center_trees, root, *fit.radius_trees, root]
        ens = ensemble_of(trees)
        want = [np.where(t.feature >= 0, t.left + lo, -1) for t, lo in zip(trees, ens.bounds)]
        assert ens.left.tolist() == np.concatenate(want).tolist()

    def test_every_feature_a_candidate_draws_nothing(self):
        """With mtry == m no generator is drawn from, and the trees are those
        grown with generators that draw candidates."""

        class NoDraw:
            def random(self, *args, **kwargs):
                raise AssertionError("candidate features drawn")

        X = simulate(SimSetting(7, 150, 2)).features()
        y = np.random.default_rng(4).normal(size=150)
        m = X.shape[1]
        boots = [stream("boot", t).integers(0, 150, 150) for t in range(6)]
        for params in (ForestParams(mtry=m, min_node=2), ForestParams(mtry=m, max_depth=3)):
            real = grow_trees(X, y, boots, [stream("t", t) for t in range(6)], params)
            fake = grow_trees(X, y, boots, [NoDraw() for _ in range(6)], params)
            for a, b in zip(real.trees, fake.trees, strict=True):
                for name in ("feature", "threshold", "left", "right", "value"):
                    x, z = getattr(a, name), getattr(b, name)
                    assert x.dtype == z.dtype and x.tobytes() == z.tobytes(), name

    @pytest.mark.parametrize("setting, decimals", [(3, None), (7, None), (7, 1)],
                             ids=["3", "7", "7 rounded"])
    def test_every_node_matches_brute_force(self, setting, decimals):
        """With ``decimals``, features are rounded, so different rows tie in
        a feature inside a node."""
        frame = simulate(SimSetting(setting, 90, 4))
        if decimals is not None:
            frame = IntervalFrame(frame.predictor_names, np.round(frame.x_center, decimals),
                                  np.round(frame.x_radius, decimals), frame.y_center,
                                  frame.y_radius)
        X = frame.features()
        m = X.shape[1]
        fit = fit_forest(frame, ForestParams(n_trees=4, mtry=m, min_node=3, seed=2))
        forest_from_json(forest_to_json(fit))  # every grown tree passes the model-file checks
        for trees, y in ((fit.center_trees, frame.y_center), (fit.radius_trees, frame.y_radius)):
            scale = float(np.max(np.abs(y)))
            for tree in trees:
                count = node_counts(tree, X[tree.bootstrap])
                stack = [(0, tree.bootstrap)]
                while stack:
                    node, rows = stack.pop()
                    assert count[node] == rows.size
                    f = tree.feature[node]
                    if f < 0:
                        assert abs(tree.value[node] - y[rows].mean()) <= 1e-12 * scale
                        continue
                    oracle = brute_force_split(rows, y, range(m), X, min_child=3)
                    assert oracle is not None and (f, tree.threshold[node]) == oracle[:2]
                    l, r = tree.left[node], tree.right[node]
                    go_left = X[rows, f] <= tree.threshold[node]
                    stack += [(l, rows[go_left]), (r, rows[~go_left])]

    def test_symmetric_tie_in_a_later_node_takes_lowest_threshold(self):
        """Rows 0-3 have symmetric responses, so thresholds 0.5 and 2.5 tie.
        Tree 1's root follows tree 0's root in the scored row, whose centered
        responses 1.1 - 2.2 and 3.3 - 2.2 do not sum to exactly zero."""
        X = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0])[:, None]
        y = np.array([0.0, 4.0, 4.0, 8.0, 1.1, 3.3])
        params = ForestParams(n_trees=2, min_node=1, max_depth=1)
        rngs = [stream("t", 5), stream("t", 6)]
        ens = grow_trees(X, y, [np.array([4, 5]), np.arange(4)], rngs, params)
        assert ens.trees[1].threshold[0] == 0.5

    @pytest.mark.parametrize("level", [0.1, 1e4 + 0.1, 1e8 + 0.3])
    def test_constant_response_is_one_leaf_at_any_scale(self, level):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 2))
        y = np.full(200, level)
        assert root_split(y, X) is None
        frame = IntervalFrame(("x1",), X[:, :1], np.abs(X[:, 1:]), y, np.full(200, 0.5))
        fit = fit_forest(frame, ForestParams(n_trees=10, seed=1))
        assert all(t.n_leaves == 1 for t in fit.center_trees + fit.radius_trees)


class TestDistinctRows:
    """Growth scores each tree's distinct bootstrap rows, weighted by how many times each
    was drawn; counts, ``min_node`` and leaf means still count every draw."""

    def test_growth_scores_only_distinct_rows(self, monkeypatch):
        calls = []
        best_splits = forest._best_splits

        def record(xs, *args):
            calls.append(xs.shape)
            return best_splits(xs, *args)

        monkeypatch.setattr(forest, "_best_splits", record)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        boot = rng.permutation(np.repeat(rng.choice(40, 8, replace=False), 5))
        tree = grow_tree(boot, y, X, ForestParams(min_node=2, mtry=2), stream("t", 0))
        assert calls[0] == (2, np.unique(boot).size) == (2, 8)
        assert node_counts(tree, X[boot])[0] == boot.size == 40

    @pytest.mark.parametrize("copies, splits", [(4, False), (5, True)])
    def test_min_node_counts_copies(self, copies, splits):
        """Row 0 alone is below rows 1-6, which tie in X but differ in y, so the only split
        leaves row 0's copies on the left."""
        X = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])[:, None]
        y = np.array([50.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        boot = np.array([1, 2, 0, 3, 4, 5, 6] + [0] * (copies - 1))
        tree = grow_tree(boot, y, X, ForestParams(min_node=5, mtry=1), stream("t", 1))
        if splits:
            assert tree.feature.tolist() == [0, -1, -1]
            assert tree.threshold[0] == 0.5
            assert node_counts(tree, X[boot]).tolist() == [6 + copies, copies, 6]
        else:
            assert tree.feature.tolist() == [-1]
            assert node_counts(tree, X[boot]).tolist() == [6 + copies]

    @pytest.mark.parametrize("seed", range(4))
    def test_leaf_value_is_the_draw_order_mean(self, seed):
        """Each leaf's value has the bytes of its routed draws' responses summed in draw
        order, then divided by its count."""
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(30, 3)), 1)  # rows that tie in X
        y = 1e4 + rng.normal(size=30) * 10.0 ** rng.integers(-3, 4, 30)
        boot = rng.choice(rng.choice(30, 9, replace=False), 60)  # about 7 copies of a row
        tree = grow_tree(boot, y, X, ForestParams(min_node=3, mtry=2), stream("t", seed))
        assert tree.n_leaves > 2
        leaf = leaf_of(tree, X[boot])
        for node in np.flatnonzero(tree.feature < 0).tolist():
            total = 0.0
            for row in boot[leaf == node].tolist():
                total += float(y[row])
            assert tree.value[node].tobytes() == np.float64(total / np.sum(leaf == node)).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_splits_depend_only_on_multiplicities(self, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(50, 4)), 1)  # rows that tie in X
        y = rng.normal(size=50)
        boot = rng.choice(rng.choice(50, 20, replace=False), 50)
        params = ForestParams(min_node=2, mtry=2)
        a = grow_tree(boot, y, X, params, stream("t", seed))
        b = grow_tree(rng.permutation(boot), y, X, params, stream("t", seed))
        assert a.n_leaves > 2
        for name in ("feature", "threshold", "left"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12)


class TestFitForest:
    def small_frame(self, n=60, seed=9):
        rng = np.random.default_rng(seed)
        xc = rng.normal(size=(n, 1))
        xr = np.abs(rng.normal(size=(n, 1)))
        yc = 2 * xc[:, 0] + rng.normal(scale=0.1, size=n)
        yr = np.abs(xr[:, 0] + rng.normal(scale=0.1, size=n))
        return IntervalFrame(("x1",), xc, xr, yc, yr)

    def test_identical_responses_predict_that_interval(self):
        rng = np.random.default_rng(2)
        frame = IntervalFrame(
            ("x1",), rng.normal(size=(20, 1)), np.abs(rng.normal(size=(20, 1))),
            np.full(20, 3.0), np.full(20, 1.0),
        )
        fit = fit_forest(frame, ForestParams(n_trees=10, seed=1))
        got = predict_forest_rows(fit, np.array([[0.5, 0.5]]))  # the interval [0, 1]
        assert (got.lower[0], got.upper[0]) == (2.0, 4.0)

    def test_fixed_seed_byte_identical_serialization(self):
        frame = self.small_frame()
        a = forest_to_json(fit_forest(frame, ForestParams(n_trees=12, seed=77)))
        b = forest_to_json(fit_forest(frame, ForestParams(n_trees=12, seed=77)))
        assert a == b

    def test_different_seed_differs(self):
        frame = self.small_frame()
        a = forest_to_json(fit_forest(frame, ForestParams(n_trees=5, seed=1)))
        b = forest_to_json(fit_forest(frame, ForestParams(n_trees=5, seed=2)))
        assert a != b

    def test_needs_two_rows(self):
        frame = self.small_frame(n=2).take([0])
        with pytest.raises(UnderdeterminedError):
            fit_forest(frame, ForestParams(n_trees=2, seed=0))

    def test_single_tree_single_leaf_is_global_mean(self):
        frame = self.small_frame(n=30)
        params = ForestParams(n_trees=1, mtry=2, min_node=30, seed=5)
        fit = fit_forest(frame, params)
        pred = predict_forest_rows(fit, np.array([[0.0, 1.0], [9.0, 9.0]]))
        np.testing.assert_allclose(pred.center, frame.y_center[fit.center_trees[0].bootstrap].mean())
        np.testing.assert_allclose(pred.radius, frame.y_radius[fit.radius_trees[0].bootstrap].mean())

    def test_convex_hull_property(self):
        frame = self.small_frame(n=80, seed=3)
        fit = fit_forest(frame, ForestParams(n_trees=30, seed=4))
        rng = np.random.default_rng(0)
        queries = np.column_stack([rng.normal(size=40) * 10, np.abs(rng.normal(size=40)) * 10])
        pred = predict_forest_rows(fit, queries)
        assert np.all(pred.center >= frame.y_center.min() - 1e-12)
        assert np.all(pred.center <= frame.y_center.max() + 1e-12)
        assert np.all(pred.radius >= frame.y_radius.min() - 1e-12)
        assert np.all(pred.radius <= frame.y_radius.max() + 1e-12)
        assert np.all(pred.radius >= 0)
        assert not pred.incoherent.any()

    def test_training_points_recovered_on_noise_free_data(self):
        """Deep trees on noise-free linear data reproduce training responses
        to within the bootstrap-induced spread."""
        frame = simulate(SimSetting(1, 50, 13))
        fit = fit_forest(frame, ForestParams(n_trees=300, min_node=1, seed=6))
        pred = predict_forest_frame(fit, frame)
        oob_rmse = math.sqrt(fit.oob["center"]["mse"])
        rmse = math.sqrt(np.mean((pred.center - frame.y_center) ** 2))
        assert rmse <= 3 * oob_rmse

    def test_dimension_mismatch(self):
        fit = fit_forest(self.small_frame(), ForestParams(n_trees=2, seed=0))
        with pytest.raises(DimensionError):
            predict_forest_rows(fit, np.ones((1, 6)))
        with pytest.raises(DimensionError):  # two intervals [0, 1] for a one-predictor model
            predict_forest_rows(fit, np.full((1, 4), 0.5))

    def test_mtry_default_and_validation(self):
        assert ForestParams().resolved_mtry(2) == 2
        assert ForestParams().resolved_mtry(10) == 3
        assert ForestParams(mtry=4).resolved_mtry(10) == 4
        with pytest.raises(ValueError):
            ForestParams(mtry=11).resolved_mtry(10)
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)


class TestOob:
    def test_most_rows_usable_with_many_trees(self):
        rng = np.random.default_rng(8)
        frame = IntervalFrame(
            ("x1",), rng.normal(size=(100, 1)), np.abs(rng.normal(size=(100, 1))),
            rng.normal(size=100), np.abs(rng.normal(size=100)),
        )
        fit = fit_forest(frame, ForestParams(n_trees=100, seed=3))
        assert fit.oob["center"]["rows_skipped"] == 0

    def test_constant_response_zero_oob_mse(self):
        rng = np.random.default_rng(9)
        frame = IntervalFrame(
            ("x1",), rng.normal(size=(40, 1)), np.abs(rng.normal(size=(40, 1))),
            np.full(40, 2.0), np.full(40, 1.0),
        )
        fit = fit_forest(frame, ForestParams(n_trees=20, seed=3))
        assert fit.oob["center"]["mse"] == 0.0
        assert fit.oob["radius"]["mse"] == 0.0

    def test_unavailable_when_every_row_in_bag(self):
        rng = np.random.default_rng(10)
        frame = IntervalFrame(
            ("x1",), rng.normal(size=(2, 1)), np.abs(rng.normal(size=(2, 1))),
            np.array([0.0, 1.0]), np.array([0.5, 0.5]),
        )
        seed = None
        for candidate in range(200):
            covers = True
            for component in ("center", "radius"):
                boot = stream("tree", candidate, component, 0).integers(0, 2, 2)
                covers = covers and set(boot.tolist()) == {0, 1}
            if covers:
                seed = candidate
                break
        assert seed is not None, "no seed with full in-bag coverage found"
        with pytest.raises(OOBUnavailableError):
            fit_forest(frame, ForestParams(n_trees=1, seed=seed))

    def test_oob_tracks_test_error(self):
        frame = simulate(SimSetting(3, 2000, 5))
        train, test = split(frame, SplitSpec(0.1, "random", seed=5))
        fit = fit_forest(train, ForestParams(n_trees=150, seed=5))
        report = evaluate_frame(predict_forest_frame(fit, test), test)
        assert abs(fit.oob["center"]["r2"] - report.center.r2) <= 0.1

    def test_oob_error_recompute_matches_fit(self):
        frame = simulate(SimSetting(1, 200, 4))
        fit = fit_forest(frame, ForestParams(n_trees=30, seed=2))
        again = oob_error(fit, frame)
        assert again == fit.oob


class TestMonotoneImprovement:
    def test_more_trees_do_not_hurt_on_nonlinear_settings(self):
        """Mean test MSE with a 500-tree forest <= with a 10-tree forest."""
        for setting in (5, 6, 7):
            big, small = [], []
            for rep in range(20):
                frame = simulate(SimSetting(setting, 500, 1000 + rep))
                train, test = split(frame, SplitSpec(0.1, "random", seed=rep))
                for n_trees, acc in ((10, small), (500, big)):
                    fit = fit_forest(train, ForestParams(n_trees=n_trees, seed=rep))
                    rep_eval = evaluate_frame(predict_forest_frame(fit, test), test)
                    acc.append(rep_eval.center.mse)
            assert np.mean(big) <= np.mean(small), f"setting {setting}"


class TestSerialization:
    def test_round_trip_preserves_predictions_and_oob(self):
        frame = simulate(SimSetting(1, 120, 10))
        fit = fit_forest(frame, ForestParams(n_trees=15, seed=3))
        again = forest_from_json(forest_to_json(fit))
        q = frame.features()[:7]
        a, b = predict_forest_rows(fit, q), predict_forest_rows(again, q)
        np.testing.assert_array_equal(a.center, b.center)
        np.testing.assert_array_equal(a.radius, b.radius)
        assert again.oob == fit.oob
        assert again.params == fit.params

    def test_wrong_document_kind(self):
        with pytest.raises(ValueError):
            forest_from_json('{"model": "ke"}')


def route(tree, X):
    """Leaf value of every row of X in one tree."""
    return tree.value[leaf_of(tree, X)]


def preorder(tree):
    """The tree's model-file arrays with its nodes numbered depth first, left subtree first."""
    right = tree.right
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if tree.feature[node] >= 0:
            stack += [right[node], tree.left[node]]
    order = np.array(order)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    doc = {key: getattr(tree, key)[order].tolist()
           for key in ("feature", "threshold", "value")}
    for key, child in (("left", tree.left[order]), ("right", right[order])):
        doc[key] = np.where(child >= 0, new_id[child], -1).tolist()
    doc["bootstrap"] = tree.bootstrap.tolist()
    return doc


class TestTraversal:
    def test_depth_first_file_rejected(self, tmp_path, capsys):
        """Files written before level-wise growth number nodes depth first; none loads."""
        frame = simulate(SimSetting(5, 120, 3))
        fit = fit_forest(frame, ForestParams(n_trees=6, seed=4))
        doc = json.loads(forest_to_json(fit))
        for key in ("center_trees", "radius_trees"):
            doc[key] = [preorder(t) for t in getattr(fit, key)]
        assert doc["center_trees"][0]["left"] != fit.center_trees[0].left.tolist()
        text = json.dumps(doc)
        with pytest.raises(ConfigError, match=r"^rf.json: .*center_trees\[0\]: 'left' and "
                                              r"'right' must number nodes level by level"):
            model_from_json(text, "rf.json")
        model, data, out = tmp_path / "rf.json", tmp_path / "data.csv", tmp_path / "pred.csv"
        model.write_text(text, encoding="utf-8")
        assert main(["simulate", "--setting", "5", "--n", "50", "--seed", "2",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["predict", "--model-file", str(model), "--in", str(data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{model}: " in err and "center_trees[0]: 'left' and 'right'" in err
        assert not out.exists()

    @pytest.mark.parametrize("n_rows, per_block", [(16_385, 1), (4096, 4), (5000, 3)])
    def test_matches_per_tree_router(self, n_rows, per_block):
        """8 trees in blocks of 1, of 4 (two full blocks) and of 3 (3, 3, 2)."""
        assert max(1, _CHUNK_SAMPLES // n_rows) == per_block
        fit = fit_forest(simulate(SimSetting(7, 300, 1)), ForestParams(n_trees=8, seed=2))
        frame = simulate(SimSetting(7, n_rows, 2))
        X = frame.features()
        boot = np.random.default_rng(3)
        fit = dataclasses.replace(fit, **{
            key: ensemble_of([dataclasses.replace(t, bootstrap=boot.integers(0, n_rows, n_rows))
                              for t in getattr(fit, f"{key}_trees")])
            for key in ("center", "radius")
        })
        pred = predict_forest_rows(fit, X)
        oob = oob_error(fit, frame)
        for trees, got, y, component in (
            (fit.center_trees, pred.center, frame.y_center, "center"),
            (fit.radius_trees, pred.radius, frame.y_radius, "radius"),
        ):
            total, acc, hits = np.zeros(n_rows), np.zeros(n_rows), np.zeros(n_rows, dtype=int)
            for tree in trees:
                leaf = route(tree, X)
                total += leaf
                out = np.ones(n_rows, dtype=bool)
                out[tree.bootstrap] = False
                acc[out] += leaf[out]
                hits[out] += 1
            np.testing.assert_array_equal(got, total / len(trees))
            used = hits > 0
            resid = acc[used] / hits[used] - y[used]
            assert oob[component]["rows_used"] == used.sum()
            assert oob[component]["mse"] == float(np.mean(resid**2))


def walk_sums(ens, X, out_of_bag=False):
    """``_sums`` with every tree walked."""
    return _sums(ens, X, np.zeros(ens.n_trees, dtype=bool), out_of_bag)


def assert_paths_agree(ens, X, out_of_bag=False):
    """The walk and the leaf bitvectors give the same totals and counts, byte for byte."""
    walk = walk_sums(ens, X, out_of_bag)
    bits = _sums(ens, X, np.ones(ens.n_trees, dtype=bool), out_of_bag)
    for a, b in zip(walk, bits):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return walk


def chain_tree(n_leaves, deep_right, n_rows):
    """A tree in which every split node has a leaf child, the other child splitting again;
    split i is on feature i % 2, and thresholds repeat along the chain."""
    n = 2 * n_leaves - 1
    feature = np.full(n, -1, dtype=np.int64)
    node = 0
    for i in range(n_leaves - 1):
        feature[node] = i % 2
        node = 2 * i + 1 + deep_right  # split i's children are 2i + 1 and 2i + 2
    split = feature >= 0
    threshold = np.where(split, np.arange(n) * 0.37 % 2 - 1, 0.0)
    value = np.where(split, 0.0, np.arange(n) / 7)
    bootstrap = np.arange(0, n_rows, 3, dtype=np.int64)
    return Tree(feature, threshold, value, bootstrap)


@pytest.fixture
def paths_taken(monkeypatch):
    """The per-tree masks that ``_tree_sums`` hands to ``_sums``, in call order: True where a
    tree takes leaf bitvectors, False where it walks."""
    taken = []

    def record(nodes, X, bits, *args, _sums=forest._sums):
        taken.append(bits.tolist())
        return _sums(nodes, X, bits, *args)

    monkeypatch.setattr(forest, "_sums", record)
    return taken


def scaled(tree, factor):
    return dataclasses.replace(tree, value=tree.value * factor)


def assert_same_bytes(got, want):
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestLeafBitvectors:
    @pytest.mark.parametrize("setting, decimals", [(s, None) for s in range(1, 8)] + [(7, 1)],
                             ids=[str(s) for s in range(1, 8)] + ["7 rounded"])
    def test_matches_walk(self, setting, decimals):
        frame = simulate(SimSetting(setting, 100, 4))
        queries = simulate(SimSetting(setting, 300, 5))
        if decimals is not None:
            frame, queries = (
                IntervalFrame(f.predictor_names, np.round(f.x_center, decimals),
                              np.round(f.x_radius, decimals), f.y_center, f.y_radius)
                for f in (frame, queries)
            )
        fit = fit_forest(frame, ForestParams(n_trees=12, seed=2))
        for ens in (fit.center, fit.radius):
            assert max(t.n_leaves for t in ens.trees) <= 64
            assert_paths_agree(ens, queries.features())
            assert_paths_agree(ens, frame.features(), out_of_bag=True)

    def test_root_only_trees(self):
        frame = simulate(SimSetting(1, 60, 2))
        X = frame.features()
        grown = fit_forest(frame, ForestParams(n_trees=3, seed=1)).center_trees
        root = Tree(np.array([-1]), np.zeros(1), np.array([2.5]), np.arange(0, 60, 2))
        assert_paths_agree(ensemble_of([root, root]), X, out_of_bag=True)
        total, counts = assert_paths_agree(ensemble_of([root, *grown, root]), X)
        assert counts.tolist() == [5] * 60

    @pytest.mark.parametrize("deep_right", [True, False], ids=["deep right", "deep left"])
    def test_64_leaves_use_bitvectors_and_65_walk(self, paths_taken, deep_right):
        """A 64-leaf chain is 63 levels deep. A 65-leaf tree walks; the others keep bitvectors."""
        X = np.random.default_rng(1).uniform(-1.5, 1.5, (500, 2))
        trees = [chain_tree(64, deep_right, 500), chain_tree(5, not deep_right, 500)]
        ens = ensemble_of(trees)
        walk = assert_paths_agree(ens, X)
        assert_paths_agree(ens, X, out_of_bag=True)
        paths_taken.clear()
        got = _tree_sums(ens, X)
        assert paths_taken == [[True, True]]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(walk, got))
        ens = ensemble_of([*trees, chain_tree(65, deep_right, 500)])
        walk = walk_sums(ens, X)
        paths_taken.clear()
        got = _tree_sums(ens, X)
        assert paths_taken == [[True, True, False]]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(walk, got))

    @pytest.mark.parametrize("order", ["Bsss", "sBsB", "ssBs", "sssB"])
    def test_mixed_ensemble_sums_in_tree_order(self, paths_taken, order):
        """Trees of 65-66 leaves (B) among word trees (s). Leaf values of about 1e16 and 1
        round differently unless every tree is added in tree order."""
        n = 600
        X = np.random.default_rng(4).uniform(-1.5, 1.5, (n, 2))
        small = iter(chain_tree(k, k % 2 == 0, n) for k in (3, 8, 12, 5))
        big = iter(scaled(chain_tree(65 + i, i == 0, n), (-1) ** i * 1e16) for i in range(2))
        ens = ensemble_of([next(big) if c == "B" else next(small) for c in order])
        for rows, out_of_bag in ((X, False), (X, True), (X[:0], False)):
            want = walk_sums(ens, rows, out_of_bag)
            paths_taken.clear()
            assert_same_bytes(_tree_sums(ens, rows, out_of_bag), want)
            assert paths_taken == [[c == "s" and rows.shape[0] > 0 for c in order]]

    def test_mixed_ensemble_rows_against_word_tree_pairs(self, paths_taken):
        """Only the word trees' pairs count: rows equal to them walk every tree, one more row
        takes bitvectors for the word trees."""
        trees = [chain_tree(20, True, 100), chain_tree(70, False, 100), chain_tree(9, False, 100)]
        ens = ensemble_of(trees)
        pairs = ens.pair_threshold.size
        assert pairs == ensemble_of([trees[0], trees[2]]).pair_threshold.size
        every_pair = {(f, t) for tree in trees for f, t in zip(tree.feature, tree.threshold)
                      if f >= 0}
        assert pairs < len(every_pair)
        X = np.random.default_rng(5).uniform(-1.5, 1.5, (pairs + 1, 2))
        for rows, word in ((X[:pairs], False), (X, True)):
            want = walk_sums(ens, rows)
            paths_taken.clear()
            assert_same_bytes(_tree_sums(ens, rows), want)
            assert paths_taken == [[word, False, word]]

    def test_blocks_that_start_on_a_walked_tree(self, monkeypatch, paths_taken):
        """Blocks of 3 trees on 5000 rows, of which trees of 65-66 leaves (B) open the second
        and fourth. A table group holds 4 word trees: the first and third blocks build one each,
        the second and fourth read its second half, and the fifth builds a third."""
        n = 5000
        assert max(1, _CHUNK_SAMPLES // n) == 3
        X = np.random.default_rng(6).uniform(-1.5, 1.5, (n, 2))
        order = "sBs" "Bss" "sBs" "Bss" "s"
        # chains share their first splits, so each small tree gets its own leaf values
        small = iter(scaled(chain_tree(3 + k, k % 2 == 0, n), k + 1)
                     for k in range(order.count("s")))
        big = iter(scaled(chain_tree(65 + i % 2, i % 2 == 0, n), (-1) ** i * 1e16)
                   for i in range(order.count("B")))
        ens = ensemble_of([next(big) if c == "B" else next(small) for c in order])
        width = ens.pair_threshold.size + X.shape[1]
        monkeypatch.setattr(forest, "_TABLE_WORDS", 4 * width)
        for rows, out_of_bag in ((X, False), (X, True)):
            want = walk_sums(ens, rows, out_of_bag)
            paths_taken.clear()
            assert_same_bytes(_tree_sums(ens, rows, out_of_bag), want)
            assert paths_taken == [[c == "s" for c in order]]

    def test_grown_mixed_forest_matches_walk(self, monkeypatch, paths_taken):
        """Setting 7 on 400 rows grows trees on both sides of 64 leaves."""
        frame = simulate(SimSetting(7, 400, 1))
        fit = fit_forest(frame, ForestParams(n_trees=40, seed=1))
        for trees in (fit.center_trees, fit.radius_trees):
            leaves = [t.n_leaves for t in trees]
            assert min(leaves) <= 64 < max(leaves)
        X = simulate(SimSetting(7, 3000, 2)).features()
        paths_taken.clear()
        pred, oob = predict_forest_rows(fit, X), oob_error(fit, frame)
        # prediction takes bitvectors for the word trees; 400 out-of-bag rows walk every tree
        words = [[t.n_leaves <= 64 for t in fit.center_trees],
                 [t.n_leaves <= 64 for t in fit.radius_trees]]
        assert paths_taken == words + [[False] * 40] * 2
        monkeypatch.setattr(forest, "_tree_sums", walk_sums)
        walked = predict_forest_rows(fit, X)
        assert pred.center.tobytes() == walked.center.tobytes()
        assert pred.radius.tobytes() == walked.radius.tobytes()
        assert oob == oob_error(fit, frame)

    def test_grown_64_leaf_tree(self):
        """Distinct responses on 64 distinct rows split down to one row per leaf."""
        X = np.column_stack([np.arange(64.0), np.zeros(64)])
        y = np.random.default_rng(2).permutation(64).astype(float)
        params = ForestParams(mtry=2, min_node=1)
        tree = grow_tree(np.arange(64), y, X, params, stream("t", 0))
        assert tree.n_leaves == 64
        queries = np.column_stack([np.linspace(-1, 64, 400), np.zeros(400)])
        total, _ = assert_paths_agree(ensemble_of([tree]), queries)
        assert total.tobytes() == route(tree, queries).tobytes()

    def test_rows_are_counted_more_than_pairs(self, paths_taken):
        fit = fit_forest(simulate(SimSetting(5, 80, 3)), ForestParams(n_trees=4, seed=1))
        pairs = fit.center.pair_threshold.size
        X = simulate(SimSetting(5, pairs + 1, 4)).features()
        paths_taken.clear()  # of the fit's out-of-bag errors
        _tree_sums(fit.center, X[:pairs])
        _tree_sums(fit.center, X)
        assert paths_taken == [[False] * 4, [True] * 4]

    @pytest.mark.parametrize("group_trees", [1, 7])
    def test_tables_built_by_group(self, monkeypatch, group_trees):
        """Blocks of 3 trees on 5000 rows. Table groups of one block, or of 7 trees: trees 0-6
        serve two blocks, and the third block, which runs past them, starts trees 6-11."""
        fit = fit_forest(simulate(SimSetting(7, 300, 1)), ForestParams(n_trees=12, seed=2))
        X = simulate(SimSetting(7, 5000, 2)).features()
        assert max(1, _CHUNK_SAMPLES // X.shape[0]) == 3
        for ens in (fit.center, fit.radius):
            assert max(t.n_leaves for t in ens.trees) <= 64
            width = ens.pair_threshold.size + X.shape[1]
            monkeypatch.setattr(forest, "_TABLE_WORDS", group_trees * width)
            assert_paths_agree(ens, X)

    def test_feature_without_splits(self, paths_taken):
        """Feature 1 has no split. Every query column holds nan, which goes left at every split
        node, and one row is nan throughout."""
        rng = np.random.default_rng(7)
        X = np.column_stack([rng.normal(size=90), np.full(90, 0.5), rng.normal(size=90)])
        y = X[:, 0] + X[:, 2] ** 2
        boots = [stream("boot", t).integers(0, 90, 90) for t in range(4)]
        ens = grow_trees(X, y, boots, [stream("t", t) for t in range(4)], ForestParams(mtry=3))
        assert ens.pair_feature.tolist().count(1) == 0
        queries = rng.normal(size=(300, 3))
        for f, step in enumerate((5, 7, 3)):
            queries[f::step, f] = np.nan
        queries[-1] = np.nan
        paths_taken.clear()
        assert_sums_match_loop(ens, queries)
        assert paths_taken[0] == [True] * 4
        assert_paths_agree(ens, queries)
        assert_paths_agree(ens, X, out_of_bag=True)

    def test_single_leaf_trees_predict_by_bitvectors(self, paths_taken):
        """Trees that are one leaf each have no (feature, threshold) pair, so any rows outnumber
        their pairs: every word keeps all its bits, leaf 0."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        frame = IntervalFrame(("x1",), X[:, :1], np.abs(X[:, 1:]), np.full(50, 2.5),
                              np.full(50, 0.5))
        fit = fit_forest(frame, ForestParams(n_trees=6, seed=1))
        queries = rng.normal(size=(40, 2))
        queries[::3, 0] = np.nan
        for ens in (fit.center, fit.radius):
            assert ens.pair_threshold.size == 0 and ens.n_nodes.tolist() == [1] * 6
            paths_taken.clear()
            assert_sums_match_loop(ens, queries)
            assert paths_taken[0] == [True] * 6
        pred = predict_forest_rows(fit, queries)
        assert pred.center.tolist() == [2.5] * 40 and pred.radius.tolist() == [0.5] * 40

    def test_query_equal_to_a_threshold_goes_left(self):
        frame = simulate(SimSetting(1, 120, 6))
        fit = fit_forest(frame, ForestParams(n_trees=10, seed=3))
        for ens in (fit.center, fit.radius):
            on = [ens.pair_threshold[ens.pair_feature == f] for f in (0, 1)]
            X = np.column_stack([np.resize(on[0], 600), np.resize(on[1][::-1], 600)])
            X[::7, 1] = np.nan  # nan > threshold is false, as for the walk
            total, counts = assert_paths_agree(ens, X)
            expected = np.zeros(600)
            for tree in ens.trees:
                expected += route(tree, np.nan_to_num(X, nan=-np.inf))
            assert total.tobytes() == expected.tobytes()
            assert counts.tolist() == [ens.n_trees] * 600


def loop_sums(trees, X, out_of_bag=False):
    """Leaf values summed by an explicit loop over the trees in tree order, and the counts."""
    total, counts = np.zeros(X.shape[0]), np.zeros(X.shape[0], dtype=np.int64)
    for tree in trees:
        kept = np.ones(X.shape[0], dtype=bool)
        if out_of_bag:
            kept[tree.bootstrap] = False
        total[kept] += route(tree, X)[kept]
        counts += kept
    return total, counts


def assert_sums_match_loop(ens, X, out_of_bag=False):
    """``_tree_sums``, forced bitvectors for the word trees and the walk each give
    ``loop_sums``' bytes. A nan in ``X`` goes left at a split node, as -inf does."""
    want = loop_sums(ens.trees, np.where(np.isnan(X), -np.inf, X), out_of_bag)
    assert_same_bytes(_tree_sums(ens, X, out_of_bag), want)
    assert_same_bytes(_sums(ens, X, ens.word, out_of_bag), want)
    assert_same_bytes(walk_sums(ens, X, out_of_bag), want)


class TestEnsemble:
    """An ensemble is built once, by growth or the reader, and every use reads that record."""

    @pytest.mark.parametrize("n_rows", [1, 2, 5000, _CHUNK_SAMPLES + 1])
    def test_sums_match_a_loop_in_tree_order(self, paths_taken, n_rows):
        """Word trees (s) and trees of 65-66 leaves (B), with leaf values from about 1e-3 to
        1e16 of both signs, which round differently unless every tree is added in tree order.
        Blocks hold 3 trees of 5000 rows and one of 16 385, and mix both paths; one and two rows
        walk every tree, and bitvectors for the word trees are forced on them too. A reduction
        over a single column would add one row's 24 trees pairwise."""
        X = np.random.default_rng(7).uniform(-1.5, 1.5, (n_rows, 2))
        order = "sBsBssBs" * 3
        small = iter(scaled(chain_tree(3 + k, k % 2 == 0, n_rows), 10.0 ** (3 * (k % 6) - 3))
                     for k in range(order.count("s")))
        big = iter(scaled(chain_tree(65 + i % 2, i % 2 == 0, n_rows), (-1) ** i * 1e16)
                   for i in range(order.count("B")))
        trees = [next(big) if c == "B" else next(small) for c in order]
        ens = ensemble_of(trees)
        assert ens.word.tolist() == [c == "s" for c in order]
        for out_of_bag in (False, True):
            want = loop_sums(trees, X, out_of_bag)
            paths_taken.clear()
            assert_same_bytes(_tree_sums(ens, X, out_of_bag), want)
            assert paths_taken == [(ens.word & (n_rows > ens.pair_threshold.size)).tolist()]
            assert_same_bytes(_sums(ens, X, ens.word, out_of_bag), want)
            assert_same_bytes(walk_sums(ens, X, out_of_bag), want)

    def test_grown_sums_match_a_loop(self):
        """A fitted forest's test-set and out-of-bag sums, on rows below and above a block."""
        frame = simulate(SimSetting(7, 400, 1))
        fit = fit_forest(frame, ForestParams(n_trees=12, seed=1))
        for X in (simulate(SimSetting(7, 3000, 2)).features(), frame.features()):
            for ens in (fit.center, fit.radius):
                assert_same_bytes(_tree_sums(ens, X), loop_sums(ens.trees, X))
        for ens in (fit.center, fit.radius):
            X = frame.features()
            assert_same_bytes(_tree_sums(ens, X, True), loop_sums(ens.trees, X, True))

    def test_trees_are_views_of_the_ensemble(self):
        frame = simulate(SimSetting(3, 100, 1))
        fit = fit_forest(frame, ForestParams(n_trees=5, seed=1))
        loaded = forest_from_json(forest_to_json(fit))
        for ens, trees in ((fit.center, fit.center_trees), (fit.radius, fit.radius_trees),
                           (loaded.center, loaded.center_trees)):
            assert type(trees) is list and len(trees) == ens.n_trees == 5
            for t, tree in enumerate(trees):
                assert type(tree) is Tree
                for key, bounds in (("feature", ens.bounds), ("threshold", ens.bounds),
                                    ("value", ens.bounds), ("bootstrap", ens.draw_bounds)):
                    part, whole = getattr(tree, key), getattr(ens, key)
                    assert np.shares_memory(part, whole), key
                    assert part.tobytes() == whole[bounds[t] : bounds[t + 1]].tobytes(), key
        with pytest.raises(AttributeError):
            fit.center_trees = trees

    def test_prediction_and_oob_derive_nothing(self, monkeypatch):
        """Children and (feature, threshold) pairs are derived when an ensemble is built: once
        per component, after its growth chunks, and not again to predict or score."""
        frame = simulate(SimSetting(5, 1000, 1))
        built = []
        init = Ensemble.__init__

        def record(self, *args):
            built.append(len(args[3]))
            init(self, *args)

        monkeypatch.setattr(Ensemble, "__init__", record)
        assert _CHUNK_SAMPLES // frame.n == 16  # growth chunks of 16, 16 and 8 trees
        fit = fit_forest(frame, ForestParams(n_trees=40, seed=1))
        assert built == [40, 40]
        built.clear()
        predict_forest_frame(fit, frame)
        oob_error(fit, frame)
        fit.center_trees, fit.radius_trees
        assert built == []
