"""Checks of the program's outputs, computed apart from the program.

Nothing here calls the ivforest function whose output it checks: scores
are recomputed from the predictions, CCRM coefficients are solved again
with numpy and scipy, kernel predictions are summed directly from
coordinate differences, and forests are traversed by this module's own
loop over the node arrays. Every check raises :class:`CheckFailed` with
the first disagreement it finds.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls as scipy_nnls

# Float64 results that agree up to summation order agree to ~1e-15 of their
# scale; the tolerances below sit several orders above that and far below
# any error that changes a score.
SCORE_RTOL = 1e-9
TREE_RTOL = 1e-12
COEF_RTOL = 1e-8  # scipy's NNLS against the program's own active-set solver
# Kernel distances: the program expands |q - x|^2 as |q|^2 + |x|^2 - 2 q.x,
# whose rounding grows with |x|^2 (1e8 at price scale, so ~1e-8 of a weight);
# allowed error is this share of the response's training spread.
KERNEL_TOL = 1e-6


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(actual, expected, tol, what: str) -> None:
    """|actual - expected| <= tol, elementwise."""
    actual = np.atleast_1d(np.asarray(actual, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    require(actual.shape == expected.shape,
            f"{what}: shape {actual.shape} != expected {expected.shape}")
    bad = np.nonzero(~(np.abs(actual - expected) <= tol))[0]
    if bad.size:
        raise CheckFailed(f"{what}: {bad.size} value(s) differ; "
                          f"first {actual[bad[0]]!r} != {expected[bad[0]]!r}")


def scores(pred, truth) -> dict:
    """Out-of-sample R2 (test-mean baseline), MSE and MAE."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    resid = pred - truth
    sse = float(np.sum(resid * resid))
    sst = float(np.sum((truth - np.mean(truth)) ** 2))
    return {"r2": 1.0 - sse / sst, "mse": sse / truth.size,
            "mae": float(np.sum(np.abs(resid))) / truth.size}


def check_scores(reported: dict, pred, truth, what: str) -> dict:
    """The reported r2/mse/mae equal the ones recomputed from the predictions."""
    expected = scores(pred, truth)
    for name, value in expected.items():
        require(np.isfinite(reported[name]), f"{what} {name} is not finite: {reported[name]!r}")
        _close(reported[name], value, SCORE_RTOL * abs(value), f"{what} {name}")
    return expected


def check_ccrm(center_coeffs, radius_coeffs, xc, xr, yc, yr, what: str) -> None:
    """Centers by numpy least squares; radii by scipy NNLS with the intercept constrained."""
    xc = np.atleast_2d(np.asarray(xc, dtype=float))
    xr = np.atleast_2d(np.asarray(xr, dtype=float))
    ones = np.ones((xc.shape[0], 1))
    bc = np.linalg.lstsq(np.hstack([ones, xc]), np.asarray(yc, dtype=float), rcond=None)[0]
    br, _ = scipy_nnls(np.hstack([ones, xr]), np.asarray(yr, dtype=float))
    for name, got, want in (("center", center_coeffs, bc), ("radius", radius_coeffs, br)):
        _close(got, want, COEF_RTOL * (np.abs(want) + 1.0),
               f"{what} {name} coefficients")


def nadaraya_watson(train_x, yc, yr, h: float, queries) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel weighted means, with distances from direct differences."""
    train_x = np.asarray(train_x, dtype=float)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    centers = np.empty(queries.shape[0])
    radii = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], 1024):
        q = queries[start:start + 1024]
        diff = q[:, None, :] - train_x[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=2))
        w = np.exp(-0.5 * (d / h) ** 2)
        total = w.sum(axis=1)
        require(np.all(total > 0.0), "direct kernel sum: a query has zero total weight")
        centers[start:start + len(q)] = (w @ yc) / total
        radii[start:start + len(q)] = (w @ yr) / total
    return centers, radii


def check_kernel(pred_c, pred_r, train_x, yc, yr, h: float, queries, what: str) -> None:
    c, r = nadaraya_watson(train_x, yc, yr, h, queries)
    _close(pred_c, c, KERNEL_TOL * float(np.ptp(yc)), f"{what} kernel centers")
    _close(pred_r, r, KERNEL_TOL * float(np.ptp(yr)), f"{what} kernel radii")


def route(feature, threshold, left, right, X) -> np.ndarray:
    """Leaf index each row of X reaches (go left when x <= threshold)."""
    X = np.asarray(X, dtype=float)
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    for _ in range(len(feature)):
        f = feature[node]
        internal = f >= 0
        if not internal.any():
            return node
        i = rows[internal]
        n = node[internal]
        node[internal] = np.where(X[i, f[internal]] <= threshold[n], left[n], right[n])
    raise CheckFailed("tree traversal did not reach a leaf: the node arrays hold a cycle")


def check_leaf_means(tree, X, y, what: str) -> None:
    """Every leaf value is the mean of the bootstrap responses routed to it."""
    boot = np.asarray(tree.bootstrap)
    leaves = route(tree.feature, tree.threshold, tree.left, tree.right, np.asarray(X)[boot])
    yb = np.asarray(y, dtype=float)[boot]
    count = np.bincount(leaves, minlength=tree.feature.size)
    total = np.bincount(leaves, weights=yb, minlength=tree.feature.size)
    is_leaf = tree.feature < 0
    require(np.all(count[is_leaf] > 0), f"{what}: a leaf receives no bootstrap row")
    _close(tree.value[is_leaf], total[is_leaf] / count[is_leaf],
           TREE_RTOL * float(np.max(np.abs(yb))), f"{what} leaf values")


def check_leaves(fit, X, yc, yr, what: str) -> None:
    """check_leaf_means on every tree of both ensembles."""
    for comp, trees, y in (("center", fit.center_trees, yc), ("radius", fit.radius_trees, yr)):
        for t, tree in enumerate(trees):
            check_leaf_means(tree, X, y, f"{what} {comp} tree {t}")


def forest_mean(trees, X) -> np.ndarray:
    """Mean over trees of the leaf value each row reaches."""
    acc = np.zeros(np.asarray(X).shape[0])
    for t in trees:
        acc += t.value[route(t.feature, t.threshold, t.left, t.right, X)]
    return acc / len(trees)


def check_forest(pred_c, pred_r, fit, X, what: str) -> None:
    c = forest_mean(fit.center_trees, X)
    r = forest_mean(fit.radius_trees, X)
    _close(pred_c, c, TREE_RTOL * float(np.max(np.abs(c))), f"{what} forest centers")
    _close(pred_r, r, TREE_RTOL * float(np.max(np.abs(r))), f"{what} forest radii")


def check_hull(pred_c, pred_r, yc, yr, what: str) -> None:
    """Predictions that are convex combinations of training responses stay in their range."""
    for name, pred, y in (("center", pred_c, yc), ("radius", pred_r, yr)):
        y = np.asarray(y, dtype=float)
        pred = np.asarray(pred, dtype=float)
        slack = 1e-12 * float(np.max(np.abs(y)))
        lo, hi = float(y.min()) - slack, float(y.max()) + slack
        outside = np.nonzero(~((pred >= lo) & (pred <= hi)))[0]
        if outside.size:
            raise CheckFailed(f"{what} {name}: {outside.size} prediction(s) outside the training "
                              f"range [{y.min()!r}, {y.max()!r}]; first {pred[outside[0]]!r}")


def check_ordered(lower, upper, what: str) -> None:
    bad = np.nonzero(~(np.asarray(lower) <= np.asarray(upper)))[0]
    if bad.size:
        raise CheckFailed(f"{what}: {bad.size} predicted interval(s) with y_L > y_U")
