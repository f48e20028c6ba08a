"""Distance-based kernel regression for interval responses.

One set of weights, computed from the hyper-interval distance between the
query and each training row, feeds two weighted averages: one for the
response center, one for the radius. Both predictions are convex
combinations of training responses, so each stays inside the range of the
corresponding training values. Bandwidth is chosen by leave-one-out cross
validation on the summed squared center and radius residuals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptySampleError
from .frame import IntervalFrame
from .intervals import PredictionSet, hyper_distance

KERNELS = ("gaussian", "epanechnikov", "triangular", "uniform")


def kernel_weight(name: str, u: np.ndarray) -> np.ndarray:
    u = np.abs(u)
    if name == "gaussian":
        return np.exp(-0.5 * u * u)
    if name == "epanechnikov":
        return np.where(u <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    if name == "triangular":
        return np.where(u <= 1.0, 1.0 - u, 0.0)
    if name == "uniform":
        return np.where(u <= 1.0, 0.5, 0.0)
    raise ConfigError(f"unknown kernel {name!r}")


def check_bandwidth(h: float) -> None:
    """Raise ConfigError unless the bandwidth ``h`` is positive and finite."""
    if not 0.0 < h < np.inf:
        raise ConfigError(f"bandwidth must be positive and finite, got {h}")


@dataclass(frozen=True)
class KernelFit:
    """Retained training data plus kernel name and bandwidth."""

    predictor_names: tuple[str, ...]
    x_features: np.ndarray  # (n, 2p): centers then radii
    y_center: np.ndarray
    y_radius: np.ndarray
    h: float
    kernel: str = "gaussian"

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        check_bandwidth(self.h)
        if self.x_features.shape[0] < 1:
            raise EmptySampleError("kernel fit needs at least one training row")

    @property
    def p(self) -> int:
        return self.x_features.shape[1] // 2


def fit_kernel(train: IntervalFrame, h: float | None = None, kernel: str = "gaussian") -> KernelFit:
    """Retain the training frame; pick h by LOO CV when not given."""
    if h is None:
        h = select_bandwidth(train, kernel)
    return KernelFit(
        train.predictor_names,
        train.features(),
        train.y_center.copy(),
        train.y_radius.copy(),
        float(h),
        kernel,
    )


def _weighted_average(
    d: np.ndarray, h: float, kernel: str, y_center: np.ndarray, y_radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel-weighted response means for each row of a (queries, training) distance matrix.

    When every weight of a row underflows to zero (a far query under a
    compact kernel), the row takes the nearest training row's response and
    is flagged in the returned mask. An infinite distance gives weight zero
    and is never the nearest.
    """
    w = kernel_weight(kernel, d / h)
    sums = w.sum(axis=1)
    ok = sums > 0.0
    # a row without positive weight is all zeros, so its products are 0
    safe = np.where(ok, sums, 1.0)
    centers = (w @ y_center) / safe
    radii = (w @ y_radius) / safe
    if (~ok).any():
        nearest = np.argmin(d[~ok], axis=1)
        centers[~ok] = y_center[nearest]
        radii[~ok] = y_radius[nearest]
    return centers, radii, ~ok


def predict_kernel_rows(fit: KernelFit, queries: np.ndarray) -> PredictionSet:
    """Weighted-average predictions for query rows in (centers, radii) layout.

    Queries with no positive weight get the nearest training row's response
    and are flagged as extrapolated.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != fit.x_features.shape[1]:
        raise DimensionError(
            f"model has {fit.p} predictors, queries have {queries.shape[1] // 2}"
        )
    d = hyper_distance(queries, fit.x_features)
    centers, radii, extrapolated = _weighted_average(d, fit.h, fit.kernel, fit.y_center, fit.y_radius)
    return PredictionSet(centers, radii, radii < 0.0, extrapolated=extrapolated)


def predict_kernel_frame(fit: KernelFit, frame: IntervalFrame) -> PredictionSet:
    return predict_kernel_rows(fit, frame.features())


def default_grid(d: np.ndarray) -> np.ndarray:
    """20 log-spaced bandwidths spanning [0.05 s, 5 s], s the median pairwise distance.

    ``d`` is the training rows' square distance matrix; only its strict
    upper triangle is read.
    """
    n = d.shape[0]
    upper = np.arange(n)[:, None] < np.arange(n)  # pairs i < j, row by row
    s = float(np.median(d[upper]))
    if s <= 0.0:
        s = 1.0  # all rows identical; the scale is arbitrary
    return np.geomspace(0.05 * s, 5.0 * s, 20)


def _loo_loss(d_loo: np.ndarray, train: IntervalFrame, kernel: str, h: float) -> float:
    pc, pr, _ = _weighted_average(d_loo, h, kernel, train.y_center, train.y_radius)
    return float(np.sum((pc - train.y_center) ** 2 + (pr - train.y_radius) ** 2))


def loo_loss(train: IntervalFrame, kernel: str, h: float) -> float:
    """Leave-one-out sum of squared center and radius residuals."""
    feats = train.features()
    d = hyper_distance(feats, feats)
    np.fill_diagonal(d, np.inf)  # no row weighs itself
    return _loo_loss(d, train, kernel, h)


def select_bandwidth(
    train: IntervalFrame, kernel: str = "gaussian", grid: np.ndarray | None = None
) -> float:
    """Grid value minimizing the LOO loss; ties broken toward larger h.

    One training distance matrix serves the default grid and every grid point.
    """
    if train.n < 3:
        raise EmptySampleError(f"bandwidth selection needs n >= 3, got {train.n}")
    feats = train.features()
    d = hyper_distance(feats, feats)
    if grid is None:
        grid = default_grid(d)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError("bandwidth grid is empty")
    if np.any(grid <= 0.0):
        raise ConfigError("bandwidth grid values must be positive")
    np.fill_diagonal(d, np.inf)  # after the grid: no row weighs itself
    best_h = None
    best_loss = np.inf
    for h in sorted(grid):
        loss = _loo_loss(d, train, kernel, float(h))
        if loss <= best_loss:  # <= so later (larger) h wins ties
            best_loss = loss
            best_h = float(h)
    return best_h


def kernel_to_json(fit: KernelFit) -> str:
    doc = {
        "format_version": 1,
        "model": "ke",
        "kernel": fit.kernel,
        "bandwidth": fit.h,
        "predictors": list(fit.predictor_names),
        "training": {
            "features": [list(map(float, row)) for row in fit.x_features],
            "y_center": list(map(float, fit.y_center)),
            "y_radius": list(map(float, fit.y_radius)),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def kernel_from_doc(doc: dict) -> KernelFit:
    tr = doc["training"]
    x = np.asarray(tr["features"], dtype=float)
    yc = np.asarray(tr["y_center"], dtype=float)
    yr = np.asarray(tr["y_radius"], dtype=float)
    if not (x.ndim == 2 and x.shape[1] == 2 * len(doc["predictors"])
            and yc.shape == yr.shape == x.shape[:1]):
        raise ConfigError("'training' must hold one row of 2p features and one response per row")
    if not all(np.all(np.isfinite(a)) for a in (x, yc, yr)):
        raise ConfigError("'training' must hold finite numbers")
    return KernelFit(tuple(doc["predictors"]), x, yc, yr, float(doc["bandwidth"]), doc["kernel"])
