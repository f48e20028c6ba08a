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
from .linear import PredictionSet

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
        if not self.h > 0.0:
            raise ConfigError(f"bandwidth must be positive, got {self.h}")
        if self.x_features.shape[0] < 1:
            raise EmptySampleError("kernel fit needs at least one training row")

    @property
    def p(self) -> int:
        return self.x_features.shape[1] // 2


def fit_kernel(
    train: IntervalFrame,
    h: float | None = None,
    kernel: str = "gaussian",
    grid: np.ndarray | None = None,
) -> KernelFit:
    """Retain the training frame; pick h by LOO CV when not given."""
    if h is None:
        h = select_bandwidth(train, kernel, grid)
    return KernelFit(
        train.predictor_names,
        train.features(),
        train.y_center.copy(),
        train.y_radius.copy(),
        float(h),
        kernel,
    )


def _distances(fit_features: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Hyper-interval distances as Euclidean distance in (centers, radii) space."""
    d2 = (
        np.sum(queries**2, axis=1)[:, None]
        + np.sum(fit_features**2, axis=1)[None, :]
        - 2.0 * queries @ fit_features.T
    )
    return np.sqrt(np.maximum(d2, 0.0))


def predict_kernel_rows(fit: KernelFit, queries: np.ndarray) -> PredictionSet:
    """Weighted-average predictions for query rows in (centers, radii) layout.

    When every weight underflows to zero (a far query under a compact
    kernel), the nearest training row's response is returned and the row is
    flagged as extrapolated.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != fit.x_features.shape[1]:
        raise DimensionError(
            f"model has {fit.p} predictors, queries have {queries.shape[1] // 2}"
        )
    d = _distances(fit.x_features, queries)
    w = kernel_weight(fit.kernel, d / fit.h)
    sums = w.sum(axis=1)
    ok = sums > 0.0
    centers = np.empty(queries.shape[0])
    radii = np.empty(queries.shape[0])
    if ok.any():
        centers[ok] = (w[ok] @ fit.y_center) / sums[ok]
        radii[ok] = (w[ok] @ fit.y_radius) / sums[ok]
    if (~ok).any():
        nearest = np.argmin(d[~ok], axis=1)
        centers[~ok] = fit.y_center[nearest]
        radii[~ok] = fit.y_radius[nearest]
    return PredictionSet(centers, radii, radii < 0.0, extrapolated=~ok)


def predict_kernel_frame(fit: KernelFit, frame: IntervalFrame) -> PredictionSet:
    return predict_kernel_rows(fit, frame.features())


def default_grid(train: IntervalFrame, n_points: int = 20) -> np.ndarray:
    """Log-spaced bandwidth grid spanning [0.05 s, 5 s], s the median pairwise distance."""
    feats = train.features()
    d = _distances(feats, feats)
    iu = np.triu_indices(train.n, k=1)
    pairwise = d[iu]
    s = float(np.median(pairwise))
    if s <= 0.0:
        s = 1.0  # all rows identical; the scale is arbitrary
    return np.geomspace(0.05 * s, 5.0 * s, n_points)


def loo_loss(train: IntervalFrame, kernel: str, h: float) -> float:
    """Leave-one-out sum of squared center and radius residuals."""
    feats = train.features()
    n = train.n
    d = _distances(feats, feats)
    w = kernel_weight(kernel, d / h)
    np.fill_diagonal(w, 0.0)
    sums = w.sum(axis=1)
    ok = sums > 0.0
    pc = np.empty(n)
    pr = np.empty(n)
    if ok.any():
        pc[ok] = (w[ok] @ train.y_center) / sums[ok]
        pr[ok] = (w[ok] @ train.y_radius) / sums[ok]
    if (~ok).any():
        d_loo = d.copy()
        np.fill_diagonal(d_loo, np.inf)
        nearest = np.argmin(d_loo[~ok], axis=1)
        pc[~ok] = train.y_center[nearest]
        pr[~ok] = train.y_radius[nearest]
    return float(np.sum((pc - train.y_center) ** 2 + (pr - train.y_radius) ** 2))


def select_bandwidth(
    train: IntervalFrame, kernel: str = "gaussian", grid: np.ndarray | None = None
) -> float:
    """Grid value minimizing the LOO loss; ties broken toward larger h."""
    if train.n < 3:
        raise EmptySampleError(f"bandwidth selection needs n >= 3, got {train.n}")
    if grid is None:
        grid = default_grid(train)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError("bandwidth grid is empty")
    if np.any(grid <= 0.0):
        raise ConfigError("bandwidth grid values must be positive")
    best_h = None
    best_loss = np.inf
    for h in sorted(grid):
        loss = loo_loss(train, kernel, float(h))
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


def kernel_from_json(text: str) -> KernelFit:
    from .models import model_from_json  # models imports this module

    return model_from_json(text, kinds=("ke",))


def kernel_from_doc(doc: dict) -> KernelFit:
    tr = doc["training"]
    x = np.asarray(tr["features"], dtype=float)
    yc = np.asarray(tr["y_center"], dtype=float)
    yr = np.asarray(tr["y_radius"], dtype=float)
    if not (x.ndim == 2 and x.shape[1] == 2 * len(doc["predictors"])
            and yc.shape == yr.shape == x.shape[:1]):
        raise ConfigError("'training' must hold one row of 2p features and one response per row")
    return KernelFit(tuple(doc["predictors"]), x, yc, yr, float(doc["bandwidth"]), doc["kernel"])
