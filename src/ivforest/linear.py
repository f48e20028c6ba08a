"""Bivariate linear baselines: CCRM, CRM, and MinMax.

CCRM fits ordinary least squares to the centers and nonnegative least
squares to the radii (intercept constrained along with the slopes), so its
predicted radii stay nonnegative for nonnegative inputs. CRM drops the
constraint; MinMax regresses the lower and upper bounds separately. CRM and
MinMax can therefore predict incoherent intervals; predictions are returned
raw with a per-row flag, never clipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UnderdeterminedError
from .frame import IntervalFrame
from .intervals import PredictionSet

VARIANTS = ("ccrm", "crm", "minmax")

_NNLS_TOL_FACTOR = 1e-10


@dataclass(frozen=True)
class OlsResult:
    coeffs: np.ndarray
    rss: float
    rank: int
    rank_deficient: bool


@dataclass(frozen=True)
class NnlsResult:
    coeffs: np.ndarray
    rss: float
    active: tuple[int, ...]  # indices pinned at zero


@dataclass(frozen=True)
class LinearFit:
    """Fitted linear model for interval responses."""

    variant: str
    predictor_names: tuple[str, ...]
    # ccrm/crm use (center, radius); minmax uses (lower, upper)
    first_coeffs: np.ndarray
    second_coeffs: np.ndarray
    first_rss: float
    second_rss: float
    active_constraints: tuple[int, ...] = ()
    rank_deficient: bool = False

    @property
    def p(self) -> int:
        return len(self.predictor_names)


def design(features: np.ndarray) -> np.ndarray:
    """Prepend the intercept column."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return np.hstack([np.ones((features.shape[0], 1)), features])


def ols(X: np.ndarray, y: np.ndarray) -> OlsResult:
    """Least squares via SVD; minimum-norm solution on rank deficiency."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NumericError("ols: non-finite entries")
    n, k = X.shape
    if n < k:
        raise UnderdeterminedError(f"ols needs n >= {k} rows, got {n}")
    coeffs, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coeffs
    return OlsResult(coeffs, float(resid @ resid), int(rank), int(rank) < k)


def _free_least_squares(X: np.ndarray, y: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Least-squares coefficients on the free columns, zero on the others."""
    beta = np.zeros(X.shape[1])
    beta[free] = np.linalg.lstsq(X[:, free], y, rcond=None)[0]
    return beta


def nnls(X: np.ndarray, y: np.ndarray, max_iter: int | None = None) -> NnlsResult:
    """Least squares under beta >= 0, by the active-set method.

    Iterates: solve the unconstrained problem on the free set, move any
    variable that went nonpositive back to the active (zero) set along the
    feasible segment, admit the best violating variable by dual value.
    Terminates at the KKT point: free gradients zero, active gradients
    nonnegative. Raises NumericError when ``max_iter`` steps (default
    10 * k) do not reach that point.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NumericError("nnls: non-finite entries")
    n, k = X.shape
    if max_iter is None:
        max_iter = 10 * k

    beta = np.zeros(k)
    free = np.zeros(k, dtype=bool)
    w = X.T @ y  # negative gradient at beta = 0
    # column j may enter only while its correlation with the residual,
    # w_j / (|X_j| |y|), is clearly above rounding; rescaling a column or y
    # leaves that test unchanged
    tol = _NNLS_TOL_FACTOR * np.linalg.norm(X, axis=0) * np.linalg.norm(y)

    for step in range(max_iter + 1):
        candidates = ~free & (w > tol)
        if not candidates.any():
            break
        if step == max_iter:
            raise NumericError(f"nnls: no KKT point within max_iter={max_iter} steps")
        j = int(np.argmax(np.where(candidates, w, -np.inf)))
        free[j] = True
        trial = _free_least_squares(X, y, free)
        if trial[j] <= 0.0:
            # w_j > tol was rounding, not descent: j cannot enter (Lawson and
            # Hanson's test), so try the next candidate
            free[j] = False
            w[j] = 0.0
            continue
        for _ in range(k):  # a pass that does not settle moves a variable to the active set
            if trial[free].min() > 0.0:
                beta = trial
                break
            # step toward trial until the first free coefficient hits zero
            shrink = np.flatnonzero(free & (trial <= 0.0))
            ratios = beta[shrink] / (beta[shrink] - trial[shrink])
            beta = beta + ratios.min() * (trial - beta)
            beta[shrink[np.argmin(ratios)]] = 0.0  # exactly, whatever the rounding
            free &= beta > 0.0
            beta[~free] = 0.0
            if not free.any():
                break
            trial = _free_least_squares(X, y, free)
        else:
            raise NumericError(f"nnls: free set did not settle within {k} passes")
        w = X.T @ (y - X @ beta)

    beta[~free] = 0.0
    resid = y - X @ beta
    active = tuple(int(i) for i in np.nonzero(~free)[0])
    return NnlsResult(beta, float(resid @ resid), active)


def fit_linear(variant: str, train: IntervalFrame) -> LinearFit:
    """Fit one of the linear variants to a training frame."""
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown linear variant {variant!r}")
    if train.n < train.p + 2:
        raise UnderdeterminedError(
            f"{variant} needs at least p + 2 = {train.p + 2} rows, got {train.n}"
        )
    if variant == "minmax":
        xs = (train.x_center - train.x_radius, train.x_center + train.x_radius)
        ys = (train.y_center - train.y_radius, train.y_center + train.y_radius)
    else:
        xs = (train.x_center, train.x_radius)
        ys = (train.y_center, train.y_radius)
    first = ols(design(xs[0]), ys[0])
    second = (nnls if variant == "ccrm" else ols)(design(xs[1]), ys[1])
    # an nnls result has active constraints and no rank; an ols result the reverse
    return LinearFit(
        variant,
        train.predictor_names,
        first.coeffs,
        second.coeffs,
        first.rss,
        second.rss,
        active_constraints=getattr(second, "active", ()),
        rank_deficient=first.rank_deficient or getattr(second, "rank_deficient", False),
    )


def predict_linear(fit: LinearFit, x_center: np.ndarray, x_radius: np.ndarray) -> PredictionSet:
    """Predict response intervals for rows given as center/radius arrays.

    Incoherent rows (predicted radius < 0, equivalently upper < lower) are
    flagged, not repaired.
    """
    x_center = np.atleast_2d(np.asarray(x_center, dtype=float))
    x_radius = np.atleast_2d(np.asarray(x_radius, dtype=float))
    if x_center.shape[1] != fit.p or x_radius.shape[1] != fit.p:
        raise DimensionError(
            f"model has {fit.p} predictors, rows have {x_center.shape[1]}"
        )
    if fit.variant == "minmax":
        lo = design(x_center - x_radius) @ fit.first_coeffs
        up = design(x_center + x_radius) @ fit.second_coeffs
        center = 0.5 * (lo + up)
        radius = 0.5 * (up - lo)
    else:
        center = design(x_center) @ fit.first_coeffs
        radius = design(x_radius) @ fit.second_coeffs
    return PredictionSet(center, radius, radius < 0.0)


def predict_linear_frame(fit: LinearFit, frame: IntervalFrame) -> PredictionSet:
    return predict_linear(fit, frame.x_center, frame.x_radius)


def linear_to_json(fit: LinearFit) -> str:
    doc = {
        "format_version": 1,
        "model": fit.variant,
        "predictors": list(fit.predictor_names),
        "equations": ["lower", "upper"] if fit.variant == "minmax" else ["center", "radius"],
        "coefficients": [list(map(float, fit.first_coeffs)), list(map(float, fit.second_coeffs))],
        "diagnostics": {
            "rss": [fit.first_rss, fit.second_rss],
            "active_constraints": list(fit.active_constraints),
            "rank_deficient": bool(fit.rank_deficient),
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def linear_from_doc(doc: dict) -> LinearFit:
    from .models import json_value  # models imports this module

    diag = doc["diagnostics"]
    # an intercept and a slope per predictor, in each of the two equations
    shape = (2, len(doc["predictors"]) + 1)
    first, second = np.array(json_value(doc, "coefficients", float, shape), dtype=float)
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
        raise ConfigError("'coefficients' must be finite")
    rss = json_value(diag, "rss", float, (2,), "'diagnostics' 'rss'")
    return LinearFit(
        doc["model"],
        tuple(doc["predictors"]),
        first,
        second,
        float(rss[0]),
        float(rss[1]),
        tuple(json_value(diag, "active_constraints", int, (None,),
                         "'diagnostics' 'active_constraints'")),
        json_value(diag, "rank_deficient", bool, name="'diagnostics' 'rank_deficient'"),
    )
