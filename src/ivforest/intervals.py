"""Intervals held as (center, radius) arrays: predictions and the metrics between them.

The package stores an interval by its center and radius, never as an
object: a frame keeps (n, p) center and radius arrays, a feature row
holds all predictor centers, then all radii, and every model predicts a
``PredictionSet`` of center and radius arrays. The metrics below work in
those coordinates. ``hausdorff``, ``delta_distance`` and ``w_distance``
compare intervals elementwise; each operand is a ``(center, radius)`` pair
of arrays or scalars that broadcast together. ``hyper_distance`` compares
feature rows pairwise. A zero radius is a first-class value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError


@dataclass(frozen=True)
class PredictionSet:
    """Predicted intervals in raw center/radius form with incoherence flags."""

    center: np.ndarray
    radius: np.ndarray
    incoherent: np.ndarray  # bool per row
    extrapolated: np.ndarray | None = None  # kernel far-query fallback rows

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.radius

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.radius


def hausdorff(a, b) -> np.ndarray:
    """Hausdorff distance; equals |delta center| + |delta radius|."""
    return np.abs(np.subtract(a[0], b[0])) + np.abs(np.subtract(a[1], b[1]))


def delta_distance(a, b) -> np.ndarray:
    """L2 distance on intervals: sqrt(dc^2 + dr^2)."""
    return np.hypot(np.subtract(a[0], b[0]), np.subtract(a[1], b[1]))


def w_distance(a, b, c_weight: float) -> np.ndarray:
    """Weighted L2 distance: sqrt(dc^2 + c_weight * dr^2).

    ``c_weight`` is the constant a symmetric non-degenerate weighting measure
    on [0, 1] induces on the squared radius difference; it lies in (0, 1],
    and 1 recovers the plain delta distance.
    """
    if not 0.0 < c_weight <= 1.0:
        raise ConfigError(f"c_weight must lie in (0, 1], got {c_weight}")
    dc = np.subtract(a[0], b[0])
    dr = np.subtract(a[1], b[1])
    return np.sqrt(dc * dc + c_weight * dr * dr)


def hyper_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise distances (m, n) between the rows of ``a`` (m, 2p) and ``b`` (n, 2p).

    Rows are in the feature layout (centers, then radii); the distance is
    the root of the summed squared center and radius differences over all
    p components. It is evaluated as |a|^2 + |b|^2 - 2 a.b after
    subtracting ``b``'s column mean from both, so the cancellation in that
    expansion scales with the spread of the rows, not with their magnitude:
    uncentered, centers near 1e4 (price data) lose about eight digits.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"rows have {a.shape[1]} and {b.shape[1]} features")
    mean = b.mean(axis=0)
    a = a - mean
    b = b - mean
    d2 = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
    return np.sqrt(np.maximum(d2, 0.0))
