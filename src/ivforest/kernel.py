"""Distance-based kernel regression for interval responses.

One set of weights, computed from the hyper-interval distance between the
query and each training row, feeds two weighted averages: one for the
response center, one for the radius. Both predictions are convex
combinations of training responses, so each stays inside the range of the
corresponding training values. Bandwidth is chosen by leave-one-out cross
validation on the summed squared center and radius residuals.

Distances are weighted in blocks of rows of about ``_BLOCK_ENTRIES``
entries (loop tiling: Wolf & Lam, PLDI 1991), so a block's distances and
weights stay in cache. Prediction and the LOO search build one block of
distances at a time, so their memory does not grow with queries x training
rows or with the square of the training rows. The search scores every grid
bandwidth on a block before it moves to the next, and finds the default
grid's median pair distance by exact selection over blocks. Blocking
changes no operation, so results carry the same bytes as on the whole
matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptySampleError
from .frame import IntervalFrame
from .intervals import PredictionSet, centered_distance, hyper_distance

KERNELS = ("gaussian", "epanechnikov", "triangular", "uniform")

# a block of distance rows holds about this many entries (512 kB), in a
# multiple of 8 rows: OpenBLAS's `w @ y` sums the rows past the last multiple
# of 4 in another order, so other block heights can change a result's last bits
_BLOCK_ENTRIES = 2**16
# the median search counts distances in 2**_BUCKET_BITS buckets of their bit pattern per pass
_BUCKET_BITS = 16
_INF_BITS = int(np.array(np.inf).view(np.int64))  # every nonnegative double's bits lie in [0, this]


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
    """Kernel-weighted response means for each row of a (queries, training) distance block.

    When every weight of a row underflows to zero (a far query under a
    compact kernel, or a bandwidth so small that ``d / h`` or its square
    overflows), the row takes the nearest training row's response and is
    flagged in the returned mask. An infinite distance gives weight zero and
    is never the nearest.
    """
    with np.errstate(over="ignore"):  # an overflowed d / h or u * u is inf: weight 0
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


def _block_rows(n: int) -> int:
    """Height of a block of distance rows against ``n`` training rows."""
    return max(8, _BLOCK_ENTRIES // max(1, n) // 8 * 8)


def _blocked_averages(
    distances, m: int, hs: list[float], kernel: str, y_center: np.ndarray, y_radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_weighted_average` of ``m`` rows at each bandwidth of ``hs``, block by block.

    ``distances(rows)`` gives the distances of a slice of the ``m`` rows to
    the training rows. Every bandwidth is applied to a block before the next
    block is read. Returns centers, radii and the fallback mask, each
    (len(hs), m).
    """
    centers, radii = np.empty((len(hs), m)), np.empty((len(hs), m))
    fallback = np.empty((len(hs), m), dtype=bool)
    step = _block_rows(y_center.size)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        d = distances(rows)
        for g, h in enumerate(hs):
            centers[g, rows], radii[g, rows], fallback[g, rows] = _weighted_average(
                d, h, kernel, y_center, y_radius)
    return centers, radii, fallback


def predict_kernel_rows(fit: KernelFit, queries: np.ndarray) -> PredictionSet:
    """Weighted-average predictions for query rows in (centers, radii) layout.

    Queries with no positive weight get the nearest training row's response
    and are flagged as extrapolated. Distances are built one block of query
    rows at a time.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != fit.x_features.shape[1]:
        raise DimensionError(
            f"model has {fit.p} predictors, queries have {queries.shape[1] // 2}"
        )
    (centers,), (radii,), (extrapolated,) = _blocked_averages(
        lambda rows: hyper_distance(queries[rows], fit.x_features),
        queries.shape[0], [fit.h], fit.kernel, fit.y_center, fit.y_radius)
    return PredictionSet(centers, radii, radii < 0.0, extrapolated=extrapolated)


def predict_kernel_frame(fit: KernelFit, frame: IntervalFrame) -> PredictionSet:
    return predict_kernel_rows(fit, frame.features())


def _pair_bits(feats: np.ndarray):
    """Bit patterns, as int64, of the distances of every row pair i < j, one row block at a time.

    A block of rows is measured against only the rows after its first. The rows are centered
    on the mean of all of them, and their squared norms taken, once per pass, as
    ``hyper_distance(feats[block], feats)`` would, so the distances carry its bytes. Adding
    0.0 turns a -0.0 into 0.0, so that the distances order like their bits.
    """
    n = feats.shape[0]
    step = _block_rows(n)
    centered = feats - feats.mean(axis=0)
    norms = np.sum(centered**2, axis=1)
    for start in range(0, n - 1, step):
        block = slice(start, start + step)
        d = centered_distance(centered[block], norms[block], centered[start + 1:],
                              norms[start + 1:])
        later = np.arange(start + 1, n) > np.arange(start, start + d.shape[0])[:, None]
        yield (d[later] + 0.0).view(np.int64)


def _pair_median(feats: np.ndarray) -> float:
    """``np.median`` of the distances of every row pair i < j, without holding them all.

    Exact selection over row blocks (after Floyd & Rivest, CACM 18(3), 1975).
    While more than ``8 * _BLOCK_ENTRIES`` distances may hold the middle
    ranks, a pass counts the distances whose bits lie in [lo, hi] per bucket
    of ``2**shift`` patterns and narrows [lo, hi] to the bucket that holds
    both middle ranks. Then one pass gathers the distances in [lo, hi] and
    a partition finishes. A bucket of a single pattern holds equal
    values, and middle ranks split between two buckets are the largest
    distance of one and the smallest of the next, so neither case gathers.
    Two middle values are averaged as ``np.median`` averages them.
    """
    def within(bits, lo, hi):
        return bits[(bits >= lo) & (bits <= hi)]

    n = feats.shape[0]
    count = n * (n - 1) // 2
    ranks = ((count - 1) // 2, count // 2)  # one rank twice when the count is odd
    lo, hi, below, held = 0, _INF_BITS, 0, count  # below: the distances whose bits are under lo
    pair = None
    while pair is None and held > 8 * _BLOCK_ENTRIES:
        shift = max(0, (hi - lo).bit_length() - _BUCKET_BITS)
        counts = np.zeros(2**_BUCKET_BITS, dtype=np.int64)
        for bits in _pair_bits(feats):
            kept = np.bincount((within(bits, lo, hi) - lo) >> shift)
            counts[:kept.size] += kept
        if counts.sum() < held:
            return math.nan  # a NaN's bits lie above inf's, and np.median gives NaN
        ends = below + np.cumsum(counts)  # one past each bucket's last rank
        first, last = (int(np.searchsorted(ends, r, side="right")) for r in ranks)
        below = int(ends[first - 1]) if first else below
        held = int(ends[last]) - below
        mid = lo + ((first + 1) << shift)
        lo, hi = lo + (first << shift), min(hi, lo + ((last + 1) << shift) - 1)
        if shift == 0:  # each bucket is one bit pattern
            pair = [lo, hi]
        elif first != last:
            # the low middle rank ends its bucket, and the high one opens the next nonempty one
            pair = [-1, hi]
            for bits in _pair_bits(feats):
                pair[0] = max(pair[0], int(within(bits, lo, mid - 1).max(initial=-1)))
                pair[1] = min(pair[1], int(within(bits, mid, hi).min(initial=hi)))
    if pair is None:
        middle = np.empty(held, dtype=np.int64)
        filled = 0
        for bits in _pair_bits(feats):
            kept = within(bits, lo, hi)
            middle[filled:filled + kept.size] = kept
            filled += kept.size
        if filled < held:
            return math.nan
        at = [r - below for r in ranks]
        middle.partition(at)  # bits order as their distances do
        pair = middle[at]
    low, high = np.array(pair, dtype=np.int64).view(np.float64).tolist()
    return low if ranks[0] == ranks[1] else (low + high) / 2


def default_grid(feats: np.ndarray) -> np.ndarray:
    """20 log-spaced bandwidths spanning [0.05 s, 5 s], s the median pairwise distance.

    ``feats`` holds the training rows in the feature layout; s is the
    median over the n(n-1)/2 row pairs, found one block of distance rows
    at a time.
    """
    s = _pair_median(feats)
    if s <= 0.0:
        s = 1.0  # all rows identical; the scale is arbitrary
    return np.geomspace(0.05 * s, 5.0 * s, 20)


def _loo_losses(train: IntervalFrame, kernel: str, hs: list[float]) -> list[float]:
    """Leave-one-out loss at each bandwidth of ``hs``, one block of training rows at a time."""
    feats = train.features()

    def distances(rows: slice) -> np.ndarray:
        d = hyper_distance(feats[rows], feats)
        own = np.arange(d.shape[0])
        d[own, rows.start + own] = np.inf  # no row weighs itself
        return d

    centers, radii, _ = _blocked_averages(distances, train.n, hs, kernel,
                                          train.y_center, train.y_radius)
    return [float(np.sum((pc - train.y_center) ** 2 + (pr - train.y_radius) ** 2))
            for pc, pr in zip(centers, radii)]


def select_bandwidth(
    train: IntervalFrame, kernel: str = "gaussian", grid: np.ndarray | None = None
) -> float:
    """Grid value minimizing the LOO loss; ties broken toward larger h.

    No n x n matrix is held: the default grid's median and the LOO losses
    each build the training distances one block of rows at a time. Each
    block is weighted at every grid value in turn, while it is in cache;
    the losses are then compared in grid order. Every grid value must be
    positive and finite.
    """
    if train.n < 3:
        raise EmptySampleError(f"bandwidth selection needs n >= 3, got {train.n}")
    if grid is None:
        grid = default_grid(train.features())
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError("bandwidth grid is empty")
    hs = sorted(float(h) for h in grid)
    for h in hs:
        check_bandwidth(h)
    best_h = None
    best_loss = np.inf
    for h, loss in zip(hs, _loo_losses(train, kernel, hs)):
        if loss <= best_loss:  # <= so later (larger) h wins ties
            best_loss = loss
            best_h = h
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
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def kernel_from_doc(doc: dict) -> KernelFit:
    from .models import json_value  # models imports this module

    tr = doc["training"]
    x, yc, yr = (np.array(json_value(tr, key, float, shape, f"'training' {key!r}"), dtype=float)
                 for key, shape in (("features", (None, None)), ("y_center", (None,)),
                                    ("y_radius", (None,))))
    if not (x.ndim == 2 and x.shape[1] == 2 * len(doc["predictors"])
            and yc.shape == yr.shape == x.shape[:1]):
        raise ConfigError("'training' must hold one row of 2p features and one response per row")
    if not all(np.all(np.isfinite(a)) for a in (x, yc, yr)):
        raise ConfigError("'training' must hold finite numbers")
    h = float(json_value(doc, "bandwidth", float))
    return KernelFit(tuple(doc["predictors"]), x, yc, yr, h, json_value(doc, "kernel", str))
