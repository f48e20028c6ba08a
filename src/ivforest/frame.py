"""Container for interval data, CSV ingestion, and train/test splitting.

A frame stores centers and radii natively. Files on disk use the bound
schema ``<name>_L,<name>_U`` per variable, response pair last (or named).
Loading is strict: inverted bounds are a parse error. Generated frames may
carry negative response radii (some simulation settings produce them); those
are surfaced by :func:`coherence_report`, never clamped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySampleError, ParseError, SplitError
from .rng import stream


@dataclass(frozen=True)
class IntervalFrame:
    """n observations of p predictor intervals and one response interval."""

    predictor_names: tuple[str, ...]
    x_center: np.ndarray  # (n, p)
    x_radius: np.ndarray  # (n, p)
    y_center: np.ndarray  # (n,)
    y_radius: np.ndarray  # (n,)
    response_name: str = "y"

    def __post_init__(self):
        object.__setattr__(self, "predictor_names", tuple(self.predictor_names))
        xc = np.atleast_2d(np.asarray(self.x_center, dtype=float))
        xr = np.atleast_2d(np.asarray(self.x_radius, dtype=float))
        yc = np.asarray(self.y_center, dtype=float).ravel()
        yr = np.asarray(self.y_radius, dtype=float).ravel()
        for name, arr in (("x_center", xc), ("x_radius", xr), ("y_center", yc), ("y_radius", yr)):
            object.__setattr__(self, name, arr)
        n, p = xc.shape
        if n == 0:
            raise EmptySampleError("frame has no rows")
        if xr.shape != (n, p) or yc.shape != (n,) or yr.shape != (n,):
            raise ParseError("predictor and response columns have unequal lengths")
        if len(self.predictor_names) != p:
            raise ParseError(
                f"{len(self.predictor_names)} predictor names for {p} columns"
            )
        if len(set(self.predictor_names)) != p or self.response_name in self.predictor_names:
            raise ParseError("column names must be unique")

    @property
    def n(self) -> int:
        return self.x_center.shape[0]

    @property
    def p(self) -> int:
        return self.x_center.shape[1]

    def features(self) -> np.ndarray:
        """Scalar feature matrix: all predictor centers, then all radii (n, 2p)."""
        return np.hstack([self.x_center, self.x_radius])

    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"{v}_C" for v in self.predictor_names) + tuple(
            f"{v}_R" for v in self.predictor_names
        )

    def take(self, rows: np.ndarray) -> "IntervalFrame":
        """New frame holding the given rows, in the given order."""
        rows = np.asarray(rows, dtype=int)
        return IntervalFrame(
            self.predictor_names,
            self.x_center[rows],
            self.x_radius[rows],
            self.y_center[rows],
            self.y_radius[rows],
            self.response_name,
        )


@dataclass(frozen=True)
class SplitSpec:
    """How to partition a frame into train and test."""

    train_fraction: float
    mode: str = "random"  # or "chronological"
    seed: int = 0
    train_count: int | None = None  # overrides the fraction when given

    def __post_init__(self):
        if self.train_count is None and not (0.0 < self.train_fraction < 1.0):
            raise SplitError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.mode not in ("random", "chronological"):
            raise SplitError(f"unknown split mode {self.mode!r}")


@dataclass
class CoherenceReport:
    """Rows whose response radius is negative."""

    count: int
    rows: list[int] = field(default_factory=list)


def _pair_columns(header: list[str]) -> list[str]:
    """Validate the *_L/*_U pairing and return variable names in file order."""
    names: list[str] = []
    seen: dict[str, set[str]] = {}
    for col in header:
        if col.endswith("_L") or col.endswith("_U"):
            base, side = col[:-2], col[-1]
        else:
            raise ParseError(f"column {col!r} does not end in _L or _U")
        seen.setdefault(base, set())
        if side in seen[base]:
            raise ParseError(f"duplicate column {col!r}")
        seen[base].add(side)
        if base not in names:
            names.append(base)
    for base, sides in seen.items():
        if sides != {"L", "U"}:
            raise ParseError(f"variable {base!r} is missing its {'U' if 'L' in sides else 'L'} column")
    return names


def _read_table(path) -> tuple[list[str], np.ndarray, dict[str, int]]:
    """Parse a bound-schema CSV into (variable names, data, column map)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySampleError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        names = _pair_columns(header)
        rows: list[list[float]] = []
        for lineno, raw in enumerate(reader, start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != len(header):
                raise ParseError(f"{path}: row {lineno} has {len(raw)} cells, expected {len(header)}")
            try:
                rows.append([float(cell) for cell in raw])
            except ValueError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise EmptySampleError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"{path}: non-finite value at row {bad[0] + 1}, column {header[bad[1]]}")
    return names, data, {c: i for i, c in enumerate(header)}


def _centers_radii(path, names, data: np.ndarray, col_of: dict[str, int]):
    """Centers and radii of the named variables, one column each.

    An inverted bound pair is a ParseError naming the row and variable.
    """
    xc, xr = [], []
    for var in names:
        lo = data[:, col_of[f"{var}_L"]]
        hi = data[:, col_of[f"{var}_U"]]
        bad = np.nonzero(lo > hi)[0]
        if bad.size:
            i = bad[0]
            raise ParseError(f"{path}: row {i + 1}, variable {var!r}: lower {lo[i]} > upper {hi[i]}")
        xc.append(0.5 * (lo + hi))
        xr.append(0.5 * (hi - lo))
    return np.column_stack(xc), np.column_stack(xr)


def load_csv(path, response: str | None = None) -> IntervalFrame:
    """Read a bound-schema CSV into a frame.

    The response is the last variable pair unless ``response`` names one.
    Blank lines are ignored; any malformed cell or inverted bound pair is a
    ParseError naming the row and column.
    """
    names, data, col_of = _read_table(path)
    if len(names) < 2:
        raise ParseError(f"{path}: need at least one predictor pair and a response pair")
    resp = response if response is not None else names[-1]
    if resp not in names:
        raise ParseError(f"{path}: response variable {resp!r} not among columns")
    predictors = [v for v in names if v != resp]

    xc, xr = _centers_radii(path, predictors, data, col_of)
    yc, yr = _centers_radii(path, [resp], data, col_of)  # IntervalFrame ravels the one column
    return IntervalFrame(tuple(predictors), xc, xr, yc, yr, resp)


def load_feature_csv(path, predictor_names) -> tuple[np.ndarray, np.ndarray]:
    """Read only the named predictor pairs; extra variable pairs are ignored."""
    names, data, col_of = _read_table(path)
    missing = [v for v in predictor_names if v not in names]
    if missing:
        raise ParseError(f"{path}: missing predictor pair(s): {', '.join(missing)}")
    return _centers_radii(path, predictor_names, data, col_of)


def write_csv(frame: IntervalFrame, path) -> None:
    """Write a frame in the bound schema (inverse of load_csv for coherent data)."""
    header: list[str] = []
    for v in frame.predictor_names:
        header += [f"{v}_L", f"{v}_U"]
    header += [f"{frame.response_name}_L", f"{frame.response_name}_U"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(frame.n):
            row: list[str] = []
            for j in range(frame.p):
                c, r = frame.x_center[i, j], frame.x_radius[i, j]
                row += [repr(float(c - r)), repr(float(c + r))]
            c, r = frame.y_center[i], frame.y_radius[i]
            row += [repr(float(c - r)), repr(float(c + r))]
            writer.writerow(row)


def split(frame: IntervalFrame, spec: SplitSpec) -> tuple[IntervalFrame, IntervalFrame]:
    """Partition into (train, test): disjoint, exhaustive, size round(f * n).

    Random mode samples train rows uniformly without replacement, driven only
    by the seed; chronological mode takes the leading rows. Rounding is
    half-up. ``train_count`` overrides the fraction exactly.
    """
    n = frame.n
    if spec.train_count is not None:
        n_train = int(spec.train_count)
    else:
        n_train = int(np.floor(spec.train_fraction * n + 0.5))
    if n_train < 2 or n - n_train < 1:
        raise SplitError(f"split of {n} rows gives train={n_train}, test={n - n_train}")
    if spec.mode == "chronological":
        train_rows = np.arange(n_train)
        test_rows = np.arange(n_train, n)
    else:
        rng = stream("split", spec.seed)
        perm = rng.permutation(n)
        train_rows = np.sort(perm[:n_train])
        test_rows = np.sort(perm[n_train:])
    return frame.take(train_rows), frame.take(test_rows)


def coherence_report(frame: IntervalFrame) -> CoherenceReport:
    """Count rows whose response radius is negative (nothing is repaired)."""
    bad = np.nonzero(frame.y_radius < 0.0)[0]
    return CoherenceReport(count=int(bad.size), rows=[int(i) for i in bad])
