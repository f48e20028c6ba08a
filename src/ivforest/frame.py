"""Container for interval data, CSV ingestion, and train/test splitting.

A frame stores centers and radii natively. Files on disk use the bound
schema ``<name>_L,<name>_U`` per variable, response pair last (or named).
Loading is strict: inverted bounds are a parse error. Generated frames may
carry negative response radii (some simulation settings produce them); those
are surfaced by :func:`coherence_report`, never clamped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

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

    def n_train(self, n: int) -> int:
        """Train rows of a split of ``n`` rows; fewer than 2, or no test row, is a SplitError."""
        if self.train_count is not None:
            n_train = int(self.train_count)
        else:
            n_train = int(np.floor(self.train_fraction * n + 0.5))
        if n_train < 2 or n - n_train < 1:
            raise SplitError(f"split of {n} rows gives train={n_train}, test={n - n_train}")
        return n_train


@dataclass
class CoherenceReport:
    """Rows whose response radius is negative."""

    count: int
    rows: list[int] = field(default_factory=list)


def _pair_columns(header: list[str]) -> dict[str, tuple[int, int]]:
    """Validate the *_L/*_U pairing; each variable's (lower, upper) column, in file order."""
    pairs: dict[str, dict[str, int]] = {}
    for i, col in enumerate(header):
        if not col.endswith(("_L", "_U")):
            raise ParseError(f"column {col!r} does not end in _L or _U")
        sides = pairs.setdefault(col[:-2], {})
        if col[-1] in sides:
            raise ParseError(f"duplicate column {col!r}")
        sides[col[-1]] = i
    for base, sides in pairs.items():
        if len(sides) < 2:
            raise ParseError(f"variable {base!r} is missing its {'U' if 'L' in sides else 'L'} column")
    return {base: (sides["L"], sides["U"]) for base, sides in pairs.items()}


def _number(cell: str) -> float:
    """``float`` of a cell, refusing the digit-group underscores and non-ASCII digits it takes."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def read_table(path, check_header):
    """Read a CSV of numbers under one header line; every CSV the CLI reads comes here.

    ``check_header`` gets the stripped header cells before any row is parsed and returns
    what the caller needs of them, or raises. Returns that, the data of the non-blank lines
    and each one's file row: row k is line k + 1, blank lines counted, as every message
    says. Undecodable bytes and malformed, over-long or non-finite cells are ParseErrors; a
    file without a header or a data row is an EmptySampleError.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start)
        raise ParseError(f"{path}: row {row}: bytes that are not UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    values, rows = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise EmptySampleError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        checked = check_header(header)
        for cells in reader:
            if all(not cell.strip() for cell in cells):
                continue
            row = reader.line_num - 1
            if len(cells) != len(header):
                raise ParseError(f"{path}: row {row} has {len(cells)} cells, expected {len(header)}")
            try:
                values.append([_number(cell) for cell in cells])
            except ValueError as exc:
                raise ParseError(f"{path}: row {row}: {exc}") from None
            rows.append(row)
    except csv.Error as exc:  # a cell over csv.field_size_limit(), say
        raise ParseError(f"{path}: row {reader.line_num - 1}: {exc}") from None
    if not values:
        raise EmptySampleError(f"{path}: no data rows")
    data = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(data)):
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"{path}: non-finite value at row {rows[i]}, column {header[j]}")
    return checked, data, rows


def _centers_radii(path, data: np.ndarray, rows: list[int], pairs: dict[str, tuple[int, int]]):
    """Centers and radii of the variables ``pairs`` maps to their bound columns.

    An inverted bound pair is a ParseError naming the row and variable.
    """
    xc, xr = [], []
    for var, (lo_col, hi_col) in pairs.items():
        lo, hi = data[:, lo_col], data[:, hi_col]
        bad = np.nonzero(lo > hi)[0]
        if bad.size:
            i = bad[0]
            raise ParseError(f"{path}: row {rows[i]}, variable {var!r}: lower {lo[i]} > upper {hi[i]}")
        xc.append(0.5 * (lo + hi))
        xr.append(0.5 * (hi - lo))
    return np.column_stack(xc), np.column_stack(xr)


def load_csv(path, response: str | None = None) -> IntervalFrame:
    """Read a bound-schema CSV into a frame.

    The response is the last variable pair unless ``response`` names one.
    Blank lines are ignored; any malformed cell or inverted bound pair is a
    ParseError naming the row and column.
    """
    columns, data, rows = read_table(path, _pair_columns)
    if len(columns) < 2:
        raise ParseError(f"{path}: need at least one predictor pair and a response pair")
    resp = response if response is not None else list(columns)[-1]
    if resp not in columns:
        raise ParseError(f"{path}: response variable {resp!r} not among columns")
    predictors = [v for v in columns if v != resp]

    xc, xr = _centers_radii(path, data, rows, {v: columns[v] for v in predictors})
    yc, yr = _centers_radii(path, data, rows, {resp: columns[resp]})  # IntervalFrame ravels it
    return IntervalFrame(tuple(predictors), xc, xr, yc, yr, resp)


def load_feature_csv(path, predictor_names) -> tuple[np.ndarray, np.ndarray]:
    """Read only the named predictor pairs; extra variable pairs are ignored."""
    columns, data, rows = read_table(path, _pair_columns)
    missing = [v for v in predictor_names if v not in columns]
    if missing:
        raise ParseError(f"{path}: missing predictor pair(s): {', '.join(missing)}")
    return _centers_radii(path, data, rows, {v: columns[v] for v in predictor_names})


def write_csv(frame: IntervalFrame, path) -> None:
    """Write a frame in the bound schema (inverse of load_csv for coherent data)."""
    names = (*frame.predictor_names, frame.response_name)
    center = np.column_stack([frame.x_center, frame.y_center])
    radius = np.column_stack([frame.x_radius, frame.y_radius])
    bounds = np.stack([center - radius, center + radius], axis=2).reshape(frame.n, -1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{v}_{side}" for v in names for side in "LU"])
        writer.writerows([repr(b) for b in row] for row in bounds.tolist())


def split(frame: IntervalFrame, spec: SplitSpec) -> tuple[IntervalFrame, IntervalFrame]:
    """Partition into (train, test): disjoint, exhaustive, size round(f * n).

    Random mode samples train rows uniformly without replacement, driven only
    by the seed; chronological mode takes the leading rows. Rounding is
    half-up. ``train_count`` overrides the fraction exactly.
    """
    n = frame.n
    n_train = spec.n_train(n)
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
