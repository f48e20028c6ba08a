"""Accuracy metrics and the benchmark experiment driver.

The driver runs a grid of (setting, total size, replication) cells: each
cell simulates a dataset, splits off the training fraction, fits every
requested model, and scores center and radius predictions on the held-out
rows with out-of-sample R-squared, MSE, and MAE. Replications are
independent jobs keyed by seeds derived from the master seed, so results
are byte-reproducible regardless of worker count or completion order.
:func:`run_real_data` runs the same fit, predict and score loop on one
given (train, test) split of a real dataset.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateTruthError, DimensionError, EmptySampleError, ParseError
from .frame import IntervalFrame, SplitSpec, read_table, split
from .intervals import PredictionSet
from .models import MODELS, check_fit_settings, fit_model, model_names, predict_model
from .rng import derive_seed
from .simulate import SETTING_IDS, SimSetting, simulate

COMPONENTS = ("center", "radius")
METRICS = ("r2", "mse", "mae")


@dataclass(frozen=True)
class ComponentScores:
    r2: float
    mse: float
    mae: float


@dataclass(frozen=True)
class EvalReport:
    center: ComponentScores
    radius: ComponentScores
    n_test: int
    incoherent_count: int


def _scores(pred: np.ndarray, truth: np.ndarray, what: str) -> ComponentScores:
    resid = pred - truth
    mse = float(np.mean(resid**2))
    mae = float(np.mean(np.abs(resid)))
    dev = truth - truth.mean()
    sst = float(dev @ dev)
    if sst <= 0.0:
        raise DegenerateTruthError(f"test {what} values have zero variance")
    r2 = 1.0 - float(resid @ resid) / sst
    return ComponentScores(r2, mse, mae)


def evaluate(pred: PredictionSet, truth_center: np.ndarray, truth_radius: np.ndarray) -> EvalReport:
    """Score predictions against the truth, per component.

    R-squared is out-of-sample: the baseline is the test-set mean, so values
    can be negative. Incoherent predictions are scored on their raw values
    and counted.
    """
    truth_center = np.asarray(truth_center, dtype=float).ravel()
    truth_radius = np.asarray(truth_radius, dtype=float).ravel()
    n = truth_center.size
    if pred.center.size != n or truth_radius.size != n:
        raise DimensionError(
            f"prediction rows ({pred.center.size}) != truth rows ({n})"
        )
    if n < 2:
        raise EmptySampleError(f"evaluation needs at least 2 rows, got {n}")
    return EvalReport(
        _scores(pred.center, truth_center, "center"),
        _scores(pred.radius, truth_radius, "radius"),
        n_test=n,
        incoherent_count=int(np.count_nonzero(pred.incoherent)),
    )


def evaluate_frame(pred: PredictionSet, truth: IntervalFrame) -> EvalReport:
    return evaluate(pred, truth.y_center, truth.y_radius)


@dataclass(frozen=True)
class ExperimentSpec:
    """Benchmark grid: settings x total sizes x replications x models."""

    settings: tuple[int, ...]
    total_sizes: tuple[int, ...] = (500, 1000, 2000)
    reps: int = 100
    models: tuple[str, ...] = ("ccrm", "rf")
    master_seed: int = 0
    train_fraction: float = 0.1
    n_trees: int = 500
    mtry: int | None = None
    min_node: int = 5
    kernel: str = "gaussian"
    bandwidth: float | None = None
    workers: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(int(s) for s in self.settings))
        object.__setattr__(self, "total_sizes", tuple(int(n) for n in self.total_sizes))
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        object.__setattr__(self, "models", model_names(self.models))
        for s in self.settings:
            if s not in SETTING_IDS:
                raise ConfigError(f"unknown setting {s}; choose from 1..7")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        # a given mtry must fit the features of every setting when a forest is fitted
        n_features = ([simulate(SimSetting(s, 2)).features().shape[1] for s in self.settings]
                      if "rf" in self.models and self.mtry is not None else [])
        check_fit_settings(self.bandwidth, n_features, n_trees=self.n_trees, mtry=self.mtry,
                           min_node=self.min_node)
        for n in self.total_sizes:  # with the errors a cell would raise, before any cell runs
            SimSetting(SETTING_IDS[0], n)  # every setting takes the same sizes
            SplitSpec(self.train_fraction).n_train(n)


@dataclass(frozen=True)
class CellRecord:
    """One model's scores and wall time on one (setting, n_train, rep) cell."""

    setting: int
    n_train: int
    rep: int
    model: str
    report: EvalReport
    wall_time_s: float


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    records: list[CellRecord] = field(default_factory=list)  # sorted by run_experiment

    def mean_cells(self) -> dict:
        """Mean r2/mse/mae per (setting, n_train, model, component), summed in rep order."""
        sums: dict[tuple, tuple] = {}
        for r in self.records:
            for component in COMPONENTS:
                s = getattr(r.report, component)
                key = (r.setting, r.n_train, r.model, component)
                r2, mse, mae, n = sums.get(key, (0.0, 0.0, 0.0, 0))
                sums[key] = (r2 + s.r2, mse + s.mse, mae + s.mae, n + 1)
        return {
            key: {"r2": r2 / n, "mse": mse / n, "mae": mae / n}
            for key, (r2, mse, mae, n) in sums.items()
        }


def _fit_predict_score(models: tuple[str, ...], train: IntervalFrame, test: IntervalFrame,
                       seed: int, **hyper):
    """Yield (model, predictions, report, seconds) per model, timing fit, predict and score."""
    for model in models:
        t0 = time.perf_counter()
        pred = predict_model(fit_model(model, train, seed, **hyper), test)
        report = evaluate_frame(pred, test)
        yield model, pred, report, time.perf_counter() - t0


def _run_cell(args: tuple) -> list[CellRecord]:
    spec, setting, total_n, rep = args
    rep_seed = derive_seed("rep", spec.master_seed, setting, total_n, rep)
    frame = simulate(SimSetting(setting, total_n, rep_seed))
    train, test = split(
        frame, SplitSpec(spec.train_fraction, mode="random", seed=rep_seed)
    )
    runs = _fit_predict_score(spec.models, train, test, rep_seed, kernel=spec.kernel,
                              bandwidth=spec.bandwidth, n_trees=spec.n_trees, mtry=spec.mtry,
                              min_node=spec.min_node)
    return [CellRecord(setting, train.n, rep, model, report, seconds)
            for model, _, report, seconds in runs]


def resolve_workers(requested: int | None) -> int:
    """``requested``, else ``IVF_THREADS``, else the CPU count; a count below 1 is a ConfigError."""
    source = "workers"
    if requested is None:
        env = os.environ.get("IVF_THREADS")
        if not env:
            return os.cpu_count() or 1
        source = "IVF_THREADS"
        try:
            requested = int(env)
        except ValueError:
            raise ConfigError(f"IVF_THREADS must be an integer, got {env!r}") from None
    if requested < 1:
        raise ConfigError(f"{source} must be >= 1, got {requested}")
    return int(requested)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every cell of the grid; fully determined by the master seed."""
    jobs = [
        (spec, setting, total_n, rep)
        for setting in spec.settings
        for total_n in spec.total_sizes
        for rep in range(spec.reps)
    ]
    workers = resolve_workers(spec.workers)
    result = ExperimentResult(spec)
    if workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            result.records.extend(_run_cell(job))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for records in pool.map(_run_cell, jobs, chunksize=1):
                result.records.extend(records)
    order = {m: i for i, m in enumerate(MODELS)}
    result.records.sort(key=lambda r: (r.setting, r.n_train, r.rep, order[r.model]))
    return result


RESULTS_HEADER = "setting,n_train,rep,model,component,r2,mse,mae"
TIMINGS_HEADER = "setting,n_train,rep,model,wall_time_s"


def results_csv(result: ExperimentResult) -> str:
    lines = [RESULTS_HEADER]
    for r in result.records:
        for component in COMPONENTS:
            s = getattr(r.report, component)
            lines.append(
                f"{r.setting},{r.n_train},{r.rep},{r.model},{component},"
                f"{s.r2!r},{s.mse!r},{s.mae!r}"
            )
    return "\n".join(lines) + "\n"


def timings_csv(result: ExperimentResult) -> str:
    """One line per (setting, n_train, rep, model): fit, predict and score time."""
    lines = [TIMINGS_HEADER]
    for r in result.records:
        lines.append(f"{r.setting},{r.n_train},{r.rep},{r.model},{r.wall_time_s:.6f}")
    return "\n".join(lines) + "\n"


def summary_csv(result: ExperimentResult) -> str:
    """Mean per cell in a layout mirroring the benchmark tables.

    One row per (setting, n_train, component, metric); one column per model
    plus a marker column naming the best model (highest r2, lowest mse/mae).
    """
    scores = {(f"{s},{n},", m, c): v for (s, n, m, c), v in result.mean_cells().items()}
    return _summary_table("setting,n_train,", result.spec.models, scores)


def real_summary_csv(reports: dict[str, EvalReport]) -> str:
    """:func:`summary_csv`'s layout for one dataset, without the cell columns."""
    scores = {("", m, c): vars(getattr(r, c)) for m, r in reports.items() for c in COMPONENTS}
    return _summary_table("", tuple(reports), scores)


def _summary_table(head: str, models: tuple[str, ...], scores: dict) -> str:
    """``scores`` maps (row prefix, model, component) to {metric: value}.

    Prefixes keep their first-seen order; ties for the best model go to the
    model listed first.
    """
    lines = [f"{head}component,metric," + ",".join(models) + ",best"]
    for prefix in dict.fromkeys(key[0] for key in scores):
        for component in COMPONENTS:
            for metric in METRICS:
                vals = [scores[(prefix, m, component)][metric] for m in models]
                best = models[(np.argmax if metric == "r2" else np.argmin)(vals)]
                row = ",".join(map(repr, vals))
                lines.append(f"{prefix}{component},{metric},{row},{best}")
    return "\n".join(lines) + "\n"


PREDICTIONS_HEADER = "y_L,y_U,incoherent"


def predictions_csv(pred: PredictionSet) -> str:
    """Raw bound-form predictions; incoherent rows keep their inverted bounds."""
    lines = [PREDICTIONS_HEADER]
    for c, r, bad in zip(pred.center, pred.radius, pred.incoherent):
        lines.append(f"{float(c - r)!r},{float(c + r)!r},{int(bad)}")
    return "\n".join(lines) + "\n"


def read_predictions_csv(path) -> PredictionSet:
    """Read :func:`predictions_csv`'s layout through :func:`frame.read_table`."""

    def check_header(header):
        if header != PREDICTIONS_HEADER.split(","):
            raise ConfigError(f"{path}: expected header {PREDICTIONS_HEADER!r}")

    _, data, rows = read_table(path, check_header)
    lo, hi, flag = data.T
    bad = np.nonzero((flag != 0) & (flag != 1))[0]
    if bad.size:
        i = bad[0]
        raise ParseError(f"{path}: row {rows[i]}: 'incoherent' must be 0 or 1, got {flag[i]:g}")
    return PredictionSet(0.5 * (lo + hi), 0.5 * (hi - lo), flag == 1)


def run_real_data(
    train: IntervalFrame,
    test: IntervalFrame,
    models: tuple[str, ...] = ("ccrm", "rf"),
    seed: int = 0,
    **hyper,
) -> tuple[dict, dict]:
    """Single-dataset comparison on one :func:`frame.split`: fit each model, score on ``test``.

    ``hyper`` holds :func:`fit_model`'s hyperparameters (kernel, bandwidth,
    n_trees, mtry, ...). Returns (reports, predictions), keyed by model name.
    """
    runs = list(_fit_predict_score(model_names(models), train, test, derive_seed("real", seed),
                                   **hyper))
    return {m: report for m, _, report, _ in runs}, {m: pred for m, pred, _, _ in runs}
