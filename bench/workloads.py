"""The benchmark's three workloads.

Each workload has a set-up (``build``), a timed pass (``run_pass``) that
the runner repeats for the run length, a check of the first pass against
independent computations (``check``), and an untimed step after the
passes (``post``). Every call into ivforest goes through a module
attribute looked up at call time, so a :class:`spans.Tracer` active around
a phase sees it.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import spans
from checks import require
from ivforest import cli, forest, frame, kernel, linear

# the package re-exports functions named like these two modules
evaluate = importlib.import_module("ivforest.evaluate")
simulate = importlib.import_module("ivforest.simulate")

MODELS = ("ccrm", "ke", "rf")

# grid: the paper's simulation study as `ivf bench` runs it
GRID_SETTINGS = (1, 2, 3, 4, 5, 6, 7)
GRID_SIZES = (500, 1000, 2000)
GRID_REPS = 1
GRID_TREES = 50  # about six passes in a 30-second run
GRID_TRAIN_FRACTION = 0.1

# cli_fit_predict: setting 5 at DJIA price scale through the CLI
CLI_SETTING = 5
CLI_ROWS = 2000
CLI_OFFSET = 1e4
CLI_TRAIN_FRACTION = 0.8
CLI_TREES = 50  # about seven passes in a 30-second run

# predict_batch: fit once on a small setting-7 sample, predict a large query set
# With 200 training rows the kernel's R2 spread across ten seeds reached 0.235
# of its median; 400 rows bring it to 0.03-0.10, and 250 trees keep the
# set-up fit near 4 s.
BATCH_SETTING = 7
BATCH_TRAIN = 400
BATCH_QUERIES = 20_000
BATCH_TREES = 250
BATCH_CHECK_ROWS = 1000  # query rows re-predicted by the independent forest and kernel sums


@dataclass
class Pass:
    wall_s: float
    metrics: dict
    attempted: int
    failed: int
    fingerprint: str  # digest of every output; passes of one run must agree
    outputs: dict = field(default_factory=dict)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _mean_r2(report) -> float:
    return 0.5 * (report["center"]["r2"] + report["radius"]["r2"])


def _read_bounds_csv(path) -> dict:
    """Bound-schema CSV -> {variable: (center, radius)}, parsed here, not by ivforest."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = {}
    for j in range(0, len(header), 2):
        lo, hi = data[:, j], data[:, j + 1]
        out[header[j][:-2]] = (0.5 * (lo + hi), 0.5 * (hi - lo))
    return out


def _trees_from_doc(docs) -> list:
    return [
        SimpleNamespace(**{k: np.asarray(d[k]) for k in
                           ("feature", "threshold", "left", "right", "value", "bootstrap")})
        for d in docs
    ]


# --------------------------------------------------------------------------- grid


class Grid:
    name = "grid"
    untraced_functions = spans.FIT_PREDICT  # fit/predict time and the fits for the checks

    def build(self, workdir: Path, seed: int):
        out = workdir / "grid"
        out.mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(out=out, seed=seed), {}

    def cells(self):
        return [(s, n, rep) for s in GRID_SETTINGS for n in GRID_SIZES for rep in range(GRID_REPS)]

    def run_pass(self, inputs, tracer) -> Pass:
        argv = ["bench", "--settings", ",".join(map(str, GRID_SETTINGS)),
                "--sizes", ",".join(map(str, GRID_SIZES)), "--reps", str(GRID_REPS),
                "--models", ",".join(MODELS), "--trees", str(GRID_TREES),
                "--train-fraction", str(GRID_TRAIN_FRACTION), "--workers", "1",
                "--seed", str(inputs.seed), "--out-dir", str(inputs.out)]
        with tracer.phase("pass") as phase:
            code, wall = _timed(_run_cli, argv)
        n_cells = len(self.cells())
        if code != 0:
            return Pass(wall, {}, n_cells, n_cells, "")
        text = (inputs.out / "results.csv").read_text(encoding="utf-8")
        results = _parse_results(text)
        t = phase.totals()
        n_test = sum(n - int(np.floor(GRID_TRAIN_FRACTION * n + 0.5)) for _, n, _ in self.cells())
        metrics = {
            "wall_s": wall,
            "fit_s": t["linear.fit_s"] + t["kernel.fit_s"] + t["forest.fit_s"],
            "predict_s": t["linear.predict_s"] + t["kernel.predict_s"] + t["forest.predict_s"],
            "rf_rows_per_s": n_test / t["forest.predict_s"],
            "ke_rows_per_s": n_test / t["kernel.predict_s"],
            "rf_r2": float(np.mean([v["r2"] for k, v in results.items() if k[3] == "rf"])),
            "ke_r2": float(np.mean([v["r2"] for k, v in results.items() if k[3] == "ke"])),
        }
        return Pass(wall, metrics, n_cells, 0, _digest(text.encode()), {"results": results})

    def check(self, inputs, first: Pass, calls: list) -> None:
        results = first.outputs["results"]
        expected_keys = {
            (s, int(np.floor(GRID_TRAIN_FRACTION * n + 0.5)), rep, m, c)
            for s, n, rep in self.cells() for m in MODELS for c in ("center", "radius")
        }
        require(set(results) == expected_keys,
                f"results.csv rows {len(results)} do not match the {len(expected_keys)} "
                "(setting, size, rep, model, component) cells")
        expected_calls = [q for _ in self.cells() for q in spans.FIT_PREDICT]
        require([c[0] for c in calls] == expected_calls,
                "grid: the fit/predict call sequence does not follow the cells")
        for i, (setting, _, rep) in enumerate(self.cells()):
            cell = calls[6 * i: 6 * i + 6]
            for j, model in enumerate(MODELS):
                (_, fargs, _, fit), (_, pargs, _, pred) = cell[2 * j], cell[2 * j + 1]
                train = fargs[1] if model == "ccrm" else fargs[0]
                test = pargs[1]
                what = f"setting {setting} n_train {train.n} rep {rep} {model}"
                for comp, p, y in (("center", pred.center, test.y_center),
                                   ("radius", pred.radius, test.y_radius)):
                    checks.check_scores(results[(setting, train.n, rep, model, comp)], p, y,
                                        f"{what} {comp}")
                if model == "ccrm":
                    checks.check_ccrm(fit.first_coeffs, fit.second_coeffs, train.x_center,
                                      train.x_radius, train.y_center, train.y_radius, what)
                    continue
                checks.check_hull(pred.center, pred.radius, train.y_center, train.y_radius, what)
                if model == "rf":
                    checks.check_leaves(fit, np.hstack([train.x_center, train.x_radius]),
                                        train.y_center, train.y_radius, what)

        def mean_center_r2(model):
            return np.mean([v["r2"] for k, v in results.items()
                            if k[0] in (5, 6, 7) and k[3] == model and k[4] == "center"])

        rf, ccrm = mean_center_r2("rf"), mean_center_r2("ccrm")
        require(rf > ccrm, f"settings 5-7: rf mean center R2 {rf:.4f} <= ccrm {ccrm:.4f}")

    def post(self, inputs, first: Pass, calls: list) -> dict:
        """Size of the forest of the grid's last, largest cell as a model file."""
        (_, _, _, fit), (_, pargs, _, pred) = calls[-2], calls[-1]
        text = forest.forest_to_json(fit)
        loaded = forest.forest_from_json(text)
        test = pargs[1]
        X = np.hstack([test.x_center, test.x_radius])
        checks.check_forest(pred.center, pred.radius, loaded, X, "grid forest after a JSON round trip")
        return {"rf_model_mb": len(text.encode()) / 1e6}


def _run_cli(argv) -> int:
    try:
        return cli.main(argv)
    except Exception:  # a traceback out of the CLI is a failed command, not a crashed run
        traceback.print_exc()
        return -1


def _parse_results(text: str) -> dict:
    rows = {}
    for r in csv.DictReader(text.splitlines()):
        key = (int(r["setting"]), int(r["n_train"]), int(r["rep"]), r["model"], r["component"])
        rows[key] = {m: float(r[m]) for m in ("r2", "mse", "mae")}
    return rows


# --------------------------------------------------------------------------- cli_fit_predict


class CliFitPredict:
    name = "cli_fit_predict"
    untraced_functions = ()

    def build(self, workdir: Path, seed: int):
        drawn = simulate.simulate(simulate.SimSetting(CLI_SETTING, CLI_ROWS, seed))
        shifted = frame.IntervalFrame(drawn.predictor_names, drawn.x_center + CLI_OFFSET,
                                      drawn.x_radius, drawn.y_center + CLI_OFFSET,
                                      drawn.y_radius, drawn.response_name)
        train, test = frame.split(shifted, frame.SplitSpec(CLI_TRAIN_FRACTION, mode="chronological"))
        d = workdir / "cli"
        d.mkdir(parents=True, exist_ok=True)
        frame.write_csv(train, d / "train.csv")
        frame.write_csv(test, d / "test.csv")
        return SimpleNamespace(dir=d, seed=seed, n_test=test.n), {}

    def commands(self, inputs):
        d = inputs.dir
        fit_flags = {"ccrm": [], "ke": ["--bw-auto"],
                     "rf": ["--trees", str(CLI_TREES), "--seed", str(inputs.seed)]}
        for m in MODELS:
            yield "fit", m, ["fit", "--model", m, *fit_flags[m], "--in", str(d / "train.csv"),
                             "--out", str(d / f"{m}.json")]
            yield "predict", m, ["predict", "--model-file", str(d / f"{m}.json"),
                                 "--in", str(d / "test.csv"), "--out", str(d / f"{m}_pred.csv")]
            yield "evaluate", m, ["evaluate", "--pred", str(d / f"{m}_pred.csv"),
                                  "--truth", str(d / "test.csv"), "--out", str(d / f"{m}_eval.json")]

    def run_pass(self, inputs, tracer) -> Pass:
        took: dict = {}
        failed = []
        for old in inputs.dir.iterdir():  # a failed command must not find the last pass's file
            if old.name not in ("train.csv", "test.csv"):
                old.unlink()
        with tracer.phase("pass"):
            t0 = time.perf_counter()
            for kind, model, argv in self.commands(inputs):
                code, took[kind, model] = _timed(_run_cli, argv)
                if code != 0:
                    failed.append((kind, model))
            wall = time.perf_counter() - t0
        n_ops = len(took)
        if failed:
            return Pass(wall, {}, n_ops, len(failed), "", {"failed": failed})
        d = inputs.dir
        files = [d / f"{m}{suffix}" for m in MODELS for suffix in (".json", "_pred.csv", "_eval.json")]
        evals = {m: json.loads((d / f"{m}_eval.json").read_text()) for m in MODELS}
        metrics = {
            "wall_s": wall,
            "fit_s": sum(v for (k, _), v in took.items() if k == "fit"),
            "predict_s": sum(v for (k, _), v in took.items() if k == "predict"),
            "rf_rows_per_s": inputs.n_test / took["predict", "rf"],
            "ke_rows_per_s": inputs.n_test / took["predict", "ke"],
            "rf_r2": _mean_r2(evals["rf"]),
            "ke_r2": _mean_r2(evals["ke"]),
            "rf_model_mb": (d / "rf.json").stat().st_size / 1e6,
        }
        return Pass(wall, metrics, n_ops, 0, _digest(*(f.read_bytes() for f in files)),
                    {"evals": evals})

    def check(self, inputs, first: Pass, calls: list) -> None:
        d = inputs.dir
        train = _read_bounds_csv(d / "train.csv")
        test = _read_bounds_csv(d / "test.csv")
        (xc, xr), (yc, yr) = train["x1"], train["y"]
        (qc, qr), (tc, tr) = test["x1"], test["y"]
        X = np.column_stack([xc, xr])
        Q = np.column_stack([qc, qr])
        for m in MODELS:
            data = np.loadtxt(d / f"{m}_pred.csv", delimiter=",", skiprows=1, ndmin=2)
            require(data.shape[0] == tc.size,
                    f"{m}: {data.shape[0]} prediction rows for {tc.size} test rows")
            lo, hi = data[:, 0], data[:, 1]
            pc, pr = 0.5 * (lo + hi), 0.5 * (hi - lo)
            ev = first.outputs["evals"][m]
            require(ev["n_test"] == tc.size, f"{m}: evaluate n_test {ev['n_test']} != {tc.size}")
            checks.check_scores(ev["center"], pc, tc, f"{m} center")
            checks.check_scores(ev["radius"], pr, tr, f"{m} radius")
            doc = json.loads((d / f"{m}.json").read_text())
            if m == "ccrm":
                checks.check_ccrm(doc["coefficients"][0], doc["coefficients"][1],
                                  xc[:, None], xr[:, None], yc, yr, "ccrm")
                continue
            checks.check_hull(pc, pr, yc, yr, m)
            checks.check_ordered(lo, hi, m)
            if m == "ke":
                require(doc["kernel"] == "gaussian", f"ke: kernel {doc['kernel']!r}")
                checks.check_kernel(pc, pr, X, yc, yr, doc["bandwidth"], Q, "ke")
            else:
                fit = SimpleNamespace(center_trees=_trees_from_doc(doc["center_trees"]),
                                      radius_trees=_trees_from_doc(doc["radius_trees"]))
                checks.check_forest(pc, pr, fit, Q, "rf")
                checks.check_leaves(fit, X, yc, yr, "rf")

    def post(self, inputs, first: Pass, calls: list) -> dict:
        return {}


# --------------------------------------------------------------------------- predict_batch


class PredictBatch:
    name = "predict_batch"
    untraced_functions = ()

    def build(self, workdir: Path, seed: int):
        drawn = simulate.simulate(simulate.SimSetting(BATCH_SETTING, BATCH_TRAIN + BATCH_QUERIES, seed))
        train, queries = frame.split(
            drawn, frame.SplitSpec(0.5, mode="random", seed=seed, train_count=BATCH_TRAIN))
        t0 = time.perf_counter()
        fits = {
            "ccrm": linear.fit_linear("ccrm", train),
            "ke": kernel.fit_kernel(train),
            "rf": forest.fit_forest(train, forest.ForestParams(n_trees=BATCH_TREES, seed=seed)),
        }
        fit_s = time.perf_counter() - t0
        return SimpleNamespace(train=train, queries=queries, fits=fits, seed=seed), {"fit_s": fit_s}

    def run_pass(self, inputs, tracer) -> Pass:
        took, preds, reports = {}, {}, {}
        failed = 0
        with tracer.phase("pass"):
            t0 = time.perf_counter()
            for m, module, fn in (("rf", forest, "predict_forest_frame"),
                                  ("ke", kernel, "predict_kernel_frame"),
                                  ("ccrm", linear, "predict_linear_frame")):
                try:
                    preds[m], took[m] = _timed(getattr(module, fn), inputs.fits[m], inputs.queries)
                    reports[m] = evaluate.evaluate_frame(preds[m], inputs.queries)
                except Exception:  # a failed predict call is counted, the others still run
                    traceback.print_exc()
                    failed += 1
            wall = time.perf_counter() - t0
        if failed:
            return Pass(wall, {}, 3, failed, "")
        n = inputs.queries.n
        metrics = {
            "wall_s": wall,
            "predict_s": sum(took.values()),
            "rf_rows_per_s": n / took["rf"],
            "ke_rows_per_s": n / took["ke"],
            "rf_r2": 0.5 * (reports["rf"].center.r2 + reports["rf"].radius.r2),
            "ke_r2": 0.5 * (reports["ke"].center.r2 + reports["ke"].radius.r2),
        }
        digest = _digest(*(a.tobytes() for m in MODELS for a in (preds[m].center, preds[m].radius)))
        return Pass(wall, metrics, 3, 0, digest, {"preds": preds, "reports": reports})

    def check(self, inputs, first: Pass, calls: list) -> None:
        train, q = inputs.train, inputs.queries
        X = np.hstack([train.x_center, train.x_radius])
        Q = np.hstack([q.x_center, q.x_radius])
        sample = _check_rows(q.n)
        preds, reports = first.outputs["preds"], first.outputs["reports"]
        for m in MODELS:
            for comp, p, y in (("center", preds[m].center, q.y_center),
                               ("radius", preds[m].radius, q.y_radius)):
                checks.check_scores(vars(getattr(reports[m], comp)), p, y, f"{m} {comp}")
        ccrm = inputs.fits["ccrm"]
        checks.check_ccrm(ccrm.first_coeffs, ccrm.second_coeffs, train.x_center, train.x_radius,
                          train.y_center, train.y_radius, "ccrm")
        for m in ("rf", "ke"):
            checks.check_hull(preds[m].center, preds[m].radius, train.y_center, train.y_radius, m)
        rf = inputs.fits["rf"]
        checks.check_forest(preds["rf"].center[sample], preds["rf"].radius[sample], rf, Q[sample], "rf")
        checks.check_leaves(rf, X, train.y_center, train.y_radius, "rf")
        ke = inputs.fits["ke"]
        require(ke.kernel == "gaussian", f"ke: kernel {ke.kernel!r}")
        checks.check_kernel(preds["ke"].center[sample], preds["ke"].radius[sample], X,
                            train.y_center, train.y_radius, ke.h, Q[sample], "ke")

    def post(self, inputs, first: Pass, calls: list) -> dict:
        """Size of the fitted forest as a model file; the reloaded model predicts the same."""
        text = forest.forest_to_json(inputs.fits["rf"])
        loaded = forest.forest_from_json(text)
        q = inputs.queries
        rows = _check_rows(q.n)
        pred = first.outputs["preds"]["rf"]
        checks.check_forest(pred.center[rows], pred.radius[rows], loaded,
                            np.hstack([q.x_center, q.x_radius])[rows], "rf after a JSON round trip")
        return {"rf_model_mb": len(text.encode()) / 1e6}


def _check_rows(n: int) -> np.ndarray:
    """Evenly spaced query rows; the simulated rows are independent draws."""
    return np.arange(0, n, n // BATCH_CHECK_ROWS)[:BATCH_CHECK_ROWS]


WORKLOADS = {w.name: w for w in (Grid(), CliFitPredict(), PredictBatch())}
