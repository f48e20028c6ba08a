"""Tests of the benchmark's own code: every check rejects a corrupted output.

Run with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import runner
import spans
from checks import CheckFailed
from ivforest import forest, frame, kernel, linear
from ivforest.evaluate import evaluate
from ivforest.simulate import SimSetting, simulate

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def data():
    full = simulate(SimSetting(5, 300, 11))
    full = frame.IntervalFrame(full.predictor_names, full.x_center + 1e4, full.x_radius,
                               full.y_center + 1e4, full.y_radius)
    train, test = frame.split(full, frame.SplitSpec(0.5, mode="random", seed=11))
    return train, test, np.hstack([train.x_center, train.x_radius]), np.hstack([test.x_center, test.x_radius])


@pytest.fixture(scope="module")
def rf(data):
    train = data[0]
    return forest.fit_forest(train, forest.ForestParams(n_trees=5, seed=3))


def _bumped(a, i=0, by=1e-3):
    a = np.array(a, dtype=float)
    a[i] += by
    return a


def test_scores_reject_a_corrupted_report(data):
    _, test, _, _ = data
    pred = test.y_center + np.linspace(-1, 1, test.n)
    report = vars(evaluate(linear.PredictionSet(pred, test.y_radius, test.y_radius < 0),
                           test.y_center, test.y_radius).center)
    checks.check_scores(report, pred, test.y_center, "center")
    for name in ("r2", "mse", "mae"):
        bad = dict(report, **{name: report[name] * (1 + 1e-7)})
        with pytest.raises(CheckFailed, match=name):
            checks.check_scores(bad, pred, test.y_center, "center")
    with pytest.raises(CheckFailed, match="not finite"):
        checks.check_scores(dict(report, r2=float("nan")), pred, test.y_center, "center")


def test_ccrm_rejects_corrupted_coefficients(data):
    train = data[0]
    fit = linear.fit_linear("ccrm", train)
    args = (train.x_center, train.x_radius, train.y_center, train.y_radius, "ccrm")
    checks.check_ccrm(fit.first_coeffs, fit.second_coeffs, *args)
    with pytest.raises(CheckFailed, match="center coefficients"):
        checks.check_ccrm(_bumped(fit.first_coeffs, 1), fit.second_coeffs, *args)
    with pytest.raises(CheckFailed, match="radius coefficients"):
        checks.check_ccrm(fit.first_coeffs, _bumped(fit.second_coeffs, 0), *args)


def test_kernel_rejects_corrupted_predictions(data):
    train, test, X, Q = data
    fit = kernel.fit_kernel(train)
    pred = kernel.predict_kernel_rows(fit, Q)
    args = (X, train.y_center, train.y_radius, fit.h, Q, "ke")
    checks.check_kernel(pred.center, pred.radius, *args)
    with pytest.raises(CheckFailed, match="kernel centers"):
        checks.check_kernel(_bumped(pred.center, 5, 1e-3), pred.radius, *args)
    with pytest.raises(CheckFailed, match="kernel radii"):
        checks.check_kernel(pred.center, _bumped(pred.radius, 5, 1e-4), *args)
    with pytest.raises(CheckFailed, match="kernel centers"):
        checks.check_kernel(pred.center, pred.radius, X, train.y_center, train.y_radius,
                            fit.h * 1.01, Q, "ke")


def test_leaf_means_reject_a_corrupted_leaf(data, rf):
    train, _, X, _ = data
    tree = rf.center_trees[0]
    checks.check_leaf_means(tree, X, train.y_center, "tree")
    leaf = int(np.nonzero(tree.feature < 0)[0][0])
    with pytest.raises(CheckFailed, match="leaf values"):
        checks.check_leaf_means(replace(tree, value=_bumped(tree.value, leaf, 1e-6)), X,
                                train.y_center, "tree")
    node = int(np.nonzero(tree.feature >= 0)[0][0])
    moved = tree.threshold.copy()
    moved[node] = np.inf  # every row goes left: the right subtree's leaves get no row
    with pytest.raises(CheckFailed, match="receives no bootstrap row"):
        checks.check_leaf_means(replace(tree, threshold=moved), X, train.y_center, "tree")


def test_forest_rejects_corrupted_predictions(data, rf):
    _, _, _, Q = data
    pred = forest.predict_forest_rows(rf, Q)
    checks.check_forest(pred.center, pred.radius, rf, Q, "rf")
    with pytest.raises(CheckFailed, match="forest centers"):
        checks.check_forest(_bumped(pred.center, 3, 1e-4), pred.radius, rf, Q, "rf")
    with pytest.raises(CheckFailed, match="forest radii"):
        checks.check_forest(pred.center, _bumped(pred.radius, 3, 1e-6), rf, Q, "rf")


def test_route_rejects_a_cycle():
    with pytest.raises(CheckFailed, match="cycle"):
        checks.route(np.array([0, 0]), np.array([0.0, 0.0]), np.array([1, 1]),
                     np.array([1, 1]), np.zeros((2, 1)))


def test_hull_and_order_reject_escaping_predictions(data, rf):
    train, _, _, Q = data
    pred = forest.predict_forest_rows(rf, Q)
    checks.check_hull(pred.center, pred.radius, train.y_center, train.y_radius, "rf")
    above = _bumped(pred.center, 0, by=train.y_center.max() - pred.center[0] + 1e-3)
    with pytest.raises(CheckFailed, match="center: 1 prediction"):
        checks.check_hull(above, pred.radius, train.y_center, train.y_radius, "rf")
    checks.check_ordered(pred.lower, pred.upper, "rf")
    with pytest.raises(CheckFailed, match="y_L > y_U"):
        checks.check_ordered(pred.upper, pred.lower, "rf")


def test_tracer_counts_a_nested_layer_once_and_restores(data):
    train, test, _, _ = data
    fit = linear.fit_linear("ccrm", train)
    original = linear.predict_linear
    tracer = spans.Tracer()
    with tracer, tracer.phase("pass") as phase:
        assert linear.predict_linear is not original
        linear.predict_linear_frame(fit, test)  # calls predict_linear inside
    assert linear.predict_linear is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["phase", "linear.predict_linear_frame", "linear.predict_linear"]
    outer = tracer.spans[1]
    assert phase.totals() == {"linear.predict_s": outer["end"] - outer["start"]}


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(runner.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == runner.PER_LAYER


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no ivforest package" in proc.stderr
