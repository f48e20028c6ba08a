"""The benchmark routes rows through a forest's own node arrays.

``bench/checks.py`` reads ``feature``, ``threshold``, ``left``, ``right``,
``value`` and ``bootstrap`` from every tree of a fitted forest and of one
read back from its model file. A change to ``Tree`` that breaks those
checks fails here before it breaks a benchmark run. The file is loaded by
path.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ivforest.forest import (ForestParams, fit_forest, forest_from_json, forest_to_json,
                             predict_forest_rows)
from ivforest.simulate import SimSetting, simulate

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = load_checks()


@pytest.fixture(scope="module")
def forest():
    frame = simulate(SimSetting(7, 200, 12))
    return frame, fit_forest(frame, ForestParams(n_trees=20, seed=5))


@pytest.mark.parametrize("loaded", [False, True], ids=["fitted", "round trip"])
def test_forest_passes_the_benchmark_checks(forest, loaded):
    frame, fit = forest
    if loaded:
        fit = forest_from_json(forest_to_json(fit))
    queries = simulate(SimSetting(7, 300, 13)).features()
    pred = predict_forest_rows(fit, queries)
    checks.check_forest(pred.center, pred.radius, fit, queries, "rf")
    checks.check_leaves(fit, frame.features(), frame.y_center, frame.y_radius, "rf")


def test_model_file_right_child_follows_left(forest):
    """Each tree document holds exactly the arrays that the checks read, so a format that
    drops one fails here before it fails a benchmark run."""
    _, fit = forest
    doc = json.loads(forest_to_json(fit))
    for tree in doc["center_trees"] + doc["radius_trees"]:
        assert set(tree) == {"feature", "threshold", "left", "right", "value", "bootstrap"}
        feature, left, right = (np.array(tree[k]) for k in ("feature", "left", "right"))
        np.testing.assert_array_equal(right, np.where(feature >= 0, left + 1, -1))
        split = feature >= 0  # the k-th split node's left child is 2k + 1
        np.testing.assert_array_equal(left[split], 2 * np.arange(split.sum()) + 1)
