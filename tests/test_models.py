import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ivforest.errors import ConfigError
from ivforest.frame import IntervalFrame, SplitSpec, split
from ivforest.models import (MODELS, fit_model, model_from_json, model_to_json, predict_features,
                             predict_model)
from ivforest.simulate import SimSetting, simulate


@pytest.fixture(scope="module")
def train_test():
    return split(simulate(SimSetting(3, 120, 8)), SplitSpec(0.5, "random", seed=8))


@pytest.fixture(scope="module")
def forest_text(train_test):
    return model_to_json(fit_model("rf", train_test[0], seed=1, n_trees=3))


@pytest.mark.parametrize("name", MODELS)
def test_round_trip(train_test, name):
    train, test = train_test
    fit = fit_model(name, train, seed=4, n_trees=5)
    text = model_to_json(fit)
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    again = model_from_json(text, "model.json")
    assert type(again) is type(fit)
    assert again.predictor_names == train.predictor_names
    assert model_to_json(again) == text
    a, b = predict_model(fit, test), predict_model(again, test)
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.radius, b.radius)


@pytest.mark.parametrize("name", MODELS)
def test_zero_row_query_gives_empty_predictions(train_test, name):
    train = train_test[0]
    fit = fit_model(name, train, seed=4, n_trees=5)
    empty = np.empty((0, train.p))
    pred = predict_features(fit, empty, empty)
    assert pred.center.shape == pred.radius.shape == pred.incoherent.shape == (0,)


def test_model_order_is_results_order():
    assert MODELS == ("ccrm", "crm", "minmax", "ke", "rf")


def test_unknown_model_name():
    with pytest.raises(ConfigError, match="unknown model 'xgb'"):
        fit_model("xgb", None)


ENVELOPE_FAULTS = {
    "not JSON": ("{", "not a JSON model file"),
    "not an object": ("[1]", "JSON object"),
    "no format_version": ('{"model": "ccrm", "predictors": ["x1"]}', "format_version"),
    "format_version 2": ('{"format_version": 2, "model": "ccrm", "predictors": ["x1"]}',
                         "format_version"),
    "unknown model": ('{"format_version": 1, "model": "xgb", "predictors": ["x1"]}', "'xgb'"),
    "predictors not a list": ('{"format_version": 1, "model": "ke", "predictors": "x1"}',
                              "predictors"),
    "repeated predictor": ('{"format_version": 1, "model": "ke", "predictors": ["x1", "x1"]}',
                           "predictors"),
    "missing body key": ('{"format_version": 1, "model": "ke", "predictors": ["x1"]}',
                         "no key 'training'"),
}


@pytest.mark.parametrize("case", list(ENVELOPE_FAULTS))
def test_envelope_faults_name_the_file(case):
    text, named = ENVELOPE_FAULTS[case]
    with pytest.raises(ConfigError, match="^m.json: ") as info:
        model_from_json(text, "m.json")
    assert named in str(info.value)


def test_kinds_restrict_the_model(forest_text):
    with pytest.raises(ConfigError, match="'rf' is not one of ke"):
        model_from_json(forest_text, kinds=("ke",))


def _set(key, index, value):
    def edit(tree):
        tree[key][index] = value
    return edit


def _share_child(tree):
    """The first split node after the root shares its children with the root."""
    b = next(i for i in range(1, len(tree["feature"])) if tree["feature"][i] >= 0)
    tree["left"][0], tree["right"][0] = tree["left"][b], tree["right"][b]


def _append_unreached_split(tree):
    """A split node and its two leaves after the grown nodes, which the root does not reach."""
    n = len(tree["feature"])
    for key, at_split, at_leaf in (("feature", 0, -1), ("threshold", 0.5, 0.0), ("left", n + 1, -1),
                                   ("right", n + 2, -1), ("value", 0.0, 1.0)):
        tree[key] += [at_split, at_leaf, at_leaf]


def _append_unreached_leaf(tree):
    for key, at_leaf in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1),
                         ("value", 1.0)):
        tree[key].append(at_leaf)


def _own_child(tree):
    """Split node 4, the second split node, is numbered to have children 3 and 4: itself."""
    tree.update(feature=[0, -1, -1, -1, 1], threshold=[0.5, 0.0, 0.0, 0.0, 0.5],
                left=[1, -1, -1, -1, 3], right=[2, -1, -1, -1, 4], value=[0.0, 1.0, 2.0, 3.0, 0.0])


NUMBERING = "'left' and 'right' must number nodes level by level"


def integers(key):
    return f"{key!r} must be a list of JSON integers"


TREE_FAULTS = {
    "arrays of unequal length": (lambda tree: tree["value"].pop(), "equal length"),
    "child before its parent": (_set("left", 0, 0), NUMBERING),
    "child out of range": (_set("right", 0, 10**6), NUMBERING),
    "negative child": (_set("left", 0, -1), NUMBERING),
    "split feature out of range": (_set("feature", 0, 2), "'feature' must be below 2"),
    "feature below -1": (_set("feature", -1, -7), "'feature' must be at least -1"),
    "fractional feature": (_set("feature", 0, 0.9), integers("feature")),
    "quoted feature": (_set("feature", 0, "0"), integers("feature")),
    "boolean feature": (_set("feature", 0, True), integers("feature")),
    "whole-number float child": (_set("left", 0, 1.0), integers("left")),
    "quoted child": (_set("right", 0, "2"), integers("right")),
    "feature beyond int64": (_set("feature", 0, 2**63), "'feature' holds an integer beyond int64"),
    "left child is the right child": (lambda tree: _set("right", 0, tree["left"][0])(tree),
                                      NUMBERING),
    "node with two parents": (_share_child, NUMBERING),
    "nodes the root does not reach": (_append_unreached_split, NUMBERING),
    "leaf the root does not reach": (_append_unreached_leaf, NUMBERING),
    "split node its own child": (_own_child, NUMBERING),
    "infinite threshold": (_set("threshold", 0, float("inf")), "'threshold' must be finite"),
    "nan leaf value": (_set("value", -1, float("nan")), "'value' must be finite"),
    "word as a leaf value": (_set("value", -1, "abc"), "'value' must be a list of numbers"),
    "quoted threshold": (_set("threshold", 0, "0.5"), "'threshold' must be a list of numbers"),
    "boolean threshold": (_set("threshold", 0, True), "'threshold' must be a list of numbers"),
    "quoted leaf value": (_set("value", -1, "1.5"), "'value' must be a list of numbers"),
    "boolean leaf value": (_set("value", -1, True), "'value' must be a list of numbers"),
    "null leaf value": (_set("value", -1, None), "'value' must be a list of numbers"),
    "thresholds not a list": (lambda tree: tree.update(threshold="0.5"),
                              "'threshold' must be a list of numbers"),
    "no bootstrap": (lambda tree: tree.pop("bootstrap"), "no key 'bootstrap'"),
    "empty bootstrap": (lambda tree: tree["bootstrap"].clear(), "'bootstrap' must be nonempty"),
    "negative bootstrap index": (_set("bootstrap", 3, -1), "'bootstrap' must be nonempty"),
    "fractional bootstrap index": (_set("bootstrap", 3, 3.7), integers("bootstrap")),
    "quoted bootstrap index": (_set("bootstrap", 3, "5"), integers("bootstrap")),
    "bootstrap index beyond int64": (_set("bootstrap", 3, 2**70),
                                     "'bootstrap' holds an integer beyond int64"),
}


@pytest.mark.parametrize("case", list(TREE_FAULTS))
def test_forest_tree_faults_rejected_at_load(forest_text, case):
    edit, named = TREE_FAULTS[case]
    doc = json.loads(forest_text)
    tree = doc["radius_trees"][1]
    assert tree["feature"][0] >= 0  # the root splits, so its children are checked
    edit(tree)
    with pytest.raises(ConfigError, match=r"^rf.json: .*radius_trees\[1\]") as info:
        model_from_json(json.dumps(doc), "rf.json")
    assert named in str(info.value)


def _quote(items, index):
    items[index] = str(items[index])


KE_FAULTS = {
    "quoted response center": (lambda tr: _quote(tr["y_center"], 0), "'y_center'"),
    "quoted response radius": (lambda tr: _quote(tr["y_radius"], 3), "'y_radius'"),
    "quoted feature": (lambda tr: _quote(tr["features"][2], 1), "'features'"),
    "boolean feature": (lambda tr: tr["features"][1].__setitem__(0, True), "'features'"),
    "boolean response": (lambda tr: tr["y_radius"].__setitem__(-1, False), "'y_radius'"),
}


@pytest.mark.parametrize("case", list(KE_FAULTS))
def test_kernel_training_faults_rejected_at_load(train_test, case):
    """numpy would read "0.5" as 0.5 and true as 1.0; the file must hold JSON numbers."""
    edit, named = KE_FAULTS[case]
    doc = json.loads(model_to_json(fit_model("ke", train_test[0], bandwidth=0.5)))
    edit(doc["training"])
    with pytest.raises(ConfigError, match=rf"^ke.json: .*'training' {named} must hold JSON numbers"):
        model_from_json(json.dumps(doc), "ke.json")


def _set_in(*keys_and_value):
    """Edit that sets ``doc[k1]...[kn] = value``."""
    *keys, last, value = keys_and_value

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


# a value of another JSON type than the reader takes: numpy would read "8.3" as 8.3 and true as
# 1.0, and bool() would read "no" as true
BODY_FAULTS = {
    "quoted coefficient": ("ccrm", _set_in("coefficients", 0, 0, "8.3"),
                           "'coefficients' must hold JSON numbers"),
    "boolean coefficient": ("crm", _set_in("coefficients", 1, 1, True),
                            "'coefficients' must hold JSON numbers"),
    "missing coefficient": ("minmax", lambda doc: doc["coefficients"][1].pop(),
                            "'coefficients' must be a list of 2 lists of 2 JSON numbers"),
    "quoted rank_deficient": ("ccrm", _set_in("diagnostics", "rank_deficient", "no"),
                              "'diagnostics' 'rank_deficient' must be true or false"),
    "boolean rss": ("ccrm", _set_in("diagnostics", "rss", 0, False),
                    "'diagnostics' 'rss' must hold JSON numbers"),
    "fractional active constraint": ("ccrm", _set_in("diagnostics", "active_constraints", [0.5]),
                                     "'diagnostics' 'active_constraints' must hold JSON integers"),
    "boolean bandwidth": ("ke", _set_in("bandwidth", True), "'bandwidth' must be a JSON number"),
    "quoted bandwidth": ("ke", _set_in("bandwidth", "0.5"), "'bandwidth' must be a JSON number"),
    "numeric kernel name": ("ke", _set_in("kernel", 1), "'kernel' must be a string"),
    "boolean n_trees": ("rf", _set_in("params", "n_trees", True),
                        "'params' 'n_trees' must be a JSON integer"),
    "boolean min_node": ("rf", _set_in("params", "min_node", True),
                         "'params' 'min_node' must be a JSON integer"),
    "fractional mtry": ("rf", _set_in("params", "mtry", 2.5),
                        "'params' 'mtry' must be a JSON integer or null"),
    "quoted seed": ("rf", _set_in("params", "seed", "x"), "'params' 'seed' must be a JSON integer"),
    "null seed": ("rf", _set_in("params", "seed", None), "'params' 'seed' must be a JSON integer"),
    "no n_trees": ("rf", lambda doc: doc["params"].pop("n_trees"), "no key 'n_trees'"),
    "unknown param": ("rf", _set_in("params", "depth", 3), "unexpected keyword argument 'depth'"),
    "numeric feature name": ("rf", _set_in("feature_names", 0, 1),
                             "'feature_names' must hold strings"),
    "feature name missing": ("rf", lambda doc: doc["feature_names"].pop(),
                             "'feature_names' must be a list of 2 strings"),
    "n_trees beyond the trees": ("rf", _set_in("params", "n_trees", 500),
                                 "'params' 'n_trees' is 500, but the ensembles hold 3 center and "
                                 "3 radius trees"),
    "radius tree missing": ("rf", lambda doc: doc["radius_trees"].pop(),
                            "'params' 'n_trees' is 3, but the ensembles hold 3 center and 2 "
                            "radius trees"),
    "no oob": ("rf", lambda doc: doc.pop("oob"), "no key 'oob'"),
    "quoted oob": ("rf", _set_in("oob", "x"),
                   "'oob' must be an object holding objects 'center' and 'radius'"),
    "oob without radius": ("rf", lambda doc: doc["oob"].pop("radius"),
                           "'oob' must be an object holding objects 'center' and 'radius'"),
    "oob center a list": ("rf", _set_in("oob", "center", [1.0, 0.5, 60, 0]),
                          "'oob' must be an object holding objects 'center' and 'radius'"),
    "quoted oob mse": ("rf", _set_in("oob", "center", "mse", "0.5"),
                       "'oob' 'center' 'mse' must be a JSON number"),
    "boolean oob r2": ("rf", _set_in("oob", "radius", "r2", True),
                       "'oob' 'radius' 'r2' must be a JSON number"),
    "fractional rows_used": ("rf", _set_in("oob", "center", "rows_used", 2.5),
                             "'oob' 'center' 'rows_used' must be a JSON integer"),
    "no rows_skipped": ("rf", lambda doc: doc["oob"]["radius"].pop("rows_skipped"),
                        "no key 'rows_skipped'"),
    "numeric ensemble": ("rf", _set_in("center_trees", 5),
                         "'center_trees' must be a list of trees"),
    "null ensemble": ("rf", _set_in("radius_trees", None),
                      "'radius_trees' must be a list of trees"),
    "ensemble an object": ("rf", _set_in("center_trees", {"a": 1}),
                           "'center_trees' must be a list of trees"),
    "ensemble a string": ("rf", _set_in("center_trees", "[]"),
                          "'center_trees' must be a list of trees"),
    "null tree": ("rf", _set_in("center_trees", 1, None),
                  "center_trees[1]: a tree must be a JSON object"),
    "numeric tree": ("rf", _set_in("radius_trees", 0, 5),
                     "radius_trees[0]: a tree must be a JSON object"),
    "tree a string": ("rf", _set_in("center_trees", 2, "tree"),
                      "center_trees[2]: a tree must be a JSON object"),
    "tree a list": ("rf", _set_in("center_trees", 1, [{"feature": [-1]}]),
                    "center_trees[1]: a tree must be a JSON object"),
}


@pytest.mark.parametrize("case", list(BODY_FAULTS))
def test_body_values_of_another_json_type_rejected_at_load(train_test, case):
    model, edit, named = BODY_FAULTS[case]
    fit = fit_model(model, train_test[0], seed=1, bandwidth=0.5, n_trees=3)
    doc = json.loads(model_to_json(fit))
    model_from_json(json.dumps(doc), "m.json")  # loads before the edit
    edit(doc)
    with pytest.raises(ConfigError, match=f"^m.json: (bad )?{model} model file") as info:
        model_from_json(json.dumps(doc), "m.json")
    assert named in str(info.value)


def test_forest_with_nan_oob_loads(forest_text):
    """OOB R-squared is NaN when the OOB responses are constant; prediction does not read it."""
    doc = json.loads(forest_text)
    doc["oob"]["center"]["r2"] = float("nan")
    assert np.isnan(model_from_json(json.dumps(doc), "rf.json").oob["center"]["r2"])


def test_forest_without_trees_rejected(forest_text):
    doc = json.loads(forest_text)
    doc["center_trees"] = []
    with pytest.raises(ConfigError, match="'center_trees' holds no tree"):
        model_from_json(json.dumps(doc), "rf.json")


def _drop(key):
    def edit(tree):
        del tree[key]
    return edit


# two faults each, in trees (i, j) of the center ensemble: the tree named is the lower one,
# whichever check rejects each of them. An edit that is not a function is the JSON value put
# in the tree's place.
TWO_FAULTS = {
    "lower fault found by a later check": ((120, _set("threshold", 0, float("inf"))),
                                           (300, _drop("left")), "'threshold' must be finite"),
    "lower fault found by an earlier check": ((7, _set("feature", 0, 2**63)),
                                              (450, _set("value", -1, float("nan"))),
                                              "'feature' holds an integer beyond int64"),
    "both found by one check": ((64, _set("feature", 0, 9)), (65, _set("feature", 0, 9)),
                                "'feature' must be below 2"),
    "lower fault found by the last per-tree check": (
        (40, lambda tree: tree["value"].pop()), (41, _drop("feature")),
        "node arrays must be nonempty lists of equal length"),
    "lower tree not an object": ((10, None), (11, _set("threshold", 0, float("inf"))),
                                 "a tree must be a JSON object"),
}


def test_forest_of_paper_size_round_trips_and_names_the_lowest_faulty_tree():
    """500 trees per component on 200 rows, as in the paper's simulation study."""
    fit = fit_model("rf", simulate(SimSetting(3, 200, 5)), seed=6, n_trees=500)
    text = model_to_json(fit)
    again = model_from_json(text, "rf.json")
    for component in ("center_trees", "radius_trees"):
        for a, b in zip(getattr(fit, component), getattr(again, component), strict=True):
            for key in ("feature", "threshold", "value", "bootstrap"):
                x, y = getattr(a, key), getattr(b, key)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), key
    for (low, edit_low), (high, edit_high), named in TWO_FAULTS.values():
        doc = json.loads(text)
        trees = doc["center_trees"]
        assert trees[low]["feature"][0] >= 0
        for i, edit in ((low, edit_low), (high, edit_high)):
            if callable(edit):
                edit(trees[i])
            else:
                trees[i] = edit
        with pytest.raises(ConfigError, match=rf"^rf.json: .*center_trees\[{low}\]: ") as info:
            model_from_json(json.dumps(doc), "rf.json")
        assert named in str(info.value)


def _traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tree_bytes(fit):
    return [getattr(t, key).tobytes() for trees in (fit.center_trees, fit.radius_trees)
            for t in trees for key in ("feature", "threshold", "value", "bootstrap")]


def test_model_file_memory_stays_a_small_multiple_of_the_file():
    """The writer makes one tree's text at a time and the reader turns each tree's lists into
    arrays as it parses the tree, so neither holds the whole document as Python lists. On the
    shape of the command-line benchmark's forest (setting 5, 1600 rows, centers moved by 1e4),
    with 200 trees, each traced peak stays below 4x the file; building the whole document as
    lists took 6.3-7.2x."""
    drawn = simulate(SimSetting(5, 1600, 1))
    train = IntervalFrame(drawn.predictor_names, drawn.x_center + 1e4, drawn.x_radius,
                          drawn.y_center + 1e4, drawn.y_radius, drawn.response_name)
    fit = fit_model("rf", train, seed=1, n_trees=200)
    text, write_peak = _traced_peak(model_to_json, fit)
    data = text.encode()
    again, read_peak = _traced_peak(model_from_json, data, "rf.json")
    assert write_peak < 4 * len(data)
    assert read_peak < 4 * len(data)
    assert _tree_bytes(again) == _tree_bytes(fit)
    # a file with whitespace between its tokens loads to the same trees
    golden = (Path(__file__).resolve().parent / "golden" / "fit_rf.json").read_text()
    spaced = json.dumps(json.loads(golden), indent=2)
    assert spaced != golden
    assert _tree_bytes(model_from_json(spaced)) == _tree_bytes(model_from_json(golden))
