"""The behaviour contract: regenerated outputs against the committed copies in ``golden/``.

The copies are a bench grid's ``results.csv`` and ``summary.csv``, the ``ivf predict`` CSV
of a setting-7 forest whose prediction takes both leaf bitvectors and the walk, the
``ivf fit`` model files of a small ccrm, ke and rf fit, and the ``summary.csv`` and rf
predictions of an ``ivf bench --real`` run of all five models on the fit's data. The
committed rf file must also still load and predict as a new fit does. Where the key in
``golden/key.json`` matches this machine's (``golden_key.py``: the numpy version, the SIMD
targets numpy dispatches to, and OpenBLAS's kernel) they must match byte for byte. Each of
the three can move results by an ulp, so on any other key every CSV field that parses as a
number, and every JSON number, must match to a relative 1e-12, and every other field exactly.

Regenerate the copies with ``PYTHONPATH=src python tests/test_golden.py``, and say in the
change log which bytes moved and why.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ivforest import forest
from ivforest.cli import main
from ivforest.frame import load_csv
from ivforest.models import fit_model, model_from_json, model_to_json, predict_model
from ivforest.simulate import SimSetting, simulate
from golden_key import golden_key
from splits import node_counts

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH = ["bench", "--settings", "1-7", "--sizes", "200,1000", "--reps", "2", "--models",
         "ccrm,ke,rf", "--trees", "20", "--seed", "31337", "--workers", "1"]
REL_TOL = 1e-12
FIT_MODELS = ("ccrm", "ke", "rf")  # fitted with `ivf fit` on 120 setting-5 rows, rf with 10 trees
REAL = ["--models", "ccrm,crm,minmax,ke,rf", "--trees", "10", "--seed", "2"]  # on the same rows


def golden_outputs(workdir: Path) -> dict:
    """Run the contract's commands in ``workdir``; returns each golden file's regenerated path."""
    assert main([*BENCH, "--out-dir", str(workdir / "bench")]) == 0
    data = workdir / "fit_data.csv"
    assert main(["simulate", "--setting", "5", "--n", "120", "--seed", "1", "--out", str(data)]) == 0
    for model in FIT_MODELS:
        assert main(["fit", "--model", model, "--in", str(data), "--trees", "10", "--seed", "1",
                     "--out", str(workdir / f"fit_{model}.json")]) == 0
    assert main(["bench", "--real", str(data), *REAL, "--out-dir", str(workdir / "real")]) == 0
    # setting 7 draws negative response radii, which `ivf fit` rejects as inverted bounds,
    # so the forest is fitted here and only the prediction goes through the CLI
    fit = fit_model("rf", simulate(SimSetting(7, 400, 1)), 7, n_trees=20)
    (workdir / "rf.json").write_text(model_to_json(fit), encoding="utf-8")
    queries = workdir / "queries.csv"
    assert main(["simulate", "--setting", "7", "--n", "1200", "--seed", "3",
                 "--out", str(queries)]) == 0
    assert main(["predict", "--model-file", str(workdir / "rf.json"), "--in", str(queries),
                 "--out", str(workdir / "predict_rf_setting7.csv")]) == 0
    return {
        "results.csv": workdir / "bench" / "results.csv",
        "summary.csv": workdir / "bench" / "summary.csv",
        "predict_rf_setting7.csv": workdir / "predict_rf_setting7.csv",
        **{f"fit_{model}.json": workdir / f"fit_{model}.json" for model in FIT_MODELS},
        "real_summary.csv": workdir / "real" / "summary.csv",
        "real_predictions_rf.csv": workdir / "real" / "predictions_rf.csv",
    }


def fields_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def json_match(got, want) -> bool:
    """Numbers to a relative REL_TOL, all else exactly, through nested lists and objects."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(json_match(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(json_match, got, want)))
    if isinstance(want, float) and isinstance(got, float):
        return fields_match(repr(got), repr(want))
    return type(got) is type(want) and got == want


def exact_bytes() -> bool:
    """Whether this machine has the key the golden files were written with, so bytes must
    match."""
    here = golden_key()
    recorded = json.loads((GOLDEN / "key.json").read_text(encoding="utf-8"))
    exact = here == recorded
    print(f"golden comparison: {'exact bytes' if exact else f'numbers to rel {REL_TOL}'} "
          f"(here {here}, recorded {recorded})")
    return exact


def test_committed_forest_file_predicts_as_it_did(tmp_path):
    """The committed ``fit_rf.json`` loads, and predicts the rows it was fitted on as a forest
    fitted now does. Files written before trees stopped keeping node counts carry a ``count``
    list in every tree, which is not read: the file with the real counts put back, or with
    zeros, predicts the same bytes."""
    data = tmp_path / "fit_data.csv"
    assert main(["simulate", "--setting", "5", "--n", "120", "--seed", "1", "--out", str(data)]) == 0
    frame = load_csv(data)
    text = (GOLDEN / "fit_rf.json").read_text(encoding="utf-8")
    loaded = model_from_json(text, "fit_rf.json")
    got = predict_model(loaded, frame)
    want = predict_model(fit_model("rf", frame, 1, n_trees=10), frame)
    exact = exact_bytes()
    for a, b in ((got.center, want.center), (got.radius, want.radius)):
        if exact:
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=REL_TOL, atol=0.0)

    doc = json.loads(text)
    trees = loaded.center_trees + loaded.radius_trees
    docs = doc["center_trees"] + doc["radius_trees"]
    assert not any("count" in tdoc for tdoc in docs)
    real = [node_counts(tree, frame.features()[tree.bootstrap]) for tree in trees]
    for counts in (real, [np.zeros_like(c) for c in real]):
        for tdoc, c in zip(docs, counts):
            tdoc["count"] = c.tolist()
        old = predict_model(model_from_json(json.dumps(doc, sort_keys=True), "old.json"), frame)
        assert old.center.tobytes() == got.center.tobytes()
        assert old.radius.tobytes() == got.radius.tobytes()


@pytest.mark.parametrize("model", FIT_MODELS)
def test_committed_model_files_read_with_any_whitespace(model):
    """Model files are written as compact JSON, and read with any whitespace: the committed
    file re-dumped with spaces, or indented as ke and linear files once were, loads to the same
    model and predicts the same bytes."""
    text = (GOLDEN / f"fit_{model}.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    compact = model_from_json(text, "compact.json")
    assert model_to_json(compact) == text
    frame = simulate(SimSetting(5, 120, 1))
    want = predict_model(compact, frame)
    for indent in (None, 2):
        spaced = model_from_json(json.dumps(doc, sort_keys=True, indent=indent), "spaced.json")
        assert model_to_json(spaced) == text
        got = predict_model(spaced, frame)
        assert got.center.tobytes() == want.center.tobytes()
        assert got.radius.tobytes() == want.radius.tobytes()


def test_outputs_match_golden(tmp_path, monkeypatch):
    masks = []

    def record(nodes, X, bits, *args, _sums=forest._sums):
        masks.append(bits.tolist())
        return _sums(nodes, X, bits, *args)

    monkeypatch.setattr(forest, "_sums", record)
    outputs = golden_outputs(tmp_path)
    # the prediction's two calls, one per component and made last, each mix both paths
    assert all(True in mask and False in mask for mask in masks[-2:])

    exact = exact_bytes()
    for name, path in outputs.items():
        got, want = path.read_bytes(), (GOLDEN / name).read_bytes()
        if exact:
            assert got == want, name
            continue
        if name.endswith(".json"):
            assert json_match(json.loads(got), json.loads(want)), name
            continue
        got_rows = list(csv.reader(got.decode("utf-8").splitlines()))
        want_rows = list(csv.reader(want.decode("utf-8").splitlines()))
        assert len(got_rows) == len(want_rows), name
        for i, (g, w) in enumerate(zip(got_rows, want_rows)):
            assert len(g) == len(w) and all(map(fields_match, g, w)), f"{name} line {i + 1}"


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, path in golden_outputs(Path(tmp)).items():
            shutil.copyfile(path, GOLDEN / name)
    (GOLDEN / "key.json").write_text(json.dumps(golden_key(), sort_keys=True) + "\n",
                                    encoding="utf-8")
