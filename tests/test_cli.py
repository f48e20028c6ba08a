import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ivforest.cli import main
from ivforest.frame import load_csv, write_csv


def run(*argv):
    return main(list(argv))


def simulate_csv(tmp_path, setting=1, n=80, seed=3, name="data.csv"):
    out = tmp_path / name
    assert run("simulate", "--setting", str(setting), "--n", str(n), "--seed", str(seed),
               "--out", str(out)) == 0
    return out


class TestSimulateCommand:
    def test_writes_deterministic_csv(self, tmp_path):
        a = simulate_csv(tmp_path, name="a.csv")
        b = simulate_csv(tmp_path, name="b.csv")
        assert a.read_bytes() == b.read_bytes()
        frame = load_csv(a)
        assert frame.n == 80

    def test_manifest_written(self, tmp_path):
        out = simulate_csv(tmp_path)
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 3

    def test_unknown_setting_exits_2(self, tmp_path, capsys):
        code = run("simulate", "--setting", "9", "--n", "10", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "UnknownSettingError" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self):
        assert run("simulate", "--setting", "1") == 2


INVERTED_BOUNDS = pytest.mark.xfail(
    strict=True, reason="ivf simulate writes inverted bounds that ivf fit rejects with exit 3 "
                        "(ROADMAP item 5)")


class TestFitPredictEvaluate:
    @pytest.mark.parametrize("model", ["ccrm", "crm", "minmax", "ke", "rf"])
    def test_round_trip(self, tmp_path, model, capsys):
        train = simulate_csv(tmp_path, n=60, name="train.csv")
        test = simulate_csv(tmp_path, n=40, seed=4, name="test.csv")
        model_file = tmp_path / "model.json"
        extra = ["--trees", "10"] if model == "rf" else []
        assert run("fit", "--model", model, "--in", str(train), "--out", str(model_file),
                   "--seed", "5", *extra) == 0
        preds = tmp_path / "preds.csv"
        assert run("predict", "--model-file", str(model_file), "--in", str(test),
                   "--out", str(preds)) == 0
        assert run("evaluate", "--pred", str(preds), "--truth", str(test)) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"center", "radius", "n_test", "incoherent_count"}
        assert report["n_test"] == 40

    @pytest.mark.parametrize("setting", [
        pytest.param(s, marks=INVERTED_BOUNDS) if s in (4, 6, 7) else s for s in range(1, 8)])
    def test_every_setting_round_trips(self, tmp_path, setting, capsys):
        """Simulate, then fit, predict and evaluate each model on the same file."""
        data = simulate_csv(tmp_path, setting=setting, n=200, seed=3)
        for model in ("ccrm", "ke", "rf"):
            model_file, preds = tmp_path / f"{model}.json", tmp_path / f"{model}.csv"
            extra = ["--trees", "10"] if model == "rf" else []
            assert run("fit", "--model", model, "--in", str(data), "--out", str(model_file),
                       *extra) == 0
            assert run("predict", "--model-file", str(model_file), "--in", str(data),
                       "--out", str(preds)) == 0
            assert run("evaluate", "--pred", str(preds), "--truth", str(data)) == 0
            assert json.loads(capsys.readouterr().out)["n_test"] == 200

    def test_fit_on_missing_file_exits_2(self, tmp_path):
        assert run("fit", "--model", "ccrm", "--in", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.json")) == 2

    def test_fit_on_empty_data_exits_3(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("x1_L,x1_U,y_L,y_U\n", encoding="utf-8")
        assert run("fit", "--model", "ccrm", "--in", str(bad),
                   "--out", str(tmp_path / "m.json")) == 3

    def test_fit_underdetermined_exits_4(self, tmp_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("x1_L,x1_U,y_L,y_U\n0,1,0,1\n1,2,1,2\n", encoding="utf-8")
        assert run("fit", "--model", "ccrm", "--in", str(tiny),
                   "--out", str(tmp_path / "m.json")) == 4

    def test_rf_on_constant_response_round_trips(self, tmp_path):
        """OOB R-squared of a constant response is NaN; the model file still loads."""
        data = tmp_path / "flat.csv"
        rows = "".join(f"{i},{i + 1},1,3\n" for i in range(30))
        data.write_text("x1_L,x1_U,y_L,y_U\n" + rows, encoding="utf-8")
        model_file = tmp_path / "rf.json"
        assert run("fit", "--model", "rf", "--in", str(data), "--out", str(model_file),
                   "--trees", "5") == 0
        assert math.isnan(json.loads(model_file.read_text())["oob"]["center"]["r2"])
        preds = tmp_path / "p.csv"
        assert run("predict", "--model-file", str(model_file), "--in", str(data),
                   "--out", str(preds)) == 0
        assert preds.read_text().splitlines()[1] == "1.0,3.0,0"

    def test_predict_ignores_extra_columns(self, tmp_path):
        train = simulate_csv(tmp_path, n=50, name="train.csv")
        model_file = tmp_path / "model.json"
        run("fit", "--model", "ccrm", "--in", str(train), "--out", str(model_file))
        # prediction input carries response columns too; they are ignored
        preds = tmp_path / "p.csv"
        assert run("predict", "--model-file", str(model_file), "--in", str(train),
                   "--out", str(preds)) == 0
        assert preds.read_text().startswith("y_L,y_U,incoherent\n")


def edited_model(tmp_path, model, edit):
    """Fit ``model`` on a one-predictor CSV, apply ``edit`` to its JSON; predict argv."""
    train = simulate_csv(tmp_path, n=60, name="train.csv")
    path = tmp_path / f"{model}.json"
    extra = ["--trees", "3"] if model == "rf" else []
    assert run("fit", "--model", model, "--in", str(train), "--out", str(path), *extra) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["predict", "--model-file", str(path), "--in", str(train),
            "--out", str(tmp_path / "p.csv")]


def set_item(*path_and_value):
    """Edit that sets ``doc[k1]...[kn] = value``."""
    *keys, last, value = path_and_value

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


def cyclic_root(doc):
    tree = doc["center_trees"][0]
    tree["feature"][0], tree["left"][0], tree["right"][0] = 0, 0, 0


def model_text(text):
    """Builder of ``predict`` argv whose model file holds ``text``."""
    def build(tmp_path):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        train = simulate_csv(tmp_path, name="train.csv")
        return ["predict", "--model-file", str(path), "--in", str(train),
                "--out", str(tmp_path / "p.csv")]
    return build


def damaged_csv(kind, cell):
    """Builder of argv that reads a dataset, query or predictions CSV (``kind``) whose last
    row ends in the bytes ``cell``: row 41 of a dataset or query file, row 2 of predictions."""
    def build(tmp_path):
        data = simulate_csv(tmp_path, n=40, name="data.csv")  # setting 1: x1 and y pairs
        bad, model = tmp_path / "bad.csv", tmp_path / "m.json"
        if kind == "predictions":
            bad.write_bytes(b"y_L,y_U,incoherent\n0,1,0\n0,1," + cell + b"\n")
            return ["evaluate", "--pred", str(bad), "--truth", str(data)]
        bad.write_bytes(data.read_bytes() + b"0,1,0," + cell + b"\n")
        if kind == "dataset":
            return ["fit", "--model", "ccrm", "--in", str(bad), "--out", str(model)]
        assert run("fit", "--model", "ccrm", "--in", str(data), "--out", str(model)) == 0
        return ["predict", "--model-file", str(model), "--in", str(bad),
                "--out", str(tmp_path / "p.csv")]
    return build


def fit_argv(tmp_path, *flags):
    train = simulate_csv(tmp_path, name="train.csv")
    return ["fit", "--model", "rf", "--in", str(train), "--out", str(tmp_path / "m.json"), *flags]


def bench_argv(tmp_path, *flags):
    return ["bench", "--settings", "1", "--sizes", "120", "--reps", "1", "--models", "rf",
            "--trees", "3", *flags, "--out-dir", str(tmp_path / "b")]


def evaluate_argv(tmp_path, rows):
    truth = simulate_csv(tmp_path, n=3, name="truth.csv")
    pred = tmp_path / "pred.csv"
    pred.write_text("y_L,y_U,incoherent\n" + rows, encoding="utf-8")
    return ["evaluate", "--pred", str(pred), "--truth", str(truth)]


def unwritable_out(command, under_file):
    """Builder of ``command`` argv with valid inputs and an ``--out`` under
    ``afile``, which is a file or, if not ``under_file``, missing."""
    def build(tmp_path):
        train = simulate_csv(tmp_path, n=40, name="train.csv")
        model = tmp_path / "m.json"
        assert run("fit", "--model", "ccrm", "--in", str(train), "--out", str(model)) == 0
        if under_file:
            (tmp_path / "afile").write_text("", encoding="utf-8")
        return {
            "simulate": ["simulate", "--setting", "1", "--n", "10"],
            "fit": ["fit", "--model", "ccrm", "--in", str(train)],
            "predict": ["predict", "--model-file", str(model), "--in", str(train)],
            "plot": ["plot", "--kind", "rectangles", "--in", str(train)],
        }[command] + ["--out", str(tmp_path / "afile" / "out.csv")]
    return build


SRC = str(Path(__file__).resolve().parents[1] / "src")

# case -> (argv builder, extra environment, exit code, text the error must name)
FAULTS = {
    "ccrm file without diagnostics": (
        lambda t: edited_model(t, "ccrm", lambda d: d.pop("diagnostics")), {}, 2, "'diagnostics'"),
    "model file not JSON": (model_text("not json {"), {}, 2, "m.json"),
    "rf file of format_version 99": (
        lambda t: edited_model(t, "rf", lambda d: d.update(format_version=99)), {}, 2,
        "format_version"),
    "rf file with a cyclic tree": (lambda t: edited_model(t, "rf", cyclic_root), {}, 2,
                                   "center_trees[0]"),
    "rf file with a nan leaf value": (
        lambda t: edited_model(t, "rf", set_item("center_trees", 0, "value", -1, float("nan"))),
        {}, 2, "'value'"),
    "ccrm file with a nan coefficient": (
        lambda t: edited_model(t, "ccrm", set_item("coefficients", 0, 1, float("nan"))), {}, 2,
        "'coefficients'"),
    "ke file with an infinite bandwidth": (
        lambda t: edited_model(t, "ke", set_item("bandwidth", float("inf"))), {}, 2, "bandwidth"),
    "ke file with a nan training response": (
        lambda t: edited_model(t, "ke", set_item("training", "y_center", 0, float("nan"))), {}, 2,
        "'training'"),
    "model file nested 200 000 deep": (model_text("[" * 200_000), {}, 2, "m.json"),
    "rf file with a child index of 1e30": (
        lambda t: edited_model(t, "rf", set_item("center_trees", 0, "left", 0, 1e30)), {}, 2,
        "rf.json"),
    "rf file with a feature of 1e300": (
        lambda t: edited_model(t, "rf", set_item("radius_trees", 0, "feature", 0, 1e300)), {}, 2,
        "rf.json"),
    **{
        f"{kind} file with {what}": (damaged_csv(kind, cell), {}, 3, f"row {row}: {named}")
        for kind, row in (("dataset", 41), ("query", 41), ("predictions", 2))
        for what, cell, named in (("bytes that are not UTF-8", b"\xff", "bytes that are not"),
                                  ("a cell over the field limit", b"1" * 140_000, "field larger"))
    },
    "fit --trees 0": (lambda t: fit_argv(t, "--trees", "0"), {}, 2, "n_trees"),
    "fit --bandwidth inf": (lambda t: fit_argv(t, "--model", "ke", "--bandwidth", "inf"), {}, 2,
                            "bandwidth"),
    "fit --mtry 9 on one predictor": (lambda t: fit_argv(t, "--mtry", "9"), {}, 2, "mtry"),
    "bench --trees 0": (lambda t: bench_argv(t, "--trees", "0"), {}, 2, "n_trees"),
    "fit --bw-auto with --bandwidth": (
        lambda t: fit_argv(t, "--model", "ke", "--bw-auto", "--bandwidth", "0.5"), {}, 2,
        "--bandwidth"),
    "bench --settings x": (lambda t: bench_argv(t, "--settings", "x"), {}, 2, "'x'"),
    "bench --settings 1,7-5": (lambda t: bench_argv(t, "--settings", "1,7-5"), {}, 2, "'7-5'"),
    "IVF_THREADS=abc": (bench_argv, {"IVF_THREADS": "abc"}, 2, "IVF_THREADS"),
    "IVF_THREADS=0": (bench_argv, {"IVF_THREADS": "0"}, 2, "IVF_THREADS"),
    "bench --workers -3": (lambda t: bench_argv(t, "--workers", "-3"), {}, 2, "workers"),
    "bench --real --workers -3": (
        lambda t: ["bench", "--real", str(simulate_csv(t, n=40)), "--models", "ccrm",
                   "--workers", "-3", "--out-dir", str(t / "real")], {}, 2, "workers"),
    "evaluate a non-numeric cell": (lambda t: evaluate_argv(t, "0,1,0\n0,x,0\n0,1,0\n"), {}, 3,
                                    "row 2"),
    "evaluate a one-cell row": (lambda t: evaluate_argv(t, "0,1,0\n0\n0,1,0\n"), {}, 3, "row 2"),
    "evaluate a nan bound": (lambda t: evaluate_argv(t, "0,1,0\nnan,1.0,0\n0,1,0\n"), {}, 3,
                             "row 2"),
    "evaluate a flag of 7": (lambda t: evaluate_argv(t, "0,1,0\n0,1,7\n0,1,0\n"), {}, 3, "row 2"),
    "evaluate a bound of 1e308": (lambda t: evaluate_argv(t, "0,1,0\n1e308,1e308,0\n0,1,0\n"), {},
                                  4, "overflow"),
    "ccrm file with a coefficient of 1e308": (
        lambda t: edited_model(t, "ccrm", set_item("coefficients", 0, 1, 1e308)), {}, 4,
        "overflow"),
    **{
        f"{command} --out under {parent}": (unwritable_out(command, parent == "a file"), {}, 2,
                                            "afile")
        for command in ("simulate", "fit", "predict", "plot")
        for parent in ("a file", "a missing directory")
    },
}


def test_cli_import_leaves_scipy_special_unloaded():
    """Only simulation needs scipy.special, and importing it doubles every command's start-up."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = "import sys, ivforest.cli; sys.exit('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("case", list(FAULTS))
def test_fault_exits_with_documented_code_without_traceback(tmp_path, case):
    build, env, code, named = FAULTS[case]
    argv = build(tmp_path)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "ivforest.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


class TestBenchCommand:
    def bench(self, tmp_path, out_name, **flags):
        args = ["bench", "--settings", "1", "--sizes", "120", "--reps", "2",
                "--models", "ccrm,rf", "--trees", "8", "--seed", "11",
                "--out-dir", str(tmp_path / out_name)]
        for key, val in flags.items():
            args += [f"--{key.replace('_', '-')}", str(val)]
        assert run(*args) == 0
        return tmp_path / out_name

    def test_outputs_exist(self, tmp_path):
        out = self.bench(tmp_path, "run1")
        for name in ("results.csv", "summary.csv", "timings.csv", "manifest.json"):
            assert (out / name).exists()
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "setting,n_train,rep,model,component,r2,mse,mae"

    def test_timings_one_line_per_model_per_cell(self, tmp_path):
        out = self.bench(tmp_path, "timed", settings="1,5")
        results = (out / "results.csv").read_text().splitlines()[1:]
        keys = [line.split(",")[:4] for line in results]
        assert keys[0::2] == keys[1::2]  # a center and a radius line per (cell, model)
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == "setting,n_train,rep,model,wall_time_s"
        rows = [line.split(",") for line in timings[1:]]
        assert [row[:4] for row in rows] == keys[0::2]
        assert len(rows) == 2 * 2 * 2  # settings x reps x models
        assert all(float(row[4]) > 0.0 for row in rows)

    def test_reruns_byte_identical_across_worker_counts(self, tmp_path):
        a = self.bench(tmp_path, "run_a", workers=1)
        b = self.bench(tmp_path, "run_b", workers=2)
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_range_spec_parsing(self, tmp_path):
        out = tmp_path / "ranges"
        assert run("bench", "--settings", "1,5-6", "--sizes", "120", "--reps", "1",
                   "--models", "ccrm", "--out-dir", str(out)) == 0
        text = (out / "results.csv").read_text()
        settings = {line.split(",")[0] for line in text.splitlines()[1:]}
        assert settings == {"1", "5", "6"}

    def test_zero_reps_exits_2(self, tmp_path):
        assert run("bench", "--settings", "1", "--reps", "0", "--models", "ccrm",
                   "--out-dir", str(tmp_path / "z")) == 2
        assert not (tmp_path / "z").exists()

    def test_unknown_model_exits_2(self, tmp_path):
        assert run("bench", "--settings", "1", "--models", "xgb",
                   "--out-dir", str(tmp_path / "z")) == 2
        assert not (tmp_path / "z").exists()

    def test_usage_error_leaves_no_out_dir(self, tmp_path):
        assert run("bench", "--settings", "1,7-5", "--sizes", "200", "--reps", "1",
                   "--models", "ccrm", "--out-dir", str(tmp_path / "bb")) == 2
        assert not (tmp_path / "bb").exists()

    def test_infinite_bandwidth_leaves_no_out_dir(self, tmp_path):
        assert run("bench", "--settings", "1", "--sizes", "120", "--reps", "1", "--models", "ke",
                   "--bandwidth", "inf", "--workers", "1", "--out-dir", str(tmp_path / "bw")) == 2
        assert not (tmp_path / "bw").exists()

    @pytest.mark.parametrize("flag", ["--trees", "--min-node"])
    def test_forest_setting_below_one_leaves_no_out_dir(self, tmp_path, flag):
        assert run("bench", "--settings", "1", "--sizes", "120", "--reps", "1", "--models", "rf",
                   flag, "0", "--workers", "1", "--out-dir", str(tmp_path / "bb")) == 2
        assert not (tmp_path / "bb").exists()

    def test_mtry_above_features_leaves_no_out_dir(self, tmp_path):
        """Setting 1 has one predictor, so two features."""
        assert run("bench", "--settings", "1", "--sizes", "200", "--reps", "1", "--models", "rf",
                   "--mtry", "5", "--workers", "1", "--out-dir", str(tmp_path / "c")) == 2
        assert not (tmp_path / "c").exists()

    def test_mtry_is_checked_only_with_rf(self, tmp_path):
        assert run("bench", "--settings", "1", "--sizes", "120", "--reps", "1", "--models", "ccrm",
                   "--mtry", "5", "--workers", "1", "--out-dir", str(tmp_path / "grid")) == 0
        data = simulate_csv(tmp_path, setting=5, n=150)
        assert run("bench", "--real", str(data), "--models", "ccrm", "--mtry", "50",
                   "--out-dir", str(tmp_path / "real")) == 0

    @pytest.mark.parametrize("flags, env", [(["--workers", "0"], {}), ([], {"IVF_THREADS": "-1"})],
                             ids=["--workers 0", "IVF_THREADS=-1"])
    def test_worker_count_below_one_leaves_no_out_dir(self, tmp_path, monkeypatch, flags, env):
        for key, val in env.items():
            monkeypatch.setenv(key, val)
        assert run("bench", "--settings", "1", "--sizes", "120", "--reps", "1", "--models", "ccrm",
                   *flags, "--out-dir", str(tmp_path / "bb")) == 2
        assert not (tmp_path / "bb").exists()

    def test_ivf_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IVF_THREADS", "1")
        out = self.bench(tmp_path, "env_run")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["workers_resolved"] == 1

    def test_real_mode(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 60
        level = np.cumsum(rng.normal(scale=0.2, size=n)) + 30
        from ivforest.frame import IntervalFrame

        frame = IntervalFrame(
            ("djia",), level[:, None], np.abs(rng.normal(0.4, 0.05, (n, 1))),
            0.9 * level + rng.normal(scale=0.2, size=n),
            np.abs(rng.normal(0.3, 0.03, n)),
            response_name="jpm",
        )
        csv_path = tmp_path / "stocks.csv"
        write_csv(frame, csv_path)
        out = tmp_path / "real"
        assert run("bench", "--real", str(csv_path), "--response", "jpm",
                   "--models", "ccrm,rf", "--trees", "10", "--train-count", "48",
                   "--out-dir", str(out)) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "component,metric,ccrm,rf,best"
        assert len(summary) == 7  # header + 2 components x 3 metrics
        preds = (out / "predictions_rf.csv").read_text().splitlines()
        assert len(preds) == 1 + (60 - 48)

    def test_real_mode_checks_out_dir_before_fitting(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_real_data called")

        monkeypatch.setattr("ivforest.cli.run_real_data", fail)
        data = simulate_csv(tmp_path, setting=5, n=60)
        (tmp_path / "afile").write_text("", encoding="utf-8")
        assert run("bench", "--real", str(data), "--models", "ccrm,rf", "--trees", "2",
                   "--out-dir", str(tmp_path / "afile" / "sub")) == 2


    @pytest.mark.parametrize("flags, code", [
        (["--models", "ke", "--bandwidth", "inf"], 2),
        (["--models", "ke", "--bandwidth", "0"], 2),
        (["--models", "rf", "--trees", "0"], 2),
        (["--min-node", "0"], 2),
        (["--train-fraction", "1.5"], 3),
        (["--models", "ccrm", "--train-count", "500"], 3),
        (["--models", "rf", "--mtry", "50"], 2),
    ], ids=lambda flags: " ".join(flags) if isinstance(flags, list) else None)
    def test_real_mode_checks_inputs_before_out_dir(self, tmp_path, flags, code):
        data = simulate_csv(tmp_path, setting=5, n=150)
        out = tmp_path / "real"
        assert run("bench", "--real", str(data), *flags, "--out-dir", str(out)) == code
        assert not out.exists()


class TestPlotCommand:
    def test_rectangles(self, tmp_path):
        data = simulate_csv(tmp_path, n=12)
        out = tmp_path / "plot.svg"
        assert run("plot", "--kind", "rectangles", "--in", str(data), "--out", str(out)) == 0
        text = out.read_text()
        assert text.count("<rect") == 12
        assert (tmp_path / "plot.svg.manifest.json").exists()

    def test_rectangles_reruns_identical(self, tmp_path):
        data = simulate_csv(tmp_path, n=12)
        out1, out2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        run("plot", "--kind", "rectangles", "--in", str(data), "--out", str(out1))
        run("plot", "--kind", "rectangles", "--in", str(data), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_input_exits_3(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("x1_L,x1_U,y_L,y_U\n", encoding="utf-8")
        assert run("plot", "--kind", "rectangles", "--in", str(bad),
                   "--out", str(tmp_path / "p.svg")) == 3

    def test_pred_scatter_mismatch_exits_3(self, tmp_path):
        data = simulate_csv(tmp_path, n=12)
        train = load_csv(data)
        from ivforest.evaluate import predictions_csv
        from ivforest.intervals import PredictionSet

        pred = PredictionSet(np.zeros(5), np.ones(5), np.zeros(5, dtype=bool))
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text(predictions_csv(pred), encoding="utf-8")
        assert run("plot", "--kind", "pred_scatter", "--truth", str(data),
                   "--pred", str(pred_path), "--out", str(tmp_path / "p.svg")) == 3

    def test_missing_inputs_exit_2(self, tmp_path):
        assert run("plot", "--kind", "rectangles", "--out", str(tmp_path / "p.svg")) == 2
        assert run("plot", "--kind", "pred_scatter", "--out", str(tmp_path / "p.svg")) == 2
