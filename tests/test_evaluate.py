import math

import numpy as np
import pytest

from ivforest.errors import (ConfigError, DegenerateTruthError, DimensionError, EmptySampleError,
                             ParseError)
from ivforest.evaluate import (
    ExperimentSpec,
    evaluate,
    evaluate_frame,
    predictions_csv,
    read_predictions_csv,
    results_csv,
    run_experiment,
    run_real_data,
    summary_csv,
)
from ivforest.frame import IntervalFrame
from ivforest.intervals import PredictionSet


def preds(centers, radii):
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    return PredictionSet(centers, radii, radii < 0)


class TestEvaluate:
    def test_perfect_prediction(self):
        p = preds([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        rep = evaluate(p, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        for comp in (rep.center, rep.radius):
            assert comp.r2 == 1.0 and comp.mse == 0.0 and comp.mae == 0.0

    def test_mean_prediction_gives_zero_r2(self):
        truth = np.array([0.0, 1.0, 2.0])
        p = preds([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        rep = evaluate(p, truth, np.array([0.0, 1.0, 2.0]))
        assert math.isclose(rep.center.r2, 0.0, abs_tol=1e-12)

    def test_hand_computed_case(self):
        # center residuals (0, 0, 3): MSE 3, MAE 1, R2 = 1 - 9/2
        p = preds([0.0, 1.0, 5.0], [1.0, 1.5, 2.0])
        rep = evaluate(p, [0.0, 1.0, 2.0], [1.0, 1.5, 2.0])
        assert math.isclose(rep.center.mse, 3.0)
        assert math.isclose(rep.center.mae, 1.0)
        assert math.isclose(rep.center.r2, -3.5)

    def test_incoherent_rows_counted_and_scored_raw(self):
        p = preds([0.0, 1.0, 2.0], [1.0, -0.5, 1.0])
        rep = evaluate(p, [0.0, 1.0, 2.0], [1.0, 0.5, 1.0])
        assert rep.incoherent_count == 1
        assert rep.radius.mse == pytest.approx(1.0 / 3.0)

    def test_degenerate_truth(self):
        p = preds([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DegenerateTruthError):
            evaluate(p, [2.0, 2.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            evaluate(preds([0.0], [1.0]), [0.0, 1.0], [1.0, 1.0])

    def test_needs_two_rows(self):
        with pytest.raises(EmptySampleError):
            evaluate(preds([0.0], [1.0]), [0.0], [1.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        c, r = rng.normal(size=9), np.abs(rng.normal(size=9))
        tc, tr = rng.normal(size=9), np.abs(rng.normal(size=9))
        perm = rng.permutation(9)
        a = evaluate(preds(c, r), tc, tr)
        b = evaluate(preds(c[perm], r[perm]), tc[perm], tr[perm])
        assert math.isclose(a.center.r2, b.center.r2, rel_tol=1e-12)
        assert math.isclose(a.radius.mse, b.radius.mse, rel_tol=1e-12)

    def test_mae_not_above_rmse(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c, tc = rng.normal(size=15), rng.normal(size=15)
            rep = evaluate(preds(c, np.ones(15)), tc, rng.uniform(0.5, 2.0, 15))
            assert rep.center.mae <= math.sqrt(rep.center.mse) + 1e-12


class TestExperiment:
    def small_spec(self, **kw):
        base = dict(
            settings=(1,), total_sizes=(120,), reps=2, models=("ccrm", "rf"),
            master_seed=5, n_trees=8, workers=1,
        )
        base.update(kw)
        return ExperimentSpec(**base)

    def test_deterministic_rerun(self):
        a = run_experiment(self.small_spec())
        b = run_experiment(self.small_spec())
        assert results_csv(a) == results_csv(b)

    def test_worker_count_does_not_change_results(self):
        a = run_experiment(self.small_spec(workers=1))
        b = run_experiment(self.small_spec(workers=2))
        assert results_csv(a) == results_csv(b)
        assert summary_csv(a) == summary_csv(b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            self.small_spec(models=("xgb",))

    def test_bad_reps_rejected(self):
        with pytest.raises(ConfigError):
            self.small_spec(reps=0)

    def test_bad_setting_rejected(self):
        with pytest.raises(ConfigError):
            self.small_spec(settings=(9,))

    def test_train_sizes_derived_from_totals(self):
        res = run_experiment(self.small_spec(total_sizes=(500,), reps=1, models=("ccrm",)))
        assert [(r.n_train, r.rep, r.model) for r in res.records] == [(50, 0, "ccrm")]

    def test_records_sorted_by_cell_then_model_order(self):
        res = run_experiment(self.small_spec(total_sizes=(200, 120), models=("rf", "ccrm")))
        keys = [(r.setting, r.n_train, r.rep, r.model) for r in res.records]
        assert keys == [(1, n, rep, m) for n in (12, 20) for rep in (0, 1) for m in ("ccrm", "rf")]

    def test_mean_cells_match_naive_recomputation(self):
        res = run_experiment(self.small_spec(reps=3))
        cells = res.mean_cells()
        for (setting, n_train, model, component), stats in cells.items():
            vals = [
                getattr(r.report, component).r2
                for r in res.records
                if (r.setting, r.n_train, r.model) == (setting, n_train, model)
            ]
            assert math.isclose(stats["r2"], sum(vals) / len(vals), rel_tol=1e-12)

    def test_summary_marks_best_model(self):
        res = run_experiment(self.small_spec(reps=2))
        lines = summary_csv(res).strip().splitlines()
        header = lines[0].split(",")
        assert header == ["setting", "n_train", "component", "metric", "ccrm", "rf", "best"]
        for line in lines[1:]:
            cells = line.split(",")
            metric, vals, best = cells[3], [float(cells[4]), float(cells[5])], cells[6]
            models = ["ccrm", "rf"]
            want = models[int(np.argmax(vals))] if metric == "r2" else models[int(np.argmin(vals))]
            assert best == want


class TestPredictionsCsv:
    def test_round_trip_with_incoherent_rows(self, tmp_path):
        p = preds([0.0, 1.0], [0.5, -0.25])
        path = tmp_path / "p.csv"
        path.write_text(predictions_csv(p), encoding="utf-8")
        again = read_predictions_csv(path)
        np.testing.assert_allclose(again.center, p.center)
        np.testing.assert_allclose(again.radius, p.radius)
        np.testing.assert_array_equal(again.incoherent, [False, True])

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_predictions_csv(path)

    def test_flags_read_by_value(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_L,y_U,incoherent\n0,1,0.0\n1,0,1.0\n2,3,1e0\n", encoding="utf-8")
        np.testing.assert_array_equal(read_predictions_csv(path).incoherent, [False, True, True])

    def test_bad_flag_names_its_file_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_L,y_U,incoherent\n0,1,0\n\n0,1,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 3: 'incoherent' must be 0 or 1, got 2"):
            read_predictions_csv(path)

    def test_empty_file_is_an_empty_sample(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptySampleError):
            read_predictions_csv(path)


class TestRealData:
    def stock_like_frame(self, n=300, seed=2):
        rng = np.random.default_rng(seed)
        level = np.cumsum(rng.normal(scale=0.3, size=n)) + 50
        spread = np.abs(rng.normal(0.5, 0.1, size=n)) + 0.05
        yc = 0.8 * level + rng.normal(scale=0.4, size=n)
        yr = 0.6 * spread + np.abs(rng.normal(scale=0.05, size=n)) + 0.02
        return IntervalFrame(("djia",), level[:, None], spread[:, None], yc, yr)

    def test_pipeline_runs_and_rf_radius_nonnegative(self):
        frame = self.stock_like_frame()
        reports, predictions = run_real_data(
            frame, models=("ccrm", "rf"), train_fraction=0.8, mode="chronological",
            seed=3, n_trees=25,
        )
        assert set(reports) == {"ccrm", "rf"}
        assert np.all(predictions["rf"].radius >= 0)
        assert reports["rf"].n_test == frame.n - int(np.floor(0.8 * frame.n + 0.5))

    def test_train_count_override(self):
        frame = self.stock_like_frame(n=100)
        reports, _ = run_real_data(frame, models=("ccrm",), train_count=77, seed=0)
        assert reports["ccrm"].n_test == 23
