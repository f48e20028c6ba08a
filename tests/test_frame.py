import numpy as np
import pytest

from ivforest.errors import EmptySampleError, ParseError, SplitError
from ivforest.frame import (
    IntervalFrame,
    SplitSpec,
    coherence_report,
    load_csv,
    load_feature_csv,
    split,
    write_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L,y_U\n0,1,2,4\n1,3,0,5\n")
        frame = load_csv(path)
        assert frame.n == 2 and frame.p == 1
        assert frame.predictor_names == ("x1",)
        assert frame.response_name == "y"
        np.testing.assert_allclose(frame.x_center, [[0.5], [2.0]])
        np.testing.assert_allclose(frame.y_radius, [1.0, 2.5])

    def test_inverted_bounds_name_row(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L,y_U\n3,1,0,1\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path)

    def test_empty_data_section(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L,y_U\n")
        with pytest.raises(EmptySampleError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptySampleError):
            load_csv(path)

    def test_missing_pair_column(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L\n0,1,2\n")
        with pytest.raises(ParseError, match="y"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L,y_U\n0,oops,2,4\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path)

    @pytest.mark.parametrize("row", ["1_0,2_0,0,1", "\u0661,\u0662,0,1"],
                             ids=["underscores", "arabic-indic-digits"])
    def test_cells_beyond_ascii_decimal_syntax(self, tmp_path, row):
        """``float`` alone reads these as [10, 20] and [1, 2]."""
        path = write(tmp_path, f"x1_L,x1_U,y_L,y_U\n0,1,0,1\n{row}\n")
        with pytest.raises(ParseError, match="data.csv: row 2: could not convert"):
            load_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, bad):
        for row in (f"{bad},1,2,4", f"0,{bad},2,4"):
            path = write(tmp_path, f"x1_L,x1_U,y_L,y_U\n{row}\n")
            with pytest.raises(ParseError, match="non-finite value at row 1"):
                load_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("0,1,0,x", "row 4: could not convert"),
        ("0,1,0,nan", "non-finite value at row 4,"),
        ("3,1,0,1", "row 4, variable 'x1'"),
    ], ids=["non-numeric", "non-finite", "inverted"])
    def test_blank_lines_count_in_row_numbers(self, tmp_path, row, message):
        path = write(tmp_path, f"x1_L,x1_U,y_L,y_U\n0,1,0,1\n\n\n{row}\n")
        with pytest.raises(ParseError, match=message):
            load_csv(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x1_L,x1_U,y_L,y_U\n0,1,0,1\n\n0,1,0,\xff\n")
        with pytest.raises(ParseError, match="row 3: bytes that are not UTF-8"):
            load_csv(path)

    def test_cell_over_the_field_limit(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L,y_U\n0,1,0,1\n0,1,0," + "1" * 140_000 + "\n")
        with pytest.raises(ParseError, match="row 2: field larger than field limit"):
            load_csv(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L,y_U\n\n0,1,2,4\n\n1,3,0,5\n\n")
        assert load_csv(path).n == 2

    def test_response_override(self, tmp_path):
        path = write(tmp_path, "djia_L,djia_U,jpm_L,jpm_U\n1,2,3,4\n0,1,1,2\n")
        frame = load_csv(path, response="djia")
        assert frame.response_name == "djia"
        assert frame.predictor_names == ("jpm",)

    def test_unknown_response_name(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,y_L,y_U\n0,1,2,4\n")
        with pytest.raises(ParseError):
            load_csv(path, response="z")

    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,x2_L,x2_U,y_L,y_U\n0,1,2,4,-1,5\n1,3,0,5,2,2\n")
        frame = load_csv(path)
        out = tmp_path / "echo.csv"
        write_csv(frame, out)
        again = load_csv(out)
        np.testing.assert_allclose(again.x_center, frame.x_center)
        np.testing.assert_allclose(again.x_radius, frame.x_radius)
        np.testing.assert_allclose(again.y_center, frame.y_center)
        np.testing.assert_allclose(again.y_radius, frame.y_radius)

    def test_feature_csv_subset(self, tmp_path):
        path = write(tmp_path, "x1_L,x1_U,extra_L,extra_U,y_L,y_U\n0,1,9,9,2,4\n")
        xc, xr = load_feature_csv(path, ("x1",))
        np.testing.assert_allclose(xc, [[0.5]])
        with pytest.raises(ParseError, match="missing"):
            load_feature_csv(path, ("nope",))


class TestFrameInvariants:
    def test_empty_frame_rejected(self):
        with pytest.raises(EmptySampleError):
            IntervalFrame(("x1",), np.empty((0, 1)), np.empty((0, 1)), np.empty(0), np.empty(0))

    def test_duplicate_names_rejected(self):
        one = np.ones((2, 2))
        with pytest.raises(ParseError):
            IntervalFrame(("a", "a"), one, one, np.ones(2), np.ones(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParseError):
            IntervalFrame(("a",), np.ones((2, 1)), np.ones((2, 1)), np.ones(3), np.ones(3))

    def test_features_layout(self):
        frame = IntervalFrame(
            ("a", "b"),
            np.array([[1.0, 2.0]]),
            np.array([[0.1, 0.2]]),
            np.array([3.0]),
            np.array([0.3]),
        )
        np.testing.assert_allclose(frame.features(), [[1.0, 2.0, 0.1, 0.2]])
        assert frame.feature_names() == ("a_C", "b_C", "a_R", "b_R")


class TestSplit:
    def make(self, n):
        idx = np.arange(n, dtype=float)
        return IntervalFrame(("x1",), idx[:, None], np.ones((n, 1)), idx, np.ones(n))

    def test_paper_grid_sizes(self):
        train, test = split(self.make(500), SplitSpec(0.1, "random", seed=4))
        assert (train.n, test.n) == (50, 450)

    def test_chronological_rounding_half_up(self):
        train, test = split(self.make(1511), SplitSpec(0.8, "chronological"))
        assert (train.n, test.n) == (1209, 302)
        np.testing.assert_allclose(train.x_center[:, 0], np.arange(1209))

    def test_train_count_override(self):
        train, test = split(self.make(1511), SplitSpec(0.8, "chronological", train_count=1208))
        assert (train.n, test.n) == (1208, 303)

    def test_same_seed_same_partition(self):
        a1, b1 = split(self.make(100), SplitSpec(0.3, "random", seed=9))
        a2, b2 = split(self.make(100), SplitSpec(0.3, "random", seed=9))
        np.testing.assert_array_equal(a1.x_center, a2.x_center)
        np.testing.assert_array_equal(b1.x_center, b2.x_center)

    def test_partition_is_exact(self):
        for n, frac in ((10, 0.25), (57, 0.5), (100, 0.9), (501, 0.1)):
            train, test = split(self.make(n), SplitSpec(frac, "random", seed=n))
            got = np.concatenate([train.x_center[:, 0], test.x_center[:, 0]])
            assert train.n == int(np.floor(frac * n + 0.5))
            np.testing.assert_array_equal(np.sort(got), np.arange(n))

    def test_degenerate_split_rejected(self):
        with pytest.raises(SplitError):
            split(self.make(10), SplitSpec(0.05, "random", seed=1))  # train would be 0/1
        with pytest.raises(SplitError):
            split(self.make(10), SplitSpec(0.99, "random", seed=1))  # test would be 0

    def test_bad_fraction_rejected(self):
        with pytest.raises(SplitError):
            SplitSpec(1.5, "random")

    def test_bad_mode_rejected(self):
        with pytest.raises(SplitError):
            SplitSpec(0.5, "sideways")


class TestCoherence:
    def test_valid_frame_reports_zero(self):
        frame = IntervalFrame(("x1",), np.zeros((3, 1)), np.ones((3, 1)), np.zeros(3), np.ones(3))
        assert coherence_report(frame).count == 0

    def test_negative_radius_counted_with_row(self):
        frame = IntervalFrame(
            ("x1",), np.zeros((3, 1)), np.ones((3, 1)), np.zeros(3), np.array([1.0, -0.5, 0.0])
        )
        report = coherence_report(frame)
        assert report.count == 1
        assert report.rows == [1]
