import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ivforest.errors import DimensionError
from ivforest.frame import IntervalFrame
from ivforest.intervals import PredictionSet
from ivforest.plots import pred_scatter_svg, rectangles_svg
from ivforest.simulate import SimSetting, simulate

GOLDEN_DIR = Path(__file__).parent / "golden"

SVG = "{http://www.w3.org/2000/svg}"


def tags(svg_text):
    root = ET.fromstring(svg_text)
    return [el.tag.removeprefix(SVG) for el in root.iter()][1:]  # skip the svg element


def structure(svg_text):
    """Tag sequence plus numeric attributes rounded for comparison."""
    root = ET.fromstring(svg_text)
    out = []
    for el in root.iter():
        attrs = {}
        for key, val in el.attrib.items():
            try:
                attrs[key] = round(float(val), 4)
            except ValueError:
                attrs[key] = val
        out.append((el.tag.removeprefix(SVG), attrs))
    return out


def one_row_frame():
    return IntervalFrame(
        ("x1",), np.array([[1.0]]), np.array([[0.5]]), np.array([2.0]), np.array([0.25])
    )


class TestRectangles:
    def test_single_row_has_one_rect_and_one_dot(self):
        svg = rectangles_svg(one_row_frame())
        t = tags(svg)
        assert t.count("rect") == 1
        assert t.count("circle") == 1
        assert t.count("line") == 2  # the two axes

    def test_rect_count_matches_rows(self):
        frame = simulate(SimSetting(1, 37, 3))
        t = tags(rectangles_svg(frame))
        assert t.count("rect") == 37
        assert t.count("circle") == 37

    def test_deterministic_output(self):
        frame = simulate(SimSetting(1, 25, 4))
        assert rectangles_svg(frame) == rectangles_svg(frame)

    def test_axes_cover_data_range_with_margin(self):
        frame = simulate(SimSetting(1, 50, 5))
        x_lo = float(np.min(frame.x_center - frame.x_radius))
        x_hi = float(np.max(frame.x_center + frame.x_radius))
        span = x_hi - x_lo
        root = ET.fromstring(rectangles_svg(frame))
        labels = {el.text for el in root.iter(f"{SVG}text") if _is_number(el.text)}
        want_lo, want_hi = x_lo - 0.05 * span, x_hi + 0.05 * span
        assert any(abs(float(t) - want_lo) < 1e-3 for t in labels)
        assert any(abs(float(t) - want_hi) < 1e-3 for t in labels)

    def test_matches_golden_structure(self):
        golden = (GOLDEN_DIR / "rectangles_setting1_n200.svg").read_text(encoding="utf-8")
        fresh = rectangles_svg(simulate(SimSetting(1, 200, 7)))
        assert structure(fresh) == structure(golden)


def _is_number(text):
    try:
        float(text)
        return True
    except (TypeError, ValueError):
        return False


class TestPredScatter:
    def test_panels_have_circles_and_triangles(self):
        frame = simulate(SimSetting(1, 20, 6))
        pred = PredictionSet(frame.y_center + 0.1, frame.y_radius, frame.y_radius < 0)
        t = tags(pred_scatter_svg(frame, pred))
        assert t.count("circle") == 40  # observed, two panels
        assert t.count("polygon") == 40  # predicted, two panels
        assert t.count("line") == 4

    def test_row_count_mismatch(self):
        frame = simulate(SimSetting(1, 20, 6))
        pred = PredictionSet(np.zeros(19), np.ones(19), np.zeros(19, dtype=bool))
        with pytest.raises(DimensionError):
            pred_scatter_svg(frame, pred)

    def test_matches_golden_structure(self):
        golden = (GOLDEN_DIR / "pred_scatter_setting1.svg").read_text(encoding="utf-8")
        frame = simulate(SimSetting(1, 30, 8))
        pred = PredictionSet(frame.y_center * 0.9, frame.y_radius * 1.1, frame.y_radius < 0)
        assert structure(pred_scatter_svg(frame, pred)) == structure(golden)
