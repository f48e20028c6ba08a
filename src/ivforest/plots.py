"""Deterministic SVG plots: interval rectangles and prediction overlays.

Output contains no timestamps and formats every coordinate with a fixed
precision, so identical inputs give byte-identical files. Data marks use
dedicated element types (rect for interval boxes, circle for observed
points, polygon for predicted points); axes are drawn with line elements so
structural tests can count marks unambiguously.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, EmptySampleError
from .frame import IntervalFrame
from .intervals import PredictionSet

WIDTH, HEIGHT = 640, 480
MARGIN = 54
PANEL_GAP = 48

RECT_STYLE = 'fill="#c8c8c8" fill-opacity="0.55" stroke="#909090" stroke-width="0.5"'
CENTER_STYLE = 'fill="#e6b800" stroke="none"'
OBSERVED_STYLE = 'fill="none" stroke="#000000" stroke-width="1"'
PREDICTED_STYLE = 'fill="#d62728" stroke="none"'
AXIS_STYLE = 'stroke="#000000" stroke-width="1"'


def _fmt(v: float) -> str:
    return f"{float(v):.4f}".rstrip("0").rstrip(".")


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    pad = 0.05 * span if span > 0 else max(0.5, 0.05 * abs(hi) + 0.5)
    return lo - pad, hi + pad


class _Panel:
    """Maps one data window onto a pixel box and accumulates elements."""

    def __init__(self, x0: float, y0: float, w: float, h: float,
                 xlim: tuple[float, float], ylim: tuple[float, float]):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.xlim, self.ylim = xlim, ylim
        self.elements: list[str] = []

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * self.w

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y0 + self.h - (y - lo) / (hi - lo) * self.h

    def axes(self, xlabel: str, ylabel: str) -> None:
        x0, y0, w, h = self.x0, self.y0, self.w, self.h
        self.elements.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0 + h)}" x2="{_fmt(x0 + w)}" y2="{_fmt(y0 + h)}" {AXIS_STYLE}/>'
        )
        self.elements.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y0 + h)}" {AXIS_STYLE}/>'
        )
        self.elements.append(
            f'<text x="{_fmt(x0 + w / 2)}" y="{_fmt(y0 + h + 34)}" font-size="13" text-anchor="middle">{xlabel}</text>'
        )
        self.elements.append(
            f'<text x="{_fmt(x0 - 38)}" y="{_fmt(y0 + h / 2)}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 {_fmt(x0 - 38)} {_fmt(y0 + h / 2)})">{ylabel}</text>'
        )
        for side, val in (("x", self.xlim), ("y", self.ylim)):
            for v in val:
                if side == "x":
                    self.elements.append(
                        f'<text x="{_fmt(self.px(v))}" y="{_fmt(y0 + h + 16)}" font-size="10" text-anchor="middle">{_fmt(v)}</text>'
                    )
                else:
                    self.elements.append(
                        f'<text x="{_fmt(x0 - 6)}" y="{_fmt(self.py(v) + 3)}" font-size="10" text-anchor="end">{_fmt(v)}</text>'
                    )

    def rect(self, xlo: float, xhi: float, ylo: float, yhi: float) -> None:
        self.elements.append(
            f'<rect x="{_fmt(self.px(xlo))}" y="{_fmt(self.py(yhi))}" '
            f'width="{_fmt(self.px(xhi) - self.px(xlo))}" height="{_fmt(self.py(ylo) - self.py(yhi))}" {RECT_STYLE}/>'
        )

    def circle(self, x: float, y: float, r: float, style: str) -> None:
        self.elements.append(
            f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" r="{_fmt(r)}" {style}/>'
        )

    def triangle(self, x: float, y: float, size: float, style: str) -> None:
        cx, cy = self.px(x), self.py(y)
        pts = f"{_fmt(cx)},{_fmt(cy - size)} {_fmt(cx - size)},{_fmt(cy + size)} {_fmt(cx + size)},{_fmt(cy + size)}"
        self.elements.append(f'<polygon points="{pts}" {style}/>')


def _document(elements: list[str], width: int = WIDTH, height: int = HEIGHT) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *elements, "</svg>"]) + "\n"


def rectangles_svg(frame: IntervalFrame) -> str:
    """One gray rectangle per observation (first predictor by response) with a center dot."""
    xc = frame.x_center[:, 0]
    xr = frame.x_radius[:, 0]
    yc, yr = frame.y_center, frame.y_radius
    xlim = _padded(float(np.min(xc - xr)), float(np.max(xc + xr)))
    ylim = _padded(float(np.min(yc - yr)), float(np.max(yc + yr)))
    panel = _Panel(MARGIN, 24, WIDTH - 2 * MARGIN, HEIGHT - 24 - 2 * MARGIN, xlim, ylim)
    panel.axes(frame.predictor_names[0], frame.response_name)
    for i in range(frame.n):
        lo_x, hi_x = xc[i] - xr[i], xc[i] + xr[i]
        lo_y, hi_y = yc[i] - yr[i], yc[i] + yr[i]
        if hi_x < lo_x:
            lo_x, hi_x = hi_x, lo_x
        if hi_y < lo_y:
            lo_y, hi_y = hi_y, lo_y
        panel.rect(lo_x, hi_x, lo_y, hi_y)
    for i in range(frame.n):
        panel.circle(xc[i], yc[i], 1.6, CENTER_STYLE)
    return _document(panel.elements)


def pred_scatter_svg(truth: IntervalFrame, pred: PredictionSet) -> str:
    """Observed (circles) vs predicted (triangles) on the first predictor: center, radius panels."""
    if pred.center.size != truth.n:
        raise DimensionError(
            f"prediction rows ({pred.center.size}) != observation rows ({truth.n})"
        )
    if truth.n == 0:
        raise EmptySampleError("nothing to plot")
    panel_w = (WIDTH - 2 * MARGIN - PANEL_GAP) / 2
    panels: list[str] = []
    specs = (
        ("center", truth.x_center[:, 0], truth.y_center, pred.center, MARGIN),
        ("radius", truth.x_radius[:, 0], truth.y_radius, pred.radius, MARGIN + panel_w + PANEL_GAP),
    )
    for name, x, observed, predicted, x0 in specs:
        ylo = float(min(observed.min(), predicted.min()))
        yhi = float(max(observed.max(), predicted.max()))
        panel = _Panel(
            x0, 24, panel_w, HEIGHT - 24 - 2 * MARGIN,
            _padded(float(x.min()), float(x.max())), _padded(ylo, yhi),
        )
        panel.axes(f"x {name}", f"y {name}")
        for i in range(truth.n):
            panel.circle(x[i], observed[i], 2.2, OBSERVED_STYLE)
        for i in range(truth.n):
            panel.triangle(x[i], predicted[i], 2.6, PREDICTED_STYLE)
        panels.extend(panel.elements)
    return _document(panels)
