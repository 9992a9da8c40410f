"""Deterministic SVG scatter plot with the fitted line.

Byte-identical output for identical inputs: coordinates are formatted with a
fixed number of decimals and nothing depends on dict ordering, locale, or
time.  The data-to-pixel transform is exposed so consumers (and tests) can
map pixel coordinates back to data coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cloud import PointCloud, finite
from .regress import FitResult, predict

__all__ = ["MIN_SIZE_PX", "PlotFrame", "plot_frame", "render_svg"]

MIN_SIZE_PX = 100  # smallest accepted width and height

_MARGIN_LEFT = 55.0
_MARGIN_RIGHT = 15.0
_MARGIN_TOP = 15.0
_MARGIN_BOTTOM = 35.0
_PAD_FRACTION = 0.05
_POINT_RADIUS = 3.0


@dataclass(frozen=True)
class PlotFrame:
    """Affine map between data coordinates and pixel coordinates."""

    width: float
    height: float
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    @property
    def plot_width(self) -> float:
        return self.width - _MARGIN_LEFT - _MARGIN_RIGHT

    @property
    def plot_height(self) -> float:
        return self.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        px = _MARGIN_LEFT + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_width
        py = _MARGIN_TOP + (self.y_hi - y) / (self.y_hi - self.y_lo) * self.plot_height
        return px, py

    def to_data(self, px: float, py: float) -> tuple[float, float]:
        x = self.x_lo + (px - _MARGIN_LEFT) / self.plot_width * (self.x_hi - self.x_lo)
        y = self.y_hi - (py - _MARGIN_TOP) / self.plot_height * (self.y_hi - self.y_lo)
        return x, y


def plot_frame(cloud: PointCloud, fit_result: FitResult, width: float, height: float) -> PlotFrame:
    """Viewport covering the points and the clipped fitted line, padded 5%."""
    x_min, x_max = min(cloud.xs), max(cloud.xs)
    x_span = x_max - x_min
    x_pad = _PAD_FRACTION * x_span if x_span > 0 else 1.0
    x_lo, x_hi = x_min - x_pad, x_max + x_pad

    line_ys = (predict(fit_result, x_lo), predict(fit_result, x_hi))
    y_min = min(min(cloud.ys), *line_ys)
    y_max = max(max(cloud.ys), *line_ys)
    y_span = y_max - y_min
    # A constant y gets a unit pad, or one ulp where |y| >= 2**53 would absorb a unit.
    y_pad = _PAD_FRACTION * y_span if y_span > 0 else max(1.0, math.ulp(y_max))
    y_lo, y_hi = y_min - y_pad, y_max + y_pad
    finite(y_hi - y_lo, "the plot's y range")
    return PlotFrame(width, height, x_lo, x_hi, y_lo, y_hi)


def render_svg(cloud: PointCloud, fit_result: FitResult, width: int = 640, height: int = 480) -> str:
    """SVG document: one circle per point, the fitted line, min/max axis ticks.

    Pixel coordinates are printed as "%.3f" and tick labels as "%.6g".
    """
    if width < MIN_SIZE_PX or height < MIN_SIZE_PX:
        raise ValueError(f"width and height must be at least {MIN_SIZE_PX} px")
    frame = plot_frame(cloud, fit_result, float(width), float(height))
    ox, oy = _MARGIN_LEFT, float(height) - _MARGIN_BOTTOM
    line = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="%s" stroke-width="%s"/>'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        # Axes along the left and bottom plot edges.
        line % (ox, oy, float(width) - _MARGIN_RIGHT, oy, "black", "1"),
        line % (ox, oy, ox, _MARGIN_TOP, "black", "1"),
    ]

    # Min/max tick labels in data coordinates.
    tick = '<text x="%.3f" y="%.3f" font-size="11" text-anchor="%s">%.6g</text>'
    for xv in (min(cloud.xs), max(cloud.xs)):
        parts.append(tick % (frame.to_px(xv, frame.y_lo)[0], oy + 18.0, "middle", xv))
    for yv in (min(cloud.ys), max(cloud.ys)):
        parts.append(tick % (ox - 6.0, frame.to_px(frame.x_lo, yv)[1] + 4.0, "end", yv))

    # Fitted line clipped to the padded x-range.
    ends = [frame.to_px(x, predict(fit_result, x)) for x in (frame.x_lo, frame.x_hi)]
    parts.append(line % (*ends[0], *ends[1], "crimson", "1.5"))

    # Points in file order; frame.to_px inlined for speed, in its operation order.
    x_lo, x_span, plot_w = frame.x_lo, frame.x_hi - frame.x_lo, frame.plot_width
    y_hi, y_span, plot_h = frame.y_hi, frame.y_hi - frame.y_lo, frame.plot_height
    circle = (f'<circle cx="%.3f" cy="%.3f" r="{_POINT_RADIUS}" '
              'fill="steelblue" fill-opacity="0.8"/>')
    parts.extend(
        circle % (_MARGIN_LEFT + (x - x_lo) / x_span * plot_w,
                  _MARGIN_TOP + (y_hi - y) / y_span * plot_h)
        for x, y in zip(cloud.xs, cloud.ys)
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
