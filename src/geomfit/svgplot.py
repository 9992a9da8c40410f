"""Deterministic SVG scatter plot with the fitted line.

Byte-identical output for identical inputs: coordinates are formatted with a
fixed number of decimals and nothing depends on dict ordering, locale, or
time.  The data-to-pixel transform is exposed so consumers (and tests) can
map pixel coordinates back to data coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cloud import PointCloud
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
    y_pad = _PAD_FRACTION * y_span if y_span > 0 else 1.0
    return PlotFrame(width, height, x_lo, x_hi, y_min - y_pad, y_max + y_pad)


def _px(v: float) -> str:
    return f"{v:.3f}"


def _label(v: float) -> str:
    return f"{v:.6g}"


def render_svg(cloud: PointCloud, fit_result: FitResult, width: int = 640, height: int = 480) -> str:
    """SVG document: one circle per point, the fitted line, min/max axis ticks."""
    if width < MIN_SIZE_PX or height < MIN_SIZE_PX:
        raise ValueError(f"width and height must be at least {MIN_SIZE_PX} px")
    frame = plot_frame(cloud, fit_result, float(width), float(height))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    # Axes along the left and bottom plot edges.
    ox, oy = _MARGIN_LEFT, float(height) - _MARGIN_BOTTOM
    parts.append(
        f'<line x1="{_px(ox)}" y1="{_px(oy)}" x2="{_px(float(width) - _MARGIN_RIGHT)}" '
        f'y2="{_px(oy)}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_px(ox)}" y1="{_px(oy)}" x2="{_px(ox)}" y2="{_px(_MARGIN_TOP)}" '
        f'stroke="black" stroke-width="1"/>'
    )

    # Min/max tick labels in data coordinates.
    x_min, x_max = min(cloud.xs), max(cloud.xs)
    y_min, y_max = min(cloud.ys), max(cloud.ys)
    for xv in (x_min, x_max):
        px, _ = frame.to_px(xv, frame.y_lo)
        parts.append(
            f'<text x="{_px(px)}" y="{_px(oy + 18.0)}" font-size="11" '
            f'text-anchor="middle">{_label(xv)}</text>'
        )
    for yv in (y_min, y_max):
        _, py = frame.to_px(frame.x_lo, yv)
        parts.append(
            f'<text x="{_px(ox - 6.0)}" y="{_px(py + 4.0)}" font-size="11" '
            f'text-anchor="end">{_label(yv)}</text>'
        )

    # Fitted line clipped to the padded x-range.
    (lx1, ly1) = frame.to_px(frame.x_lo, predict(fit_result, frame.x_lo))
    (lx2, ly2) = frame.to_px(frame.x_hi, predict(fit_result, frame.x_hi))
    parts.append(
        f'<line x1="{_px(lx1)}" y1="{_px(ly1)}" x2="{_px(lx2)}" y2="{_px(ly2)}" '
        f'stroke="crimson" stroke-width="1.5"/>'
    )

    # Points, in file order.
    for x, y in zip(cloud.xs, cloud.ys):
        px, py = frame.to_px(x, y)
        parts.append(
            f'<circle cx="{_px(px)}" cy="{_px(py)}" r="{_POINT_RADIUS}" '
            f'fill="steelblue" fill-opacity="0.8"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
