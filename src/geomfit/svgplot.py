"""Deterministic SVG scatter plot with the fitted line.

Byte-identical output for identical inputs: coordinates are formatted with a
fixed number of decimals and nothing depends on dict ordering, locale, or
time.  ``PlotFrame`` holds the one data-to-pixel map, which places every
circle, tick label and line end; ``to_data`` maps pixels back to data.

The renderer scans each column for its min and max and predicts the line's
ends once.  ``svg_chunks`` yields the circles a block of ``_BLOCK_POINTS`` at
a time, each block formatted by one ``%`` against a template of that many
circle lines, so a writer never holds the document.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .cloud import PointCloud, finite
from .regress import FitResult, predict

__all__ = ["MIN_SIZE_PX", "MAX_SIZE_PX", "PlotFrame", "plot_frame", "render_svg", "size_ok",
           "svg_chunks"]

MIN_SIZE_PX = 100  # smallest accepted width and height
MAX_SIZE_PX = sys.float_info.max  # largest; anything bigger is not a finite float

_MARGIN_LEFT = 55.0
_MARGIN_RIGHT = 15.0
_MARGIN_TOP = 15.0
_MARGIN_BOTTOM = 35.0
_PAD_FRACTION = 0.05
_CIRCLE = '<circle cx="%.3f" cy="%.3f" r="3.0" fill="steelblue" fill-opacity="0.8"/>'
_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="%s" stroke-width="%s"/>'
_TICK = '<text x="%.3f" y="%.3f" font-size="11" text-anchor="%s">%.6g</text>'
_BLOCK_POINTS = 4096  # circles formatted by one % call


def size_ok(size: float) -> bool:
    """True for an accepted width or height; NaN and the infinities fail."""
    return MIN_SIZE_PX <= size <= MAX_SIZE_PX


class PlotFrame(namedtuple("PlotFrame", "width height x_lo x_hi y_lo y_hi")):
    """Affine map between data coordinates and pixel coordinates."""

    __slots__ = ()

    @property
    def plot_width(self) -> float:
        return self.width - _MARGIN_LEFT - _MARGIN_RIGHT

    @property
    def plot_height(self) -> float:
        return self.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        (px,), (py,) = self._px((x,), (y,))
        return px, py

    def _px(self, xs: Iterable[float], ys: Iterable[float]) -> tuple[list[float], list[float]]:
        """Pixel x of each data x and pixel y of each data y; spans and sizes read once."""
        x_lo, x_span, plot_w = self.x_lo, self.x_hi - self.x_lo, self.plot_width
        y_hi, y_span, plot_h = self.y_hi, self.y_hi - self.y_lo, self.plot_height
        return ([_MARGIN_LEFT + (x - x_lo) / x_span * plot_w for x in xs],
                [_MARGIN_TOP + (y_hi - y) / y_span * plot_h for y in ys])

    def to_data(self, px: float, py: float) -> tuple[float, float]:
        x = self.x_lo + (px - _MARGIN_LEFT) / self.plot_width * (self.x_hi - self.x_lo)
        y = self.y_hi - (py - _MARGIN_TOP) / self.plot_height * (self.y_hi - self.y_lo)
        return x, y


def plot_frame(cloud: PointCloud, fit_result: FitResult, width: float, height: float) -> PlotFrame:
    """Viewport covering the points and the clipped fitted line, padded 5%.

    Raises ValueError unless ``size_ok`` holds for width and height.
    """
    return _frame(*cloud.as_lists(), fit_result, width, height)[0]


def _frame(xs: list[float], ys: list[float], fit_result: FitResult, width: float, height: float
           ) -> tuple[PlotFrame, tuple[float, float, float, float], tuple[float, float]]:
    """The frame, the data's (min x, max x, min y, max y) and the line's heights at x_lo, x_hi.

    The size is checked as given, before ``float`` could overflow on a huge int.
    """
    if not (size_ok(width) and size_ok(height)):
        raise ValueError(f"width and height must be between {MIN_SIZE_PX} and {MAX_SIZE_PX:g} px")
    extrema = min(xs), max(xs), min(ys), max(ys)
    x_min, x_max, y_min, y_max = extrema
    x_span = x_max - x_min
    x_pad = _PAD_FRACTION * x_span if x_span > 0 else 1.0
    x_lo, x_hi = x_min - x_pad, x_max + x_pad

    line_ys = (predict(fit_result, x_lo), predict(fit_result, x_hi))
    y_min, y_max = min(y_min, *line_ys), max(y_max, *line_ys)
    y_span = y_max - y_min
    # A constant y gets a unit pad, or one ulp where |y| >= 2**53 would absorb a unit.
    y_pad = _PAD_FRACTION * y_span if y_span > 0 else max(1.0, math.ulp(y_max))
    y_lo, y_hi = y_min - y_pad, y_max + y_pad
    finite(y_hi - y_lo, "the plot's y range")
    return PlotFrame(float(width), float(height), x_lo, x_hi, y_lo, y_hi), extrema, line_ys


def svg_chunks(cloud: PointCloud, fit_result: FitResult, width: int = 640, height: int = 480
               ) -> Iterator[str]:
    """``render_svg``'s document as chunks, each ending in a newline, to write as they come.

    The frame is built on the call: a bad size (ValueError) or y range (ObjectiveOverflow)
    raises before any chunk.  The chunks are the head, each block of circles, and ``</svg>``.
    """
    xs, ys = cloud.as_lists()  # read point by point
    frame, (x_min, x_max, y_min, y_max), line_ys = _frame(xs, ys, fit_result, width, height)
    ox, oy = _MARGIN_LEFT, float(height) - _MARGIN_BOTTOM
    tick_pxs, tick_pys = frame._px((x_min, x_max), (y_min, y_max))  # labels of the extrema
    # Fitted line clipped to the padded x-range.
    (x1, x2), (y1, y2) = frame._px((frame.x_lo, frame.x_hi), line_ys)
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        # Axes along the left and bottom plot edges.
        _LINE % (ox, oy, float(width) - _MARGIN_RIGHT, oy, "black", "1"),
        _LINE % (ox, oy, ox, _MARGIN_TOP, "black", "1"),
        *[_TICK % (px, oy + 18.0, "middle", v) for px, v in zip(tick_pxs, (x_min, x_max))],
        *[_TICK % (ox - 6.0, py + 4.0, "end", v) for py, v in zip(tick_pys, (y_min, y_max))],
        _LINE % (x1, y1, x2, y2, "crimson", "1.5"),
    ]

    def chunks() -> Iterator[str]:
        yield "\n".join(head) + "\n"
        for lo in range(0, len(cloud), _BLOCK_POINTS):  # points in file order
            pxs, pys = frame._px(xs[lo:lo + _BLOCK_POINTS], ys[lo:lo + _BLOCK_POINTS])
            flat = pxs + pys
            flat[0::2], flat[1::2] = pxs, pys  # cx0, cy0, cx1, cy1, ...
            yield ((_CIRCLE + "\n") * len(pxs)) % tuple(flat)
        yield "</svg>\n"

    return chunks()


def render_svg(cloud: PointCloud, fit_result: FitResult, width: int = 640, height: int = 480) -> str:
    """SVG document: one circle per point, the fitted line, min/max axis ticks.

    The join of ``svg_chunks``.  Pixel coordinates print as "%.3f", and tick
    labels as "%.6g" of the data's extrema, not the padded range the fitted
    line may widen.  Raises ValueError unless ``size_ok`` holds for width and height.
    """
    return "".join(svg_chunks(cloud, fit_result, width, height))
