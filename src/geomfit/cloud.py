"""Observed point clouds and the centroid translation.

A cloud keeps its x and y columns as plain lists of floats, checked once,
when it is built.  Centering subtracts the column means, moving the center
of mass to the origin; the centered columns i (from x) and u (from y) are
plain lists too.  Their sums of products Sxx = i.i, Syy = u.u and Sxy = u.i
are each computed once, by exactly rounded :func:`math.fsum`, and cached on
the centered cloud for the fit, the correlation and the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import ObjectiveOverflow

__all__ = [
    "PointCloud", "CenteredCloud", "centroid", "center", "finite", "finite_column", "finite_fsum",
]


def finite(value: float, what: str) -> float:
    """``value``, or :class:`ObjectiveOverflow` naming ``what`` if it is inf or nan."""
    if not math.isfinite(value):
        raise ObjectiveOverflow(f"{what} overflows float64")
    return value


def finite_fsum(terms: Iterable[float], what: str) -> float:
    """Exactly rounded sum of ``terms``, which must be finite."""
    try:
        return finite(math.fsum(terms), what)
    except (OverflowError, ValueError):  # fsum's intermediate overflow, or inf + -inf
        return finite(math.inf, what)


def finite_column(values: Iterable[float]) -> list[float]:
    """``values`` as a list of floats; ValueError for a string, no values, a nan or an inf."""
    if isinstance(values, (str, bytes)):  # else read one character at a time
        raise ValueError(f"a column must be a sequence of numbers, not {type(values).__name__}")
    # A numpy array's tolist() converts it in one call, not element by element.
    col = list(map(float, values.tolist() if hasattr(values, "tolist") else values))
    if not col:
        raise ValueError("a vector needs at least one component")
    if not math.isfinite(sum(col)):  # a nan or an inf, or an overflow the scan lets pass
        for k, c in enumerate(col):
            if not math.isfinite(c):
                raise ValueError(f"component {k} is not finite: {c!r}")
    return col


@dataclass(frozen=True)
class PointCloud:
    """Raw observed pairs (x_i, y_i): equal-length finite columns, n >= 1."""

    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self):
        xs, ys = finite_column(self.xs), finite_column(self.ys)
        if len(xs) != len(ys):
            raise ValueError(f"xs and ys must have equal length, got {len(xs)} and {len(ys)}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "PointCloud":
        pts = list(pairs)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    @classmethod
    def from_columns(cls, xs: Sequence[float], ys: Sequence[float]) -> "PointCloud":
        return cls(xs, ys)


@dataclass(frozen=True)
class CenteredCloud:
    """Centroid plus the centered predictor/response columns.

    ``i_vec`` holds the centered x column, ``u_vec`` the centered y column.
    Both sum to zero up to floating-point roundoff.  ``sxx``, ``syy`` and
    ``sxy`` are their sums of products, computed on first use; a sum that
    overflows float64 raises :class:`ObjectiveOverflow`.
    """

    centroid_x: float
    centroid_y: float
    i_vec: Sequence[float]
    u_vec: Sequence[float]

    def __post_init__(self):
        if len(self.i_vec) != len(self.u_vec):
            raise ValueError("centered columns must have equal length")

    def __len__(self) -> int:
        return len(self.i_vec)

    @cached_property
    def sxx(self) -> float:
        return finite_fsum(map(mul, self.i_vec, self.i_vec), "the sum of squared x deviations")

    @cached_property
    def syy(self) -> float:
        return finite_fsum(map(mul, self.u_vec, self.u_vec), "the sum of squared y deviations")

    @cached_property
    def sxy(self) -> float:
        return finite_fsum(map(mul, self.u_vec, self.i_vec), "the sum of x-y deviation products")


def centroid(cloud: PointCloud) -> tuple[float, float]:
    """Center of mass (mean of xs, mean of ys)."""
    n = len(cloud)
    return finite_fsum(cloud.xs, "the sum of x") / n, finite_fsum(cloud.ys, "the sum of y") / n


def center(cloud: PointCloud) -> CenteredCloud:
    """Translate the cloud so its center of mass lands at the origin."""
    x_bar, y_bar = centroid(cloud)
    return CenteredCloud(
        centroid_x=x_bar,
        centroid_y=y_bar,
        i_vec=[x - x_bar for x in cloud.xs],
        u_vec=[y - y_bar for y in cloud.ys],
    )
