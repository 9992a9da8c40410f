"""Observed point clouds and the centroid translation.

A cloud's columns, checked once when it is built, are two float64 arrays
(told apart by ``dtype``) when both are 1-d float64 numpy arrays within
+-2**400, where no elementwise product can overflow, else two lists of
floats.  Centering subtracts the column means, moving the center of mass to
the origin; the centered columns i (from x) and u (from y) keep that kind.
Their sums of products Sxx = i.i, Syy = u.u and Sxy = u.i are each computed
once, by exactly rounded :func:`math.fsum`, and cached on the centered
cloud.  The column arithmetic here, the one place that tells the kinds
apart, rounds each element once, in the same order, so both kinds give the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import ObjectiveOverflow

__all__ = ["PointCloud", "CenteredCloud", "centroid", "center", "finite", "finite_column",
           "finite_fsum"]

# Deviations stay within 2 * 2**400 and, as |slope| <= sqrt(Syy / Sxx), residuals within
# 2 * (1 + sqrt(n)) * 2**400: their products stay far below 2**1024, so numpy never warns
# and only an fsum can overflow, raising ObjectiveOverflow as on lists.
_ARRAY_LIMIT = 2.0**400


def finite(value: float, what: str) -> float:
    """``value``, or :class:`ObjectiveOverflow` naming ``what`` if it is inf or nan."""
    if not math.isfinite(value):
        raise ObjectiveOverflow(f"{what} overflows float64")
    return value


def finite_fsum(terms: Iterable[float], what: str) -> float:
    """Exactly rounded sum of ``terms``, which must be finite."""
    if getattr(terms, "dtype", None) == "float64":  # read as Python floats, with no list built
        terms = memoryview(terms)
    try:
        return finite(math.fsum(terms), what)
    except (OverflowError, ValueError):  # fsum's intermediate overflow, or inf + -inf
        return finite(math.inf, what)


def finite_column(values: Iterable[float]) -> Sequence[float]:
    """``values``, a 1-d float64 array within +-2**400 as a contiguous private copy, else
    as a list of floats; ValueError for a string, a non-1-d shape, no values, nan or inf."""
    if getattr(values, "ndim", 1) != 1:
        raise ValueError(f"a column must be 1-d, not of shape {values.shape}")
    # numpy's own arrays only (a masked array computes differently); min and max,
    # unlike a sum, cannot overflow or warn, and a nan fails both comparisons.
    if type(values).__module__ == "numpy" and values.dtype == "float64":
        if len(values) and -_ARRAY_LIMIT <= values.min() and values.max() <= _ARRAY_LIMIT:
            return values.copy()
    if isinstance(values, (str, bytes)):  # else read one character at a time
        raise ValueError(f"a column must be a sequence of numbers, not {type(values).__name__}")
    # a numpy array's tolist() converts it in one call, not element by element
    col = list(map(float, values.tolist() if hasattr(values, "tolist") else values))
    if not col:
        raise ValueError("a vector needs at least one component")
    if not math.isfinite(sum(col)):  # a nan or an inf, or an overflow the scan lets pass
        for k, c in enumerate(col):
            if not math.isfinite(c):
                raise ValueError(f"component {k} is not finite: {c!r}")
    return col


def products(a: Sequence[float], b: Sequence[float]) -> Iterable[float]:
    """Elementwise a*b: float64 arrays all at once, other columns pair by pair."""
    return a * b if hasattr(a, "dtype") else map(mul, a, b)


def minus_scaled(u: Sequence[float], a: float, i: Sequence[float]) -> Sequence[float]:
    """Elementwise u - a*i, of the columns' kind."""
    return u - a * i if hasattr(u, "dtype") else [p - a * q for p, q in zip(u, i)]


def _deviations(col: Sequence[float], origin: float) -> Sequence[float]:
    return col - origin if hasattr(col, "dtype") else [v - origin for v in col]


@dataclass(frozen=True)
class PointCloud:
    """Raw observed pairs (x_i, y_i): equal-length :func:`finite_column` columns, n >= 1,
    both float64 arrays (within +-2**400) or both lists; clouds of equal values are equal."""

    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self):
        xs, ys = finite_column(self.xs), finite_column(self.ys)
        if len(xs) != len(ys):
            raise ValueError(f"xs and ys must have equal length, got {len(xs)} and {len(ys)}")
        if hasattr(xs, "dtype") != hasattr(ys, "dtype"):  # one kind per cloud: two lists
            xs, ys = (c.tolist() if hasattr(c, "dtype") else c for c in (xs, ys))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointCloud) and self.as_lists() == other.as_lists()

    def as_lists(self) -> tuple[list[float], list[float]]:
        """The columns as lists of floats, an array's by one ``tolist()``."""
        return tuple(c.tolist() if hasattr(c, "dtype") else c for c in (self.xs, self.ys))

    @classmethod
    def from_columns(cls, xs: Sequence[float], ys: Sequence[float]) -> "PointCloud":
        return cls(xs, ys)


@dataclass(frozen=True)
class CenteredCloud:
    """Centroid plus the centered predictor/response columns.

    ``i_vec`` holds the centered x column, ``u_vec`` the centered y column; both sum
    to zero up to roundoff, and are float64 arrays for a cloud of arrays, else lists.
    ``sxx``, ``syy`` and ``sxy`` are their sums of products, computed on first use;
    one that overflows float64 raises :class:`ObjectiveOverflow`.
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
        return finite_fsum(products(self.i_vec, self.i_vec), "the sum of squared x deviations")

    @cached_property
    def syy(self) -> float:
        return finite_fsum(products(self.u_vec, self.u_vec), "the sum of squared y deviations")

    @cached_property
    def sxy(self) -> float:
        return finite_fsum(products(self.u_vec, self.i_vec), "the sum of x-y deviation products")


def centroid(cloud: PointCloud) -> tuple[float, float]:
    """Center of mass (mean of xs, mean of ys)."""
    n = len(cloud)
    return finite_fsum(cloud.xs, "the sum of x") / n, finite_fsum(cloud.ys, "the sum of y") / n


def center(cloud: PointCloud) -> CenteredCloud:
    """Translate the cloud so its center of mass lands at the origin."""
    x_bar, y_bar = centroid(cloud)
    return CenteredCloud(x_bar, y_bar, _deviations(cloud.xs, x_bar), _deviations(cloud.ys, y_bar))
