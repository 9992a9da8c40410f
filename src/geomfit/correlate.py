"""Correlation as an angle between centered data vectors.

The correlation coefficient is the cosine of the angle between the centered
response and predictor vectors; the angle itself runs from 0 degrees (total
positive correlation) through 90 (null) to 180 (total negative).  A raw-sums
textbook formula is provided as an algebraically equivalent alternative and
the two routes are cross-checked in tests.  The cosine route reads the
centered sums Sxx, Syy and Sxy cached on the centered cloud.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .cloud import CenteredCloud, PointCloud, _degenerate_x, finite, finite_fsum
from .errors import DegenerateX, DegenerateY

__all__ = [
    "CorrelationClass", "CorrelationResult", "theta", "r_cosine", "r_textbook", "correlate",
    "TOTAL_THRESHOLD", "STRONG_THRESHOLD", "NULL_THRESHOLD",
]

# Band cutoffs on |r|.  The qualitative bands are only sketched in the source
# material, so these are library constants, not universal truths.
TOTAL_THRESHOLD = 0.999   # |r| >= this -> Total
STRONG_THRESHOLD = 0.8    # |r| >= this -> Strong
NULL_THRESHOLD = 0.005    # |r| <= this -> Null


class CorrelationClass(enum.Enum):
    TOTAL_POSITIVE = "TotalPositive"
    STRONG_POSITIVE = "StrongPositive"
    WEAK_POSITIVE = "WeakPositive"
    NULL = "Null"
    WEAK_NEGATIVE = "WeakNegative"
    STRONG_NEGATIVE = "StrongNegative"
    TOTAL_NEGATIVE = "TotalNegative"


CorrelationResult = namedtuple("CorrelationResult", "theta_deg r cls")


def r_cosine(c: CenteredCloud) -> float:
    """Cosine of the angle between u and i; DegenerateX on the x columns ``fit`` refuses."""
    ni = math.sqrt(c.sxx)
    nu = math.sqrt(c.syy)
    if _degenerate_x(c):
        raise DegenerateX("all x values coincide; correlation angle undefined")
    if nu == 0.0:
        raise DegenerateY("all y values coincide; correlation angle undefined")
    # Clamp floating-point excess so perfectly collinear data does not feed
    # a value just outside [-1, 1] into acos.
    return max(-1.0, min(1.0, c.sxy / (nu * ni)))


def theta(c: CenteredCloud) -> float:
    """Correlation angle in degrees, in [0, 180]."""
    return correlate(c).theta_deg


def r_textbook(cloud: PointCloud) -> float:
    """Pearson coefficient from raw (uncentered) sums.

    Kept deliberately on the raw-sums route so it can serve as an independent
    cross-check of :func:`r_cosine`.
    """
    n = len(cloud)
    if n < 2:
        raise DegenerateX("need at least 2 points")
    xs, ys = cloud.as_lists()  # read point by point, as Python floats
    sx = finite_fsum(xs, "the sum of x")
    sy = finite_fsum(ys, "the sum of y")
    sxy = finite_fsum((x * y for x, y in zip(xs, ys)), "the sum of x-y products")
    sxx = finite_fsum((x * x for x in xs), "the sum of squared x")
    syy = finite_fsum((y * y for y in ys), "the sum of squared y")
    var_x = sxx - sx * (sx / n)
    var_y = syy - sy * (sy / n)
    max_x, max_y = max(map(abs, xs)), max(map(abs, ys))
    eps = 1e-12
    if var_x <= n * eps * max(1.0, max_x * max_x):
        raise DegenerateX("x variance is zero within tolerance")
    if var_y <= n * eps * max(1.0, max_y * max_y):
        raise DegenerateY("y variance is zero within tolerance")
    num = sxy - sx * (sy / n)
    var_xy = finite(var_x * var_y, "the product of the x and y variances")
    return max(-1.0, min(1.0, num / math.sqrt(var_xy)))


def _band(r: float) -> CorrelationClass:
    """The qualitative band of a correlation coefficient."""
    mag = abs(r)
    if mag <= NULL_THRESHOLD:
        return CorrelationClass.NULL
    positive = r > 0
    if mag >= TOTAL_THRESHOLD:
        return CorrelationClass.TOTAL_POSITIVE if positive else CorrelationClass.TOTAL_NEGATIVE
    if mag >= STRONG_THRESHOLD:
        return CorrelationClass.STRONG_POSITIVE if positive else CorrelationClass.STRONG_NEGATIVE
    return CorrelationClass.WEAK_POSITIVE if positive else CorrelationClass.WEAK_NEGATIVE


def correlate(c: CenteredCloud) -> CorrelationResult:
    """Angle, coefficient, and the coefficient's own band in one bundle."""
    r = r_cosine(c)
    return CorrelationResult(theta_deg=math.degrees(math.acos(r)), r=r, cls=_band(r))
