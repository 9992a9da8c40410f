"""Least-squares line fitting by orthogonal projection.

After centering, the fitted centered responses are the projection of the
centered response vector onto the centered predictor vector, so the slope is
Sxy / Sxx (the centered cloud's cached sums) and the intercept follows from
the centroid lying on the line.  The residual u - slope*i and its sum of
squares are cached on the fit.  A slope, intercept or sum that overflows
float64 raises :class:`ObjectiveOverflow`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from functools import cached_property

from .cloud import (CenteredCloud, Frozen, PointCloud, center, extrema, finite, finite_fsum,
                    minus_scaled, products)
from .errors import DegenerateX, TooFewPoints

__all__ = ["FitResult", "fit", "predict"]

_EPS = sys.float_info.epsilon


class FitResult(Frozen):
    """Fitted line y = ``slope`` * x + ``intercept``, with the ``centered`` cloud
    retained for diagnostics."""

    _fields = ("slope", "intercept", "centered")

    def __init__(self, slope: float, intercept: float, centered: CenteredCloud):
        self._set(slope, intercept, centered)

    @cached_property
    def residual(self) -> Sequence[float]:
        """Observed minus fitted centered responses, u - slope*i, of the columns' kind."""
        return minus_scaled(self.centered.u_vec, self.slope, self.centered.i_vec)

    @cached_property
    def sse(self) -> float:
        """Sum of squared residuals."""
        return finite_fsum(products(self.residual, self.residual), "the sum of squared residuals")


def _degenerate_x(c: CenteredCloud) -> bool:
    # Treat a squared spread at roundoff scale as zero rather than dividing
    # by it and returning an enormous slope.  Rounding is monotonic, so the
    # largest |x_bar + i| sits at the smallest or the largest i.  No |i| tops
    # sqrt(Sxx), so a spread above the cutoff of |x_bar| + sqrt(Sxx), widened
    # past its roundings, is above the exact cutoff too and skips that scan.
    # Where max_x**2 overflows (max_x above about 1.34e154, so a cloud of lists), the
    # cutoff would be inf and refuse every cloud, so Sxx / max_x is compared with
    # n*eps*max_x, which stays finite and within two roundings.
    n_eps, bound = len(c) * _EPS, (abs(c.centroid_x) + math.sqrt(c.sxx)) * (1.0 + 2.0**-40)
    if c.sxx > n_eps * max(1.0, bound * bound):
        return False
    max_x = max(abs(c.centroid_x + v) for v in extrema(c.i_vec))
    if math.isinf(max_x * max_x):
        return c.sxx / max_x <= n_eps * max_x
    return c.sxx <= n_eps * max(1.0, max_x * max_x)


def fit(cloud: PointCloud) -> FitResult:
    """Center the cloud, project, and recover the intercept from the centroid."""
    if len(cloud) < 2:
        raise TooFewPoints(f"need at least 2 points, got {len(cloud)}")
    c = center(cloud)
    if _degenerate_x(c):
        raise DegenerateX("all x values coincide; slope is undefined")
    a = finite(c.sxy / c.sxx, "the slope")
    b = finite(c.centroid_y - a * c.centroid_x, "the intercept")
    return FitResult(slope=a, intercept=b, centered=c)


def predict(fit_result: FitResult, x: float) -> float:
    """Evaluate the fitted line at ``x``."""
    return fit_result.slope * x + fit_result.intercept
