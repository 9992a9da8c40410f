"""Residual diagnostics and orthogonality checks for a fitted line.

The residual u - slope*i (of the columns' kind, cached on the fit with its
sum of squares) is the difference between observed and fitted centered responses.
A correct fit makes it orthogonal to the centered predictor i, and centering
makes both centered columns orthogonal to the all-ones vector, whose dot
products are the columns' sums and whose norm is sqrt(n).  This module
reports those products raw and normalized, by the norms from the centered
cloud's cached sums, so the checks are scale-free.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .cloud import finite_fsum, products
from .regress import FitResult

__all__ = ["DiagnosticsReport", "residuals", "sse", "orthogonality_report"]


# The *_normalized fields are the same dot products made scale-free (0.0 when a
# norm vanishes).  The residual product is divided by ||u||*||i||, the data scale,
# not by the residual norm: an exactly interpolated cloud leaves a pure-roundoff
# residual whose own norm would make the quotient meaningless.
DiagnosticsReport = namedtuple("DiagnosticsReport", "residual sse residual_dot_i ones_dot_i "
                               "ones_dot_u residual_dot_i_normalized ones_dot_i_normalized "
                               "ones_dot_u_normalized")


def residuals(fit_result: FitResult) -> Sequence[float]:
    """Residual vector: observed minus fitted centered responses."""
    return fit_result.residual


def sse(fit_result: FitResult) -> float:
    """Sum of squared residuals."""
    return fit_result.sse


def _normalized(product: float, norm_a: float, norm_b: float) -> float:
    denom = norm_a * norm_b
    return product / denom if denom > 0.0 else 0.0


def orthogonality_report(fit_result: FitResult) -> DiagnosticsReport:
    """Residual norm plus the three orthogonality dot products."""
    c = fit_result.centered
    res = fit_result.residual
    r_dot_i = finite_fsum(products(res, c.i_vec), "the residual-x product")
    w_dot_i = finite_fsum(c.i_vec, "the sum of x deviations")
    w_dot_u = finite_fsum(c.u_vec, "the sum of y deviations")
    sqrt_n = math.sqrt(len(c))
    norm_i, norm_u = math.sqrt(c.sxx), math.sqrt(c.syy)
    return DiagnosticsReport(
        residual=res,
        sse=fit_result.sse,
        residual_dot_i=r_dot_i,
        ones_dot_i=w_dot_i,
        ones_dot_u=w_dot_u,
        residual_dot_i_normalized=_normalized(r_dot_i, norm_u, norm_i),
        ones_dot_i_normalized=_normalized(w_dot_i, sqrt_n, norm_i),
        ones_dot_u_normalized=_normalized(w_dot_u, sqrt_n, norm_u),
    )
