"""Independent brute-force verification of the fit.

Deliberately avoids the projection/normal-equation route: the objective is
evaluated directly from raw data and minimized by iterated grid refinement,
so agreement with the analytic fit is a genuine cross-check rather than the
same formula computed twice.

The search grid is 21 x 21 points in (slope, height-at-mean-x) coordinates,
refined 8 times; a :class:`SearchBox` holds only the bounds it starts from.
In the raw (slope, intercept) plane the objective's level sets are extremely
elongated diagonal ellipses whenever the x column is far from zero-mean, and
naive box refinement loses the minimizer; shifting the intercept axis to the
line's height at mean(x) makes the axes independent so the grid converges.
The minimum is still located purely by evaluating the objective.

Each refinement round screens its grid in closed form.  For one slope a the
objective is a quadratic in the height c: with d = (y - a*(x - mean x)) - m
for a fixed shift m, sum (d - e)^2 = S2 - 2*e*S1 + n*e^2 where e = c - m,
S1 = sum d and S2 = sum d^2 (the shifted-data identity of Chan, Golub &
LeVeque, 1983).  So two sums per slope, taken over a bounded work buffer,
price all heights at once.  Every grid point whose value could, within a
rigorous rounding bound, be the smallest is re-ranked with exactly rounded
``fsum`` evaluations, so the chosen point is the one an all-``fsum`` scan
would choose.  The parabola polish is evaluated with ``fsum`` on the raw
data, its squares taken by ``np.float_power``, which calls the same C
library ``pow`` as Python's ``**``.  Every exact evaluation, re-ranking or
polish, runs in one work buffer allocated once per search, and ``fsum``
reads it through a ``memoryview``, with no list built.  Data whose squared
deviations overflow float64 raise :class:`ObjectiveOverflow`.
"""

from __future__ import annotations

from math import fsum, inf

from .cloud import Frozen, PointCloud, finite, finite_fsum
from .errors import BoxTooSmall, ObjectiveOverflow

__all__ = ["SearchBox", "sse_of", "grid_search_fit", "default_box"]

_GRID_STEPS = 21  # grid points per axis in each round
_REFINEMENT_ROUNDS = 8
_SHRINK = 0.25  # box half-width factor per refinement round
_BLOCK_ELEMENTS = 65_536  # element budget of the grid's work buffer
_UNIT_ROUNDOFF = 2.0**-53
_OBJECTIVE = "the sum of squared deviations"


class SearchBox(Frozen):
    """Bounds in the (slope a, intercept b) plane; the grid size and round count are fixed."""

    _fields = ("a_min", "a_max", "b_min", "b_max")

    def __init__(self, a_min: float, a_max: float, b_min: float, b_max: float):
        if not (a_min < a_max and b_min < b_max):
            raise ValueError("box bounds must satisfy min < max on both axes")
        self._set(a_min, a_max, b_min, b_max)


def default_box(a_seed: float, b_seed: float) -> SearchBox:
    """Box of +/-50% (at least +/-1) around a seed point."""
    half_a = max(1.0, 0.5 * abs(a_seed))
    half_b = max(1.0, 0.5 * abs(b_seed))
    return SearchBox(a_seed - half_a, a_seed + half_a, b_seed - half_b, b_seed + half_b)


def sse_of(cloud: PointCloud, a: float, b: float) -> float:
    """Sum of squared deviations from the line y = a*x + b, from raw data."""
    return finite_fsum(((y - a * x - b) ** 2 for x, y in zip(*cloud.as_lists())), _OBJECTIVE)


def _parabola_vertex(f, x0: float, h: float) -> float:
    """Vertex of the parabola through (x0-h, x0, x0+h); exact for quadratics."""
    s_minus, s_zero, s_plus = f(x0 - h), f(x0), f(x0 + h)
    denom = s_minus - 2.0 * s_zero + s_plus
    if denom <= 0.0:
        return x0
    return x0 + 0.5 * h * (s_minus - s_plus) / denom


def grid_search_fit(cloud: PointCloud, box: SearchBox) -> tuple[float, float]:
    """Minimize the squared-deviation objective by iterated grid refinement.

    Ties break toward the lowest slope, then the lowest height, so the result
    is deterministic.  Raises :class:`BoxTooSmall` when the located minimum
    lands outside the box (or hugs its boundary), which means the box did not
    contain the optimum, and :class:`ObjectiveOverflow` when the objective at
    the best grid point or at a polish point is not finite.
    """
    import numpy as np  # here, so that importing geomfit does not load numpy

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by finite
        n = len(cloud)
        try:
            x_bar = fsum(cloud.xs) / n
        except OverflowError:  # fsum's intermediate overflow
            raise ObjectiveOverflow("the sum of x overflows float64") from None
        ys = np.array(cloud.ys, dtype=float)
        dx = np.array(cloud.xs, dtype=float) - x_bar
        res = np.empty(n)  # the objective's work buffer

        def objective(a: float, c: float) -> float:
            # Line through (x_bar, c) with slope a, evaluated on raw data.  The
            # residuals are bit-identical to scalar arithmetic, and
            # ``np.float_power`` squares them with the C library's ``pow``, as
            # Python's ``**`` does (``np.square`` rounds x*x, which differs).
            np.multiply(dx, a, out=res)
            np.subtract(ys, res, out=res)
            np.subtract(res, c, out=res)
            np.float_power(res, 2.0, out=res)
            try:
                value = fsum(memoryview(res))
            except OverflowError:  # fsum's intermediate sum overflowed
                value = inf
            return finite(value, _OBJECTIVE)

        steps = _GRID_STEPS
        a_lo, a_hi = box.a_min, box.a_max
        # Height-at-mean-x range covering every (a, b) in the box.
        corners = [
            b + a * x_bar
            for a in (box.a_min, box.a_max)
            for b in (box.b_min, box.b_max)
        ]
        c_lo, c_hi = min(corners), max(corners)
        if c_hi == c_lo:
            c_lo, c_hi = c_lo - 1.0, c_hi + 1.0

        chunk = min(n, max(1, _BLOCK_ELEMENTS // steps))
        # Rounding bound of the screen (Higham, Accuracy and Stability of
        # Numerical Algorithms, ch. 3-4, g(k) = k*u/(1 - k*u)).  A row sum adds
        # 128-wide sub-blocks, then their sums, then the chunk sums, so a term
        # passes through at most `depth` roundings.  Over the objective's rows
        # r, with A = sum (r - m)^2, B = sum (r - m) and e = c - m exact:
        # |S2 - A| <= g(depth+3)*A, |S1 - B| <= g(depth+1)*sqrt(n*A), and
        # 2|e|*sqrt(n*A) <= A + n*e^2 (AM-GM).  The objective's pow squares and
        # fsum add at most about 6u*Q, so `w` bounds |q - objective|; the
        # n*2^-1020 term covers products that underflow.
        depth = min(chunk, 128) - 1 + (-(-chunk // 128) - 1) + -(-n // chunk)
        spread = 2.0 * (depth + 16) * _UNIT_ROUNDOFF
        m = float(np.sum(ys / n))  # the mean, without overflow; any m keeps q exact
        block = np.empty((steps, chunk))
        starts = np.arange(0, chunk, 128)
        part = np.empty((steps, len(starts)))  # sub-block sums of one chunk

        best_a = best_c = None
        for _ in range(_REFINEMENT_ROUNDS):
            da = (a_hi - a_lo) / (steps - 1)
            dc = (c_hi - c_lo) / (steps - 1)
            a_grid = [a_lo + ia * da for ia in range(steps)]
            c_grid = [c_lo + ic * dc for ic in range(steps)]
            slopes = np.array(a_grid)[:, None]
            s1, s2 = np.zeros((steps, 1)), np.zeros((steps, 1))
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                subs = -(-(hi - lo) // 128)
                d, at, sub = block[:, : hi - lo], starts[:subs], part[:, :subs]
                np.multiply(slopes, dx[lo:hi], out=d)  # rounded as the objective's rows
                np.subtract(ys[lo:hi], d, out=d)
                np.subtract(d, m, out=d)
                s1 += np.add.reduceat(d, at, axis=1, out=sub).sum(axis=1, keepdims=True)
                np.square(d, out=d)
                s2 += np.add.reduceat(d, at, axis=1, out=sub).sum(axis=1, keepdims=True)
            e = np.array(c_grid) - m
            e_s1, n_e2 = s1 * e, n * e * e  # [slope index, height index]
            q = (s2 - 2.0 * e_s1 + n_e2).ravel()
            w = (spread * (s2 + np.abs(e_s1) + n_e2 + n * 2.0**-1020)).ravel()
            ok = np.isfinite(q) & np.isfinite(w)  # a non-finite value counts as +inf
            upper = np.where(ok, q + w, inf)
            k = int(np.argmin(upper))
            finite(float(upper[k]), _OBJECTIVE)
            # Every point whose objective may be the smallest, in slope-major,
            # height-minor order; the first exact minimum among them breaks
            # ties toward the lowest slope, then the lowest height.
            candidates = np.flatnonzero(np.where(ok, q - w, inf) <= upper[k]).tolist()
            if len(candidates) > 1:
                k = min(candidates, key=lambda j: objective(a_grid[j // steps], c_grid[j % steps]))
            best_a, best_c = a_grid[k // steps], c_grid[k % steps]
            half_a = _SHRINK * (a_hi - a_lo) / 2
            half_c = _SHRINK * (c_hi - c_lo) / 2
            a_lo, a_hi = best_a - half_a, best_a + half_a
            c_lo, c_hi = best_c - half_c, best_c + half_c

        # Quadratic-vertex polish.  Near the minimum the objective differences
        # fall below the rounding noise of a single evaluation, so cell
        # refinement alone cannot localize the optimum to 1e-6; a three-point
        # parabola at a spacing where the signal dominates the noise can, and is
        # exact for this quadratic objective.
        for _ in range(2):
            h_a = max((a_hi - a_lo), 1e-4 * (1.0 + abs(best_a)))
            best_a = _parabola_vertex(lambda a: objective(a, best_c), best_a, h_a)
            h_c = max((c_hi - c_lo), 1e-4 * (1.0 + abs(best_c)))
            best_c = _parabola_vertex(lambda c: objective(best_a, c), best_c, h_c)

        best_b = best_c - best_a * x_bar
        margin_a = (box.a_max - box.a_min) / (steps - 1)
        margin_b = (box.b_max - box.b_min) / (steps - 1)
        if not (box.a_min + margin_a <= best_a <= box.a_max - margin_a):
            raise BoxTooSmall(f"minimum at a={best_a} is outside or hugging the slope bounds")
        if not (box.b_min + margin_b <= best_b <= box.b_max - margin_b):
            raise BoxTooSmall(f"minimum at b={best_b} is outside or hugging the intercept bounds")
        return best_a, best_b
