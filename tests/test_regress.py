import math
import random
import sys
from fractions import Fraction

import pytest

from geomfit.cloud import PointCloud, center
from geomfit.errors import DegenerateX, TooFewPoints
from geomfit.regress import _degenerate_x, fit, predict
from geomfit.vectors import dot, norm

from conftest import EX1, EX2, exact_line, random_cloud


class TestSlope:
    def test_example1(self, ex1_cloud):
        assert fit(ex1_cloud).slope == pytest.approx(EX1["a"], abs=1e-3)

    def test_example2(self, ex2_cloud):
        assert fit(ex2_cloud).slope == pytest.approx(EX2["a"], abs=0.01)

    def test_exact_line(self):
        cloud = PointCloud.from_columns([0, 1, 2], [1, 3, 5])
        assert fit(cloud).slope == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_x(self):
        cloud = PointCloud.from_columns([4.0, 4.0, 4.0], [1, 2, 3])
        with pytest.raises(DegenerateX):
            fit(cloud)


def _generator_degenerate_x(c) -> bool:
    # The threshold test as first written: a scan of every |x_bar + i|.
    max_x = max(abs(c.centroid_x + xi) for xi in c.i_vec)
    return c.sxx <= len(c) * sys.float_info.epsilon * max(1.0, max_x * max_x)


class TestDegenerateXThreshold:
    @pytest.mark.parametrize("offset", [-1e8, -2.5, 2.5, 1e8])
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_matches_generator_scan(self, offset, n):
        # Spread t*(0, ..., 1) around the offset, so the largest |x| is the
        # smallest x for a negative offset and the largest x for a positive
        # one.  Bisect t to where the threshold flips, then scan t in steps
        # of 2^-30 across it: |x| at the two ends differs by about 1e-8
        # relative there, so taking the wrong end flips the answer.
        rng = random.Random(409)
        shape = [0.0, 1.0] + [rng.random() for _ in range(n - 2)]

        def cloud(t):
            return center(PointCloud.from_columns([offset + t * u for u in shape], [0.0] * n))

        lo, hi = 0.0, abs(offset)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _generator_degenerate_x(cloud(mid)) else (lo, mid)
        seen = set()
        for j in range(-96, 96):
            c = cloud(hi * (1.0 + j * 2.0**-30))
            assert _degenerate_x(c) == _generator_degenerate_x(c), (offset, n, j)
            seen.add(_degenerate_x(c))
        assert seen == {False, True}


_SQRT_MAX = math.sqrt(sys.float_info.max)  # about 1.3408e154: max_x**2 overflows above it


def _exact_cutoff(c) -> Fraction:
    # n*eps*max(1, max_x**2) in rationals, on max_x as the code computes it.
    max_x = Fraction(max(abs(c.centroid_x + xi) for xi in c.i_vec))
    return len(c) * Fraction(sys.float_info.epsilon) * max(1, max_x * max_x)


class TestDegenerateXAcrossOverflow:
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_exact_rule(self, side, sign, n):
        # The largest |x| lies 2^-20 relative below or above sqrt(float max).
        # Bisect the spread t to where the exact rule Sxx <= cutoff flips, then
        # scan t in steps of 2^-30 across it, a fraction of an ulp of x
        # there.  Below the boundary the float test must agree everywhere;
        # above it, where Sxx / max_x is compared instead, everywhere but
        # within 2 ulps of Sxx from the exact cutoff.
        offset = sign * _SQRT_MAX * (1.0 + side * 2.0**-20)
        rng = random.Random(2020 + n)
        shape = [0.0, 1.0] + [rng.random() for _ in range(n - 2)]

        def cloud(t):
            return center(PointCloud.from_columns([offset + t * u for u in shape], [0.0] * n))

        lo, hi = 0.0, abs(offset) * 2.0**-10
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            c = cloud(mid)
            lo, hi = (mid, hi) if Fraction(c.sxx) <= _exact_cutoff(c) else (lo, mid)
        seen = set()
        for j in range(-96, 96):
            c = cloud(hi * (1.0 + j * 2.0**-30))
            sxx, cutoff = Fraction(c.sxx), _exact_cutoff(c)
            assert (cutoff > n * Fraction(sys.float_info.epsilon * sys.float_info.max)) == (side == 1)
            if side == 1 and abs(sxx - cutoff) <= 2 * Fraction(math.ulp(c.sxx)):
                continue
            assert _degenerate_x(c) == (sxx <= cutoff), (offset, n, j)
            seen.add(_degenerate_x(c))
        assert seen == {False, True}


class TestFit:
    def test_example1(self, ex1_cloud):
        f = fit(ex1_cloud)
        assert f.slope == pytest.approx(EX1["a"], abs=1e-3)
        assert f.intercept == pytest.approx(EX1["b"], abs=0.05)

    def test_example2(self, ex2_cloud):
        f = fit(ex2_cloud)
        assert f.slope == pytest.approx(EX2["a"], abs=0.01)
        assert f.intercept == pytest.approx(EX2["b"], abs=0.5)

    def test_two_point_line_is_exact(self):
        f = fit(PointCloud([0, 2], [1, 5]))
        assert f.slope == 2.0
        assert f.intercept == 1.0
        assert all(abs(v) <= 1e-12 for v in f.residual)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit(PointCloud([1], [2]))

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            fit(PointCloud.from_columns([7.0, 7.0], [0.0, 1.0]))

    def test_distinct_x_whose_square_overflows(self):
        # max_x**2 is inf above about 1.34e154; Sxx = 5e297 and the slope are finite.
        cloud = PointCloud.from_columns([1e155, 1.000001e155], [1.0, 2.0])
        f = fit(cloud)
        slope, _, _ = exact_line(cloud)
        assert f.slope == float(slope) == 1.0000000000546436e-149
        assert f.intercept == -999999.0000546436

    @pytest.mark.filterwarnings("error")
    def test_float64_arrays_whose_square_overflows_fit_unwarned(self):
        np = pytest.importorskip("numpy")
        f = fit(PointCloud(np.array([1e155, 1.000001e155]), np.array([1.0, 2.0])))
        assert (f.slope, f.intercept) == (1.0000000000546436e-149, -999999.0000546436)

    def test_j_vec_is_scaled_i_vec(self, ex1_cloud):
        # The fitted centered responses j = u - residual are slope * i.
        f = fit(ex1_cloud)
        for r, u, i in zip(f.residual, f.centered.u_vec, f.centered.i_vec):
            assert u - r == pytest.approx(f.slope * i, rel=1e-12, abs=1e-15)


class TestPredict:
    def test_centroid_on_line_example1(self, ex1_cloud):
        f = fit(ex1_cloud)
        assert predict(f, 16.6417) == pytest.approx(64.9167, abs=0.01)

    def test_exact_line(self):
        f = fit(PointCloud.from_columns([0, 1, 2], [1, 3, 5]))
        assert predict(f, 3) == pytest.approx(7.0, abs=1e-12)

    def test_example2_extrapolation(self, ex2_cloud):
        f = fit(ex2_cloud)
        assert predict(f, 90) == pytest.approx(32268.4, abs=2.0)


class TestFitProperties:
    def test_normal_equation_random_suite(self):
        rng = random.Random(101)
        for _ in range(50):
            cloud = random_cloud(rng)
            f = fit(cloud)
            res = [u - f.slope * i for u, i in zip(f.centered.u_vec, f.centered.i_vec)]
            assert list(res) == f.residual
            bound = 1e-9 * norm(f.centered.u_vec) * norm(f.centered.i_vec)
            assert abs(dot(res, f.centered.i_vec)) <= max(bound, 1e-12)

    def test_centroid_on_line_random_suite(self):
        rng = random.Random(102)
        for _ in range(50):
            cloud = random_cloud(rng)
            f = fit(cloud)
            y_bar = f.centered.centroid_y
            assert predict(f, f.centered.centroid_x) == pytest.approx(
                y_bar, rel=1e-9, abs=1e-9
            )

    def test_translation_invariance(self):
        rng = random.Random(103)
        for _ in range(25):
            cloud = random_cloud(rng)
            f = fit(cloud)
            dx = rng.uniform(-1e3, 1e3)
            dy = rng.uniform(-1e3, 1e3)
            shifted = PointCloud.from_columns(
                [x + dx for x in cloud.xs], [y + dy for y in cloud.ys]
            )
            g = fit(shifted)
            assert g.slope == pytest.approx(f.slope, rel=1e-9)
            expected_b = (f.centered.centroid_y + dy) - f.slope * (f.centered.centroid_x + dx)
            assert g.intercept == pytest.approx(expected_b, rel=1e-9, abs=1e-6)

    def test_response_scale_equivariance(self):
        rng = random.Random(104)
        for _ in range(25):
            cloud = random_cloud(rng)
            f = fit(cloud)
            c = rng.choice([-3.0, -0.5, 0.25, 2.0, 17.5])
            scaled = PointCloud.from_columns(
                list(cloud.xs), [c * y for y in cloud.ys]
            )
            g = fit(scaled)
            assert g.slope == pytest.approx(c * f.slope, rel=1e-9, abs=1e-12)
            assert g.intercept == pytest.approx(c * f.intercept, rel=1e-9, abs=1e-9)

    def test_duplicate_points_allowed(self):
        f = fit(PointCloud([0, 0, 1], [0, 0, 1]))
        # duplicated origin pulls the line toward it
        assert f.slope == pytest.approx(1.0, abs=1e-12)


class TestInterceptAccuracy:
    """b = y_bar - a*x_bar is accurate relative to |b*| + |a* x_bar|, not |b*|.

    Write b*, a* and x_bar* for the exact least-squares values.  The fit takes
    six roundings, each a relative error of at most u = 2^-53: two for y_bar
    (the correctly rounded fsum, then the division by n), two for x_bar, one
    for a*x_bar and one for the subtraction.  With y_bar* = b* + a* x_bar*,
    to first order in u they contribute
      y_bar, 2 roundings:  2u|y_bar*| <= 2u(|b*| + |a* x_bar*|)
      x_bar, 2 roundings:  2u|a* x_bar*|
      a*x_bar, 1 rounding: u|a* x_bar*|
      subtraction, 1:      u|b*|
    on top of |a - a*| |x_bar*|, the slope's own error carried by x_bar.  The
    sum, 3u|b*| + 5u|a* x_bar*|, is within k = 6 times u(|b*| + |a* x_bar*|),
    and the slack of u|a* x_bar*| covers the second-order terms (u times the
    slope's relative error, and u^2).
    """

    K = 6

    @staticmethod
    def _offset_cloud(rng: random.Random, offset: float) -> PointCloud:
        n = rng.randint(2, 60)
        xs = [offset + rng.uniform(0.0, 100.0) for _ in range(n)]
        a, b = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
        return PointCloud.from_columns(xs, [a * x + b + rng.gauss(0.0, 0.5 * abs(a)) for x in xs])

    @pytest.mark.parametrize("offset", [None, 1e8], ids=["plain", "offset-1e8"])
    def test_bound(self, offset):
        rng = random.Random(105)
        u = Fraction(2) ** -53
        for _ in range(100):
            cloud = random_cloud(rng) if offset is None else self._offset_cloud(rng, offset)
            f = fit(cloud)
            a_star, b_star, x_bar = exact_line(cloud)
            error = abs(f.intercept - b_star)
            bound = abs(f.slope - a_star) * abs(x_bar) + self.K * u * (
                abs(b_star) + abs(a_star * x_bar))
            assert error <= bound, (error / bound, cloud)
