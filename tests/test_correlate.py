import math
import random
import re
from fractions import Fraction

import pytest

from geomfit.cloud import CenteredCloud, PointCloud, center
from geomfit.correlate import (
    CorrelationClass,
    _band,
    correlate,
    r_cosine,
    r_textbook,
    theta,
)
from geomfit.errors import DegenerateX, DegenerateY, ObjectiveOverflow
from geomfit.regress import fit

from conftest import EX1, EX2, random_cloud


class TestTheta:
    def test_example1(self, ex1_cloud):
        assert theta(center(ex1_cloud)) == pytest.approx(EX1["theta_deg"], abs=0.01)

    def test_example2(self, ex2_cloud):
        # EX2 theta is frozen from the anchored quotient 261980/262579.265
        # (about 3.87 degrees); see the example-2 note in README.md on the
        # published, rounded 3.62.
        assert theta(center(ex2_cloud)) == pytest.approx(EX2["theta_deg"], abs=0.01)

    def test_identical_columns_give_zero_angle(self):
        # cosine lands within a few ulps of 1, so the angle within ~1e-6 deg
        cloud = PointCloud.from_columns([0, 1, 2], [0, 1, 2])
        assert theta(center(cloud)) == pytest.approx(0.0, abs=1e-5)

    def test_degenerate_x(self):
        # fit's rule: the 0.1s center to -1.4e-17 each, not 0, and fit refuses them too.
        for xs, ys in (([3, 3], [1, 2]), ([0.1] * 3, [1, 2, 3])):
            c = center(PointCloud.from_columns(xs, ys))
            for fn in (theta, r_cosine, correlate):
                with pytest.raises(DegenerateX):
                    fn(c)

    def test_degenerate_y(self):
        with pytest.raises(DegenerateY):
            theta(center(PointCloud.from_columns([1, 2], [5, 5])))

    def test_range(self):
        rng = random.Random(201)
        for _ in range(50):
            t = theta(center(random_cloud(rng)))
            assert 0.0 <= t <= 180.0


class TestRCosine:
    def test_example1(self, ex1_cloud):
        assert r_cosine(center(ex1_cloud)) == pytest.approx(EX1["r"], abs=1e-3)

    def test_example2(self, ex2_cloud):
        assert r_cosine(center(ex2_cloud)) == pytest.approx(EX2["r"], abs=1e-8)

    def test_exact_positive_line(self):
        cloud = PointCloud.from_columns([0, 1, 2], [1, 3, 5])
        assert r_cosine(center(cloud)) == pytest.approx(1.0, abs=4e-16)

    def test_clamped_to_unit_interval(self):
        rng = random.Random(202)
        for _ in range(100):
            r = r_cosine(center(random_cloud(rng)))
            assert -1.0 <= r <= 1.0


class TestRTextbook:
    def test_matches_cosine_on_example1(self, ex1_cloud):
        assert r_textbook(ex1_cloud) == pytest.approx(
            r_cosine(center(ex1_cloud)), abs=1e-9
        )

    def test_example2(self, ex2_cloud):
        assert r_textbook(ex2_cloud) == pytest.approx(EX2["r"], abs=1e-8)

    def test_two_point_diagonal(self):
        assert r_textbook(PointCloud.from_columns([0, 1], [0, 1])) == 1.0

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            r_textbook(PointCloud.from_columns([2, 2], [1, 3]))

    def test_one_point(self):
        with pytest.raises(DegenerateX, match="at least 2 points"):
            r_textbook(PointCloud.from_columns([1.0], [2.0]))

    def test_degenerate_y(self):
        with pytest.raises(DegenerateY):
            r_textbook(PointCloud.from_columns([1, 3], [2, 2]))

    @pytest.mark.parametrize("xs, ys, what", [
        ([1, 2, 3, 4], [1e200, 2e200, 3.5e200, 3.9e200], "the sum of squared y"),
        ([1, 2, 3, 4], [-1e200, 5e199, -3e200, 0], "the sum of squared y"),
        ([1, 2, 3, 4], [1e308, 1e308, 1, 2], "the sum of y"),
        ([1e100, 2e100, 3e100, 4e100], [1e100, 2e100, 3.1e100, 4e100],
         "the product of the x and y variances"),
    ])
    def test_overflow_raises(self, xs, ys, what):
        # Not r = 1.0 or 0.0 from an inf or a nan, nor fsum's own OverflowError.
        with pytest.raises(ObjectiveOverflow, match=re.escape(f"{what} overflows float64")):
            r_textbook(PointCloud.from_columns(xs, ys))

    def test_squared_sum_of_y_overflowing_is_not_a_constant_y(self):
        # (sum y)^2 overflows although sum y and sum y^2 do not: squaring
        # first made var_y = -inf, a false DegenerateY.
        rng = random.Random(1)
        xs = [float(x) for x in range(1, 1001)]
        ys = [1e152 * (1 + x / 1000 + 0.05 * rng.random()) for x in xs]
        with pytest.raises(ObjectiveOverflow, match="the product of the x and y variances"):
            r_textbook(PointCloud.from_columns(xs, ys))

    @pytest.mark.filterwarnings("error")
    def test_float64_array_cloud_reads_as_its_lists(self, ex1_cloud):
        # numpy scalars would warn where a product overflows, not raise ObjectiveOverflow.
        np = pytest.importorskip("numpy")
        arrays = PointCloud(np.array(ex1_cloud.xs), np.array(ex1_cloud.ys))
        assert r_textbook(arrays).hex() == r_textbook(ex1_cloud).hex()
        xs, ys = [1.0, 2.0, 3.0, 4.0], [1e200, 2e200, 3.5e200, 3.9e200]
        with pytest.raises(ObjectiveOverflow, match="the sum of squared y overflows float64"):
            r_textbook(PointCloud(np.array(xs), np.array(ys)))


def _classify(theta_deg: float) -> CorrelationClass:
    """The band of the r whose angle is ``theta_deg``."""
    return _band(math.cos(math.radians(theta_deg)))


class TestClassify:
    @pytest.mark.parametrize(
        "angle,expected",
        [
            (0.0, CorrelationClass.TOTAL_POSITIVE),
            (90.0, CorrelationClass.NULL),
            (180.0, CorrelationClass.TOTAL_NEGATIVE),
            (160.68, CorrelationClass.STRONG_NEGATIVE),
            (30.0, CorrelationClass.STRONG_POSITIVE),
            (60.0, CorrelationClass.WEAK_POSITIVE),
            (120.0, CorrelationClass.WEAK_NEGATIVE),
        ],
    )
    def test_bands(self, angle, expected):
        assert _classify(angle) is expected

    def test_null_band_matches_tolerance(self):
        # |r| right at the null cutoff
        just_null = math.degrees(math.acos(0.005))
        just_weak = math.degrees(math.acos(0.006))
        assert _classify(just_null) in (CorrelationClass.NULL, CorrelationClass.WEAK_POSITIVE)
        assert _classify(just_weak) is CorrelationClass.WEAK_POSITIVE

    def test_total_band_cutoff(self):
        assert _classify(math.degrees(math.acos(0.9995))) is CorrelationClass.TOTAL_POSITIVE
        assert _classify(math.degrees(math.acos(0.998))) is CorrelationClass.STRONG_POSITIVE


class TestCorrelate:
    def test_bundle_consistency_example1(self, ex1_cloud):
        res = correlate(center(ex1_cloud))
        assert abs(res.r - math.cos(math.radians(res.theta_deg))) <= 1e-12
        assert res.cls is CorrelationClass.STRONG_NEGATIVE

    def test_r_equals_cos_theta_random(self):
        rng = random.Random(203)
        for _ in range(100):
            res = correlate(center(random_cloud(rng)))
            assert abs(res.r - math.cos(math.radians(res.theta_deg))) <= 1e-12


def _cloud_with_r(r: float) -> CenteredCloud:
    """A centered cloud with Sxx = Syy = 1 exactly, so that its r is Sxy = r."""
    # u = (r, s, e): s leaves a deficit 1 - r*r - s*s >= 0 (the rounded
    # products fsum adds), and e*e makes it up to far below half an ulp of 1.
    s = math.sqrt(1.0 - r * r)
    while Fraction(r * r) + Fraction(s * s) > 1:
        s = math.nextafter(s, 0.0)
    e = math.sqrt(1 - Fraction(r * r) - Fraction(s * s))
    c = CenteredCloud(0.0, 0.0, [1.0, 0.0, 0.0], [r, s, e])
    assert (c.sxx, c.syy, c.sxy) == (1.0, 1.0, r)
    return c


_C = CorrelationClass
# Each band cutoff on |r|, with the classes of the double below it, of the
# cutoff itself and of the double above it, for r > 0 and for r < 0.
_CUTOFF_CASES = [
    (sign * r, cls)
    for sign, weak, strong, total in ((1.0, _C.WEAK_POSITIVE, _C.STRONG_POSITIVE, _C.TOTAL_POSITIVE),
                                      (-1.0, _C.WEAK_NEGATIVE, _C.STRONG_NEGATIVE, _C.TOTAL_NEGATIVE))
    for cutoff, classes in ((0.005, (_C.NULL, _C.NULL, weak)),
                            (0.8, (weak, strong, strong)),
                            (0.999, (strong, total, total)))
    for r, cls in zip((math.nextafter(cutoff, 0.0), cutoff, math.nextafter(cutoff, 1.0)), classes)
]


class TestCorrelateAtCutoffs:
    """The class is the band of the reported r, not of r sent through the angle."""

    @pytest.mark.parametrize("r, expected", _CUTOFF_CASES, ids=[repr(r) for r, _ in _CUTOFF_CASES])
    def test_class_agrees_with_r(self, r, expected):
        res = correlate(_cloud_with_r(r))
        assert res.r == r
        assert res.cls is expected

    def test_doubles_just_past_the_null_cutoff_are_weak(self):
        r = 0.005
        for _ in range(200):
            r = math.nextafter(r, 1.0)
            assert correlate(_cloud_with_r(r)).cls is CorrelationClass.WEAK_POSITIVE, r


class TestEquivalenceAndInvariance:
    def test_textbook_equals_cosine_random(self):
        rng = random.Random(204)
        for _ in range(200):
            cloud = random_cloud(rng)
            assert abs(r_textbook(cloud) - r_cosine(center(cloud))) <= 1e-9

    def test_sign_coupling_with_slope(self):
        rng = random.Random(205)
        for _ in range(50):
            cloud = random_cloud(rng)
            r = r_cosine(center(cloud))
            slope = fit(cloud).slope
            if r != 0.0 and slope != 0.0:
                assert (r > 0) == (slope > 0)

    def test_monotone_transform_invariance(self):
        rng = random.Random(206)
        for _ in range(25):
            cloud = random_cloud(rng)
            r0 = r_cosine(center(cloud))
            p = rng.uniform(0.1, 10.0)
            s = rng.uniform(0.1, 10.0)
            q = rng.uniform(-100.0, 100.0)
            t = rng.uniform(-100.0, 100.0)
            moved = PointCloud.from_columns(
                [p * x + q for x in cloud.xs], [s * y + t for y in cloud.ys]
            )
            assert r_cosine(center(moved)) == pytest.approx(r0, abs=1e-9)
            flipped = PointCloud.from_columns(
                [-p * x + q for x in cloud.xs], [s * y + t for y in cloud.ys]
            )
            assert r_cosine(center(flipped)) == pytest.approx(-r0, abs=1e-9)
