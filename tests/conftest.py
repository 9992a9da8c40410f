import math
import random
from fractions import Fraction

import pytest

from geomfit.cloud import PointCloud
from geomfit.dataio import load_example

# Golden values for the bundled demo datasets.  The derived entries were
# frozen from independent recomputation (compensated sums over the raw data
# tables); tolerances live with the asserts.
EX1 = {
    "centroid": (16.6417, 64.9167),
    "ui": -1895.4583,
    "ii": 195.2692,
    "norm_u": 143.7391,
    "norm_i": 13.9739,
    "a": -9.7069,
    "b": 226.4557,
    "theta_deg": 160.68,
    # quotient of the three anchored values above
    "r": -1895.4583 / (143.7391 * 13.9739),
}

EX2 = {
    "centroid": (78.5, 29648.583),
    "ui": 261980.0,
    "ii": 1150.0,
    "a": 227.809,
    "b": 11765.601,
    # arccos of the anchored quotient 261980 / 262579.265
    "theta_deg": math.degrees(math.acos(261980.0 / 262579.265)),
    "theta_deg_published": 3.62,  # acos(0.998): cosine rounded before arccos
    # the anchored quotient; within 7.2e-10 of the exact r 0.99771777558...
    "r": 261980.0 / 262579.265,
}


def exact_line(cloud: PointCloud) -> tuple[Fraction, Fraction, Fraction]:
    """Least-squares slope, intercept and mean x, exact as rationals."""
    xs, ys = [Fraction(x) for x in cloud.xs], [Fraction(y) for y in cloud.ys]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    slope = sxy / sum((x - x_bar) ** 2 for x in xs)
    return slope, y_bar - slope * x_bar, x_bar


def exact_fit(cloud: PointCloud) -> tuple[float, float]:
    """Least-squares slope and intercept in exact rational arithmetic, rounded."""
    slope, intercept, _ = exact_line(cloud)
    return float(slope), float(intercept)


# example 1's slope and intercept, (-9.706900304280843, 226.4556658970737)
EX1_EXACT = exact_fit(load_example("example1_amarante.csv"))


@pytest.fixture(scope="session")
def ex1_cloud() -> PointCloud:
    return load_example("example1_amarante.csv")


@pytest.fixture(scope="session")
def ex2_cloud() -> PointCloud:
    return load_example("example2_infections.csv")


def random_cloud(rng: random.Random, n: int | None = None) -> PointCloud:
    """Random non-degenerate cloud: x uniform in [-100, 100] with spread >= 1,
    y linear in x plus uniform noise in [-10, 10]."""
    if n is None:
        n = rng.randint(2, 30)
    while True:
        xs = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        if max(xs) - min(xs) >= 1.0:
            break
    alpha = rng.uniform(-10.0, 10.0)
    beta = rng.uniform(-10.0, 10.0)
    ys = [alpha * x + beta + rng.uniform(-10.0, 10.0) for x in xs]
    return PointCloud.from_columns(xs, ys)
