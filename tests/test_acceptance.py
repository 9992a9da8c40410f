"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.
"""

import contextlib
import json
import math
import random

import pytest

from geomfit.cli import EXIT_DATA, EXIT_OK, run
from geomfit.cloud import PointCloud, center
from geomfit.correlate import r_cosine, r_textbook, theta
from geomfit.dataio import example_csv_text
from geomfit.diagnostics import orthogonality_report, residuals
from geomfit.oracle import SearchBox, grid_search_fit, sse_of
from geomfit.regress import fit
from geomfit.vectors import dot, norm, norm_sq

from conftest import EX2, random_cloud


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:2d} ({title}): FAIL")
        raise
    print(f"CRITERION {num:2d} ({title}): PASS")


def _seeded_box(a: float, b: float) -> SearchBox:
    ha = max(1.0, 0.5 * abs(a))
    hb = max(1.0, 0.5 * abs(b))
    return SearchBox(a - 1.13 * ha, a + 0.87 * ha, b - 0.91 * hb, b + 1.09 * hb)


def test_criterion_1_example1_golden(ex1_cloud):
    with criterion(1, "example 1 golden reproduction"):
        c = center(ex1_cloud)
        assert c.centroid_x == pytest.approx(16.6417, abs=1e-4)
        assert c.centroid_y == pytest.approx(64.9167, abs=1e-4)
        assert dot(c.u_vec, c.i_vec) == pytest.approx(-1895.4583, abs=0.01)
        assert norm_sq(c.i_vec) == pytest.approx(195.2692, abs=1e-3)
        f = fit(ex1_cloud)
        assert f.slope == pytest.approx(-9.7069, abs=1e-3)
        assert f.intercept == pytest.approx(226.4557, abs=0.05)


def test_criterion_2_example1_correlation(ex1_cloud):
    with criterion(2, "example 1 correlation angle"):
        c = center(ex1_cloud)
        t = theta(c)
        assert t == pytest.approx(160.68, abs=0.01)
        assert r_cosine(c) == pytest.approx(math.cos(math.radians(t)), abs=1e-12)
        assert norm(c.u_vec) == pytest.approx(143.7391, abs=1e-3)
        assert norm(c.i_vec) == pytest.approx(13.9739, abs=1e-3)


def test_criterion_3_example2_golden(ex2_cloud):
    with criterion(3, "example 2 golden reproduction"):
        c = center(ex2_cloud)
        assert c.centroid_x == 78.5
        assert norm_sq(c.i_vec) == 1150.0
        assert dot(c.u_vec, c.i_vec) == pytest.approx(261980.0, abs=1.0)
        f = fit(ex2_cloud)
        assert f.slope == pytest.approx(227.809, abs=0.01)
        assert f.intercept == pytest.approx(11765.601, abs=0.5)
        # The dataset's true angle is arccos(261980/262579.265), about 3.87
        # degrees; the published 3.62 is the arccos of r rounded to 0.998
        # (see the example-2 note in README.md).
        assert theta(c) == pytest.approx(EX2["theta_deg"], abs=0.01)
        published = math.degrees(math.acos(round(r_cosine(c), 3)))
        assert published == pytest.approx(EX2["theta_deg_published"], abs=0.005)


def test_criterion_4_equivalence_identity():
    with criterion(4, "textbook r equals cos(theta) on 1000 clouds"):
        rng = random.Random(1004)
        for _ in range(1000):
            cloud = random_cloud(rng)
            assert abs(r_textbook(cloud) - r_cosine(center(cloud))) <= 1e-9


def test_criterion_5_oracle_optimality():
    with criterion(5, "grid-search oracle agreement on 100 clouds"):
        rng = random.Random(1005)
        for _ in range(100):
            cloud = random_cloud(rng)
            f = fit(cloud)
            a, b = grid_search_fit(cloud, _seeded_box(f.slope, f.intercept))
            assert abs(a - f.slope) <= 1e-6
            assert abs(b - f.intercept) <= 1e-6
        base_cloud = random_cloud(rng)
        f = fit(base_cloud)
        base = sse_of(base_cloud, f.slope, f.intercept)
        for _ in range(20):
            da = rng.uniform(-2.0, 2.0)
            db = rng.uniform(-20.0, 20.0)
            assert sse_of(base_cloud, f.slope + da, f.intercept + db) >= base


def test_criterion_6_orthogonality_suite():
    with criterion(6, "residual and all-ones orthogonality"):
        rng = random.Random(1006)
        for _ in range(100):
            rep = orthogonality_report(fit(random_cloud(rng)))
            assert abs(rep.residual_dot_i_normalized) <= 1e-9
            assert abs(rep.ones_dot_i_normalized) <= 1e-9
            assert abs(rep.ones_dot_u_normalized) <= 1e-9


def test_criterion_7_pythagorean_decomposition():
    with criterion(7, "Pythagorean norm decomposition"):
        rng = random.Random(1007)
        for _ in range(100):
            f = fit(random_cloud(rng))
            uu = norm_sq(f.centered.u_vec)
            jj = norm_sq([f.slope * i for i in f.centered.i_vec])
            rr = norm_sq(residuals(f))
            assert uu == pytest.approx(jj + rr, rel=1e-9)


def test_criterion_8_translation_invariance():
    with criterion(8, "slope invariant under translation"):
        rng = random.Random(1008)
        for _ in range(50):
            cloud = random_cloud(rng)
            f = fit(cloud)
            dx = rng.uniform(-1e4, 1e4)
            dy = rng.uniform(-1e4, 1e4)
            shifted = PointCloud.from_columns(
                [x + dx for x in cloud.xs], [y + dy for y in cloud.ys]
            )
            assert fit(shifted).slope == pytest.approx(f.slope, rel=1e-9)


def test_criterion_9_perfect_two_point_case():
    with criterion(9, "two distinct points correlate perfectly"):
        rng = random.Random(1009)
        for _ in range(100):
            x1 = rng.uniform(-100.0, 100.0)
            x2 = x1 + rng.uniform(1.0, 100.0) * rng.choice([-1.0, 1.0])
            y1, y2 = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
            if y1 == y2:
                continue  # degenerate-y: correlation undefined by contract
            cloud = PointCloud.from_columns([x1, x2], [y1, y2])
            f = fit(cloud)
            scale = max(1.0, abs(y1), abs(y2))
            for v in residuals(f):
                assert abs(v) <= 1e-12 * scale
            assert abs(abs(r_cosine(f.centered)) - 1.0) <= 1e-12


def test_criterion_10_cli_contract(tmp_path, capsys):
    with criterion(10, "CLI fit/plot contract"):
        ex1 = tmp_path / "example1_amarante.csv"
        ex1.write_text(example_csv_text("example1_amarante.csv"), encoding="utf-8")
        ex2 = tmp_path / "example2_infections.csv"
        ex2.write_text(example_csv_text("example2_infections.csv"), encoding="utf-8")

        assert run(["fit", "--input", str(ex1), "--format", "json"]) == EXIT_OK
        p1 = json.loads(capsys.readouterr().out)
        assert p1["centroid_x"] == pytest.approx(16.6417, abs=1e-4)
        assert p1["centroid_y"] == pytest.approx(64.9167, abs=1e-4)
        assert p1["a"] == pytest.approx(-9.7069, abs=1e-3)
        assert p1["b"] == pytest.approx(226.4557, abs=0.05)

        assert run(["fit", "--input", str(ex2), "--format", "json"]) == EXIT_OK
        p2 = json.loads(capsys.readouterr().out)
        assert p2["centroid_x"] == 78.5
        assert p2["a"] == pytest.approx(227.809, abs=0.01)
        assert p2["b"] == pytest.approx(11765.601, abs=0.5)

        degenerate = tmp_path / "constant_x.csv"
        degenerate.write_text("x,y\n4,1\n4,2\n", encoding="utf-8")
        assert run(["fit", "--input", str(degenerate)]) == EXIT_DATA
        capsys.readouterr()

        svg1 = tmp_path / "p1.svg"
        svg2 = tmp_path / "p2.svg"
        assert run(["plot", "--input", str(ex1), "--output", str(svg1)]) == EXIT_OK
        assert run(["plot", "--input", str(ex1), "--output", str(svg2)]) == EXIT_OK
        assert svg1.read_bytes() == svg2.read_bytes()
