import random
from math import fsum, nextafter

import pytest

import geomfit.oracle as oracle
from geomfit.cloud import PointCloud
from geomfit.correlate import correlate
from geomfit.dataio import load_example
from geomfit.errors import BoxTooSmall, ObjectiveOverflow
from geomfit.oracle import (
    _SHRINK,
    SearchBox,
    _parabola_vertex,
    default_box,
    grid_search_fit,
    sse_of,
)
from geomfit.regress import fit
from geomfit.vectors import dot

from conftest import EX1, EX1_EXACT, random_cloud

LINE_2X1 = PointCloud.from_columns([0, 1, 2], [1, 3, 5])


def skewed_box(a: float, b: float) -> SearchBox:
    """Seed box around (a, b) shifted off-center so the optimum never sits
    exactly on a grid node."""
    ha = max(1.0, 0.5 * abs(a))
    hb = max(1.0, 0.5 * abs(b))
    return SearchBox(a - 1.13 * ha, a + 0.87 * ha, b - 0.91 * hb, b + 1.09 * hb)


class TestSseOf:
    def test_exact_line_zero(self):
        assert sse_of(LINE_2X1, 2.0, 1.0) == 0.0

    def test_unit_offset(self):
        assert sse_of(LINE_2X1, 2.0, 0.0) == 3.0

    def test_matches_diagnostics_sse(self, ex1_cloud):
        from geomfit.diagnostics import sse

        f = fit(ex1_cloud)
        assert sse_of(ex1_cloud, f.slope, f.intercept) == pytest.approx(sse(f), rel=1e-9)

    def test_overflow_raises(self):
        # Not the OverflowError that ** raises on a square above float64.
        with pytest.raises(ObjectiveOverflow, match="^the sum of squared deviations overflows"):
            sse_of(PointCloud([0, 1], [0, 1]), 1e200, 0.0)


class TestSearchBox:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SearchBox(1.0, 1.0, 0.0, 1.0)


class TestParabolaVertex:
    @pytest.mark.parametrize("f", [lambda t: 5.0, lambda t: -t * t], ids=["flat", "concave"])
    def test_no_positive_curvature_keeps_the_centre(self, f):
        assert _parabola_vertex(f, 1.0, 0.5) == 1.0


class TestGridSearch:
    def test_exact_line(self):
        a, b = grid_search_fit(LINE_2X1, skewed_box(2.0, 1.0))
        assert a == pytest.approx(2.0, abs=1e-6)
        assert b == pytest.approx(1.0, abs=1e-6)

    def test_example1(self, ex1_cloud):
        a, b = grid_search_fit(ex1_cloud, skewed_box(EX1["a"], EX1["b"]))
        assert a == pytest.approx(EX1_EXACT[0], rel=1e-12)
        assert b == pytest.approx(EX1_EXACT[1], rel=1e-12)

    def test_agrees_with_projection_fit(self):
        rng = random.Random(401)
        for _ in range(10):
            cloud = random_cloud(rng, n=10)
            f = fit(cloud)
            a, b = grid_search_fit(cloud, skewed_box(f.slope, f.intercept))
            assert a == pytest.approx(f.slope, abs=1e-6)
            assert b == pytest.approx(f.intercept, abs=1e-6)

    def test_box_excluding_optimum(self):
        with pytest.raises(BoxTooSmall):
            grid_search_fit(LINE_2X1, SearchBox(5.0, 10.0, 5.0, 10.0))

    def test_deterministic(self, ex1_cloud):
        box = skewed_box(EX1["a"], EX1["b"])
        assert grid_search_fit(ex1_cloud, box) == grid_search_fit(ex1_cloud, box)


def gradient_check(cloud, a, b, h):
    """Central finite-difference gradient of ``sse_of`` at (a, b)."""
    d_a = (sse_of(cloud, a + h, b) - sse_of(cloud, a - h, b)) / (2 * h)
    d_b = (sse_of(cloud, a, b + h) - sse_of(cloud, a, b - h)) / (2 * h)
    return d_a, d_b


class TestGradientCheck:
    def test_zero_at_exact_minimum(self):
        da, db = gradient_check(LINE_2X1, 2.0, 1.0, h=1e-6)
        assert abs(da) <= 1e-8
        assert abs(db) <= 1e-8

    def test_small_at_fitted_point(self, ex1_cloud):
        f = fit(ex1_cloud)
        s = sse_of(ex1_cloud, f.slope, f.intercept)
        da, db = gradient_check(ex1_cloud, f.slope, f.intercept, h=1e-6)
        scale = max(1.0, s)
        assert abs(da) / scale <= 1e-3
        assert abs(db) / scale <= 1e-3

    def test_analytic_value_at_zero_slope(self, ex1_cloud):
        # at a=0, b=y_bar the residual is the centered response, so the
        # slope gradient is -2 * dot(u, i)
        f = fit(ex1_cloud)
        y_bar = f.centered.centroid_y
        da, _ = gradient_check(ex1_cloud, 0.0, y_bar, h=1e-4)
        assert da == pytest.approx(-2.0 * EX1["ui"], abs=0.1)

    def test_matches_analytic_form_at_perturbed_points(self):
        rng = random.Random(402)
        for _ in range(10):
            cloud = random_cloud(rng)
            f = fit(cloud)
            a = f.slope + rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            b = f.centered.centroid_y - a * f.centered.centroid_x
            res = [u - a * i for u, i in zip(f.centered.u_vec, f.centered.i_vec)]
            analytic = -2.0 * dot(res, f.centered.i_vec)
            da, _ = gradient_check(cloud, a, b, h=1e-5)
            assert da == pytest.approx(analytic, rel=1e-4, abs=1e-4)


class TestConvexity:
    def test_objective_minimized_at_fit_along_random_lines(self):
        rng = random.Random(403)
        for _ in range(10):
            cloud = random_cloud(rng)
            f = fit(cloud)
            base = sse_of(cloud, f.slope, f.intercept)
            va = rng.uniform(-1.0, 1.0)
            vb = rng.uniform(-1.0, 1.0)
            for k in range(1, 11):
                t = 0.1 * k
                assert sse_of(cloud, f.slope + t * va, f.intercept + t * vb) >= base
                assert sse_of(cloud, f.slope - t * va, f.intercept - t * vb) >= base


# --- Regression against the all-fsum scalar search --------------------------
#
# ``_reference_grid_search`` is the scalar ``grid_search_fit`` that evaluated
# every grid point with a Python ``fsum`` generator.  The block-evaluated
# search must return the identical (a, b) tuple, or raise ``BoxTooSmall`` in
# exactly the same cases.


def _reference_grid_search(cloud: PointCloud, box: SearchBox) -> tuple[float, float]:
    n = len(cloud)
    x_bar = fsum(cloud.xs) / n
    pts = list(zip(cloud.xs, cloud.ys))

    def objective(a: float, c: float) -> float:
        return fsum((y - a * (x - x_bar) - c) ** 2 for x, y in pts)

    steps = oracle._GRID_STEPS
    a_lo, a_hi = box.a_min, box.a_max
    corners = [
        b + a * x_bar
        for a in (box.a_min, box.a_max)
        for b in (box.b_min, box.b_max)
    ]
    c_lo, c_hi = min(corners), max(corners)
    if c_hi == c_lo:
        c_lo, c_hi = c_lo - 1.0, c_hi + 1.0

    best_a = best_c = None
    for _ in range(oracle._REFINEMENT_ROUNDS):
        da = (a_hi - a_lo) / (steps - 1)
        dc = (c_hi - c_lo) / (steps - 1)
        best = None
        for ia in range(steps):
            a = a_lo + ia * da
            for ic in range(steps):
                c = c_lo + ic * dc
                s = objective(a, c)
                if best is None or s < best[0]:
                    best = (s, a, c)
        _, best_a, best_c = best
        half_a = _SHRINK * (a_hi - a_lo) / 2
        half_c = _SHRINK * (c_hi - c_lo) / 2
        a_lo, a_hi = best_a - half_a, best_a + half_a
        c_lo, c_hi = best_c - half_c, best_c + half_c

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


def _outcome(search, cloud: PointCloud, box: SearchBox):
    try:
        return search(cloud, box)
    except BoxTooSmall:
        return BoxTooSmall


def _shifted_box(a: float, b: float) -> SearchBox:
    """Default box slid by most of its width, so the optimum sits near or
    past an edge and the search often reports ``BoxTooSmall``."""
    box = default_box(a, b)
    da = 0.45 * (box.a_max - box.a_min)
    db = 0.45 * (box.b_max - box.b_min)
    return SearchBox(box.a_min + da, box.a_max + da, box.b_min - db, box.b_max - db)


def _corpus_cloud(rng: random.Random, n: int) -> PointCloud:
    """x spread over [0, w) at an offset up to 1e6, y on a line plus noise."""
    offset = rng.choice([0.0, rng.uniform(-1e3, 1e3), rng.uniform(-1e6, 1e6)])
    width = rng.choice([1.0, 10.0, 100.0])
    slope = rng.uniform(-10.0, 10.0)
    noise = rng.choice([0.01, 1.0, 10.0])
    while True:
        xs = [offset + rng.uniform(0.0, width) for _ in range(n)]
        if max(xs) - min(xs) >= 0.25 * width:
            break
    ys = [slope * (x - offset) + rng.uniform(-50.0, 50.0) + rng.gauss(0.0, noise) for x in xs]
    return PointCloud.from_columns(xs, ys)


# (n, clouds): 200 clouds in all; the reference costs about 1 ms per point.
_CORPUS_SIZES = ((3, 100), (10, 80), (200, 18), (2000, 2))
_BOXES = (skewed_box, default_box, _shifted_box)


def _corpus():
    rng = random.Random(404)
    k = 0
    for n, count in _CORPUS_SIZES:
        for _ in range(count):
            cloud = _corpus_cloud(rng, n)
            f = fit(cloud)
            yield cloud, _BOXES[k % len(_BOXES)](f.slope, f.intercept)
            k += 1


def _integer_line(rng: random.Random, n: int) -> PointCloud:
    """Integer points on an integer line: the optimum has zero residual."""
    xs = [float(rng.randint(-50, 50)) for _ in range(n)]
    slope, height = rng.randint(-7, 7), rng.randint(-20, 20)
    return PointCloud.from_columns(xs, [slope * x + height for x in xs])


def _x_offset(rng: random.Random, n: int) -> PointCloud:
    xs = [1e9 + rng.uniform(0.0, 100.0) for _ in range(n)]
    return PointCloud.from_columns(xs, [2.5 * (x - 1e9) + rng.gauss(0.0, 5.0) for x in xs])


def _y_offset(rng: random.Random, n: int) -> PointCloud:
    xs = [rng.uniform(0.0, 1.0) for _ in range(n)]
    return PointCloud.from_columns(xs, [1e6 + 3e-6 * x + rng.gauss(0.0, 1e-6) for x in xs])


def _scaled(factor: float):
    def make(rng: random.Random, n: int) -> PointCloud:
        xs = [rng.uniform(-10.0, 10.0) for _ in range(n)]
        ys = [-1.5 * x + 4.0 + rng.gauss(0.0, 2.0) for x in xs]
        return PointCloud.from_columns([factor * x for x in xs], [factor * y for y in ys])

    return make


def _weak(rng: random.Random, n: int) -> PointCloud:
    """Noise with its x component replaced by a small one: |r| about 0.005."""
    xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
    x_bar = fsum(xs) / n
    dx = [x - x_bar for x in xs]
    noise = [rng.gauss(0.0, 10.0) for _ in range(n)]
    k = fsum(e * d for e, d in zip(noise, dx)) / fsum(d * d for d in dx)
    return PointCloud.from_columns(xs, [e - (k - 0.0017) * d for e, d in zip(noise, dx)])


_SCREEN_CASES = {
    "integer_line": _integer_line,
    "x_offset_1e9": _x_offset,
    "y_offset_1e6_noise_1e-6": _y_offset,
    "scaled_1e-8": _scaled(1e-8),
    "scaled_1e8": _scaled(1e8),
    "weak_correlation": _weak,
}


def test_float_power_squares_as_python_pow():
    # The polish squares its residuals with np.float_power so that they stay
    # bit-identical to the ``**`` of _reference_grid_search; np.square rounds
    # x*x and differs from pow in the last bit on some values.
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(2021)
    n = 200_000
    signs = rng.choice([-1.0, 1.0], n)
    values = np.ldexp(signs * rng.uniform(0.5, 1.0, n), rng.integers(-1074, 512, n))
    values = np.concatenate([values, [5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-310, 1e154]])
    squares = np.float_power(values, 2.0)
    expected = np.array([v ** 2 for v in values.tolist()])
    differ = np.flatnonzero(squares.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, values[differ[:5]].tolist()


class TestMatchesScalarReference:
    @pytest.mark.parametrize("name", ["example1_amarante.csv", "example2_infections.csv"])
    def test_demo_datasets(self, name):
        cloud = load_example(name)
        f = fit(cloud)
        for make_box in _BOXES:
            box = make_box(f.slope, f.intercept)
            assert _outcome(grid_search_fit, cloud, box) == _outcome(
                _reference_grid_search, cloud, box
            )

    def test_seeded_corpus(self):
        outcomes = set()
        for cloud, box in _corpus():
            got = _outcome(grid_search_fit, cloud, box)
            assert got == _outcome(_reference_grid_search, cloud, box), (len(cloud), box)
            outcomes.add(got is BoxTooSmall)
        # the corpus exercises both the passing and the BoxTooSmall branch
        assert outcomes == {False, True}

    def test_chunked_path(self):
        # more points than one block of grid_steps rows holds, so the sums
        # are accumulated over several chunks of the cloud
        rng = random.Random(405)
        n = oracle._BLOCK_ELEMENTS // 21 + 80
        cloud = _corpus_cloud(rng, n)
        f = fit(cloud)
        box = skewed_box(f.slope, f.intercept)
        assert grid_search_fit(cloud, box) == _reference_grid_search(cloud, box)

    def test_small_blocks(self, monkeypatch):
        # a tiny block budget forces many chunks (and a ragged last one) on
        # small clouds
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 21 * 7)
        rng = random.Random(406)
        for n in (3, 7, 8, 50):
            cloud = _corpus_cloud(rng, n)
            f = fit(cloud)
            box = skewed_box(f.slope, f.intercept)
            assert grid_search_fit(cloud, box) == _reference_grid_search(cloud, box)

    @pytest.mark.parametrize(
        "xs, ys, rounds",
        [
            ([4, 1, 3, -3, 1, -5, 1, -3, -1, 1, 2, -3], [5, 5, 4, -4, 3, 2, 3, -1, -1, 0, 4, 0], 8),
            ([-4, 1, 3, -1, -3, -4, 3, 3, 5, -1, -3, 1], [-3, -2, -1, 2, -1, 5, 2, 3, 5, 0, 5, 3], 2),
            ([-2, -3, 5, 1, -4, 0, 5, 0, -4, 1, -3, 5], [4, 4, 2, 5, 1, 3, 2, 5, -4, -3, 0, 0], 2),
        ],
    )
    def test_exact_ties_on_integer_data(self, xs, ys, rounds, monkeypatch):
        # On integer data and a grid of round numbers some grid points tie
        # exactly under fsum while their block sums differ in the last bit;
        # the first block minimum alone would pick another point.
        monkeypatch.setattr(oracle, "_REFINEMENT_ROUNDS", rounds)
        cloud = PointCloud.from_columns(xs, ys)
        box = SearchBox(-4.0, 4.0, -6.0, 6.0)
        assert grid_search_fit(cloud, box) == _reference_grid_search(cloud, box)

    @pytest.mark.parametrize("case", sorted(_SCREEN_CASES))
    def test_screen_edge_cases(self, case):
        # Data on which the closed-form height screen could misjudge its own
        # rounding: zero residuals, large offsets, extreme scales and a flat
        # objective.  Each box must give the all-fsum outcome.
        rng = random.Random(407)
        cloud = _SCREEN_CASES[case](rng, 200)
        f = fit(cloud)
        if case == "weak_correlation":
            assert abs(correlate(f.centered).r) < 0.01
        for make_box in _BOXES:
            box = make_box(f.slope, f.intercept)
            assert _outcome(grid_search_fit, cloud, box) == _outcome(
                _reference_grid_search, cloud, box
            ), (case, box)

    def test_corner_heights_that_round_equal(self):
        # A slope range one ulp wide and an intercept range that 3.7 * 3
        # absorbs give the box four equal corner heights at mean x = 3, so
        # the height range is widened to +/-1 around them.
        xs = [2.0, 3.0, 4.0]
        cloud = PointCloud.from_columns(xs, [3.7 * x for x in xs])
        box = SearchBox(3.7, nextafter(3.7, 4.0), -1e-300, 1e-300)
        corners = {b + a * 3.0 for a in (box.a_min, box.a_max) for b in (box.b_min, box.b_max)}
        assert len(corners) == 1
        assert grid_search_fit(cloud, box) == _reference_grid_search(cloud, box) == (3.7, 0.0)

    def test_rerank_count_on_a_flat_objective(self, monkeypatch):
        # A weakly correlated cloud puts many grid points close to the
        # minimum; the screen's bound must keep the exact re-ranking small.
        calls = []
        monkeypatch.setattr(oracle, "fsum", lambda terms: calls.append(1) or fsum(terms))
        rng = random.Random(3)
        xs = [rng.uniform(0, 1) for _ in range(5000)]
        ys = [0.01 * x + rng.gauss(0, 10) for x in xs]
        cloud = PointCloud.from_columns(xs, ys)
        f = fit(cloud)
        grid_search_fit(cloud, default_box(f.slope, f.intercept))
        assert len(calls) <= 20

    def test_fsum_overflow_in_the_objective(self, monkeypatch):
        def fsum_overflowing_on_the_buffer(terms):
            if isinstance(terms, memoryview):  # the objective's residual buffer
                raise OverflowError("intermediate overflow in fsum")
            return fsum(terms)

        monkeypatch.setattr(oracle, "fsum", fsum_overflowing_on_the_buffer)
        with pytest.raises(ObjectiveOverflow):
            grid_search_fit(LINE_2X1, default_box(2.0, 1.0))

    def test_fsum_overflow_in_the_centroid(self):
        # Finite x whose sum overflows: not fsum's own OverflowError.
        cloud = PointCloud([1e308, 1e308, -1e308, 5.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ObjectiveOverflow, match="^the sum of x overflows float64$"):
            grid_search_fit(cloud, SearchBox(-1.0, 1.0, -1.0, 1.0))

    def test_deep_refinement(self, monkeypatch):
        # After about 20 rounds the grid cell is below the objective's
        # rounding noise, so most grid points are near-ties: the exact
        # re-ranking, not the screen's own rounding, must decide.
        monkeypatch.setattr(oracle, "_REFINEMENT_ROUNDS", 26)
        rng = random.Random(408)
        for n in (3, 5, 12, 30) * 3:
            cloud = _corpus_cloud(rng, n)
            f = fit(cloud)
            box = skewed_box(f.slope, f.intercept)
            assert _outcome(grid_search_fit, cloud, box) == _outcome(
                _reference_grid_search, cloud, box
            ), (n, box)
