import math
import random

import pytest

from geomfit.cloud import PointCloud
from geomfit.diagnostics import orthogonality_report, residuals, sse
from geomfit.oracle import sse_of
from geomfit.regress import fit, predict
from geomfit.vectors import norm_sq

from conftest import random_cloud


class TestResiduals:
    def test_two_point_cloud_zero_residuals(self):
        f = fit(PointCloud([0, 2], [1, 5]))
        assert residuals(f) == [0.0, 0.0]

    def test_example1_pythagoras(self, ex1_cloud):
        f = fit(ex1_cloud)
        uu = norm_sq(f.centered.u_vec)
        ii = norm_sq(f.centered.i_vec)
        expected = uu - f.slope**2 * ii
        # independent oracle: direct summation of squared residual components
        direct = math.fsum((u - f.slope * i) ** 2
                           for u, i in zip(f.centered.u_vec, f.centered.i_vec))
        assert norm_sq(residuals(f)) == pytest.approx(direct, rel=1e-12)
        assert norm_sq(residuals(f)) == pytest.approx(expected, rel=1e-6)

    def test_constant_y_gives_zero_slope_and_residual(self):
        f = fit(PointCloud.from_columns([1, 2, 3], [4.0, 4.0, 4.0]))
        assert f.slope == 0.0
        assert all(v == 0.0 for v in residuals(f))


class TestSse:
    def test_exact_line_zero(self):
        f = fit(PointCloud.from_columns([0, 1, 2], [1, 3, 5]))
        assert sse(f) <= 3 * 1e-18

    def test_matches_raw_objective_example1(self, ex1_cloud):
        f = fit(ex1_cloud)
        assert sse(f) == pytest.approx(sse_of(ex1_cloud, f.slope, f.intercept), rel=1e-9)

    def test_fit_is_no_worse_than_perturbations(self, ex1_cloud):
        f = fit(ex1_cloud)
        base = sse(f)
        rng = random.Random(301)
        for _ in range(20):
            da = rng.uniform(-1.0, 1.0)
            db = rng.uniform(-5.0, 5.0)
            if (da, db) != (0.0, 0.0):
                assert sse_of(ex1_cloud, f.slope + da, f.intercept + db) >= base


class TestOrthogonalityReport:
    @pytest.mark.parametrize("name", ["ex1_cloud", "ex2_cloud"])
    def test_examples_orthogonal(self, name, request):
        cloud = request.getfixturevalue(name)
        rep = orthogonality_report(fit(cloud))
        assert abs(rep.residual_dot_i_normalized) <= 1e-6
        assert abs(rep.ones_dot_i_normalized) <= 1e-6
        assert abs(rep.ones_dot_u_normalized) <= 1e-6

    def test_two_point_cloud(self):
        rep = orthogonality_report(fit(PointCloud([0, 2], [1, 5])))
        assert rep.residual == [0.0, 0.0]
        assert abs(rep.residual_dot_i) <= 1e-12
        assert abs(rep.ones_dot_i) <= 1e-12
        assert abs(rep.ones_dot_u) <= 1e-12

    def test_readme_example_with_a_numpy_y(self):
        # A list x beside a float64 array y makes a cloud of two lists.
        np = pytest.importorskip("numpy")
        xs, ys = [11, 12, 14, 16], [180, 175, 150, 130]
        f, by_lists = fit(PointCloud(xs, np.array(ys, dtype=float))), fit(PointCloud(xs, ys))
        assert residuals(f) == residuals(by_lists)
        assert orthogonality_report(f) == orthogonality_report(by_lists)

    def test_sse_field_consistent(self, ex1_cloud):
        f = fit(ex1_cloud)
        rep = orthogonality_report(f)
        assert rep.sse == pytest.approx(norm_sq(rep.residual), rel=1e-12)
        assert rep.sse >= 0.0


class TestProperties:
    def test_pythagorean_decomposition(self):
        rng = random.Random(302)
        for _ in range(50):
            f = fit(random_cloud(rng))
            uu = norm_sq(f.centered.u_vec)
            jj = norm_sq([f.slope * i for i in f.centered.i_vec])
            rr = norm_sq(residuals(f))
            assert uu == pytest.approx(jj + rr, rel=1e-9)

    def test_residual_mean_zero(self):
        rng = random.Random(303)
        for _ in range(50):
            cloud = random_cloud(rng)
            f = fit(cloud)
            n = len(cloud)
            max_y = max(abs(y) for y in cloud.ys)
            assert abs(math.fsum(residuals(f))) <= n * 1e-9 * max(1.0, max_y)

    def test_raw_vs_centered_residual_identity(self):
        rng = random.Random(304)
        for _ in range(25):
            cloud = random_cloud(rng)
            f = fit(cloud)
            res = residuals(f)
            for x, y, rk in zip(cloud.xs, cloud.ys, res):
                assert y - predict(f, x) == pytest.approx(rk, rel=1e-9, abs=1e-6)
