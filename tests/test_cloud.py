import math
import re
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomfit.cloud import _ARRAY_LIMIT, CenteredCloud, PointCloud, center, centroid
from geomfit.correlate import correlate
from geomfit.errors import ObjectiveOverflow
from geomfit.regress import fit
from geomfit.vectors import Vector, dot, norm_sq

from conftest import EX1, EX2

coords = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
clouds = st.integers(min_value=1, max_value=50).flatmap(
    lambda n: st.tuples(
        st.lists(coords, min_size=n, max_size=n),
        st.lists(coords, min_size=n, max_size=n),
    )
).map(lambda t: PointCloud.from_columns(*t))


class TestPointCloud:
    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(Vector([1, 2]), Vector([1, 2, 3]))


    def test_columns_are_plain_float_lists(self):
        c = PointCloud.from_columns((1, 2), (3.5, "4"))
        assert c.xs == [1.0, 2.0] and c.ys == [3.5, 4.0]
        assert all(type(v) is float for v in c.xs + c.ys)

    def test_float64_array_columns_stay_float64_arrays(self):
        np = pytest.importorskip("numpy")
        values = [-0.0, 5e-324, _ARRAY_LIMIT, -_ARRAY_LIMIT, -2.5]
        xs = np.array(values)
        c = PointCloud(xs, xs[::-1])  # a strided view
        assert type(c.xs) is type(c.ys) is np.ndarray
        assert c.xs.dtype == c.ys.dtype == np.float64
        assert c.xs.tobytes() == np.array(values).tobytes()
        assert c.ys.tobytes() == np.array(values[::-1]).tobytes()
        assert memoryview(c.ys).tolist() == values[::-1]  # contiguous, as finite_fsum reads it
        xs[:] = 7.0  # the cloud keeps its own copy
        assert c.xs.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("beyond", [1e308, math.nextafter(_ARRAY_LIMIT, math.inf),
                                        -math.nextafter(_ARRAY_LIMIT, math.inf)])
    def test_float64_array_beyond_the_limit_makes_two_lists(self, beyond):
        # where an elementwise product could overflow, the cloud computes on Python floats
        np = pytest.importorskip("numpy")
        xs, ys = [0.5, beyond, -0.0], [1.0, 5e-324, 2.0]
        c = PointCloud(np.array(xs), np.array(ys))
        assert type(c.xs) is type(c.ys) is list
        assert all(type(v) is float for v in c.xs + c.ys)
        assert np.array(c.xs).tobytes() == np.array(xs).tobytes()
        assert np.array(c.ys).tobytes() == np.array(ys).tobytes()

    @pytest.mark.parametrize("make, shape", [
        (lambda np: np.ones((3, 1)), "(3, 1)"),
        (lambda np: np.float64(3.0), "()"),
    ], ids=["2-d", "0-d"])
    def test_column_of_another_shape_rejected(self, make, shape):
        np = pytest.importorskip("numpy")
        message = f"a column must be 1-d, not of shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PointCloud(make(np), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            Vector(make(np))

    @pytest.mark.parametrize("column", [(1, 2.5), [1.0, 2.5], array("d", [1.0, 2.5])],
                             ids=["tuple", "list", "array.array"])
    def test_other_columns_become_float_lists(self, column):
        c = PointCloud(column, column)
        assert type(c.xs) is list and c.xs == [1.0, 2.5]
        assert all(type(v) is float for v in c.xs)

    @pytest.mark.parametrize("array_column", ["x", "y"])
    def test_a_list_with_a_float64_array_makes_two_lists(self, array_column):
        np = pytest.importorskip("numpy")
        xs, ys = [0.5, -0.0, 3.0], [1.0, 2.0, 4.0]
        c = PointCloud(np.array(xs), ys) if array_column == "x" else PointCloud(xs, np.array(ys))
        assert type(c.xs) is type(c.ys) is list
        assert all(type(v) is float for v in c.xs + c.ys)
        assert c == PointCloud(xs, ys)

    def test_masked_float64_array_is_read_as_a_list(self):
        # A masked array's min, max and arithmetic skip its masked values.
        np = pytest.importorskip("numpy")
        c = PointCloud(np.ma.masked_array([1.0, 2.5]), np.array([1.0, 2.5]))
        assert type(c.xs) is list and c.xs == [1.0, 2.5]
        with pytest.raises(TypeError):  # a masked value reads as None
            PointCloud(np.ma.masked_array([1.0, 2.5], mask=[False, True]), [1.0, 2.5])

    @pytest.mark.parametrize("values, message", [
        ([], "a vector needs at least one component"),
        ([1.0, math.inf], "component 1 is not finite: inf"),
        ([math.nan, 2.0], "component 0 is not finite: nan"),
        ([1.7e308, 1.7e308, -math.inf], "component 2 is not finite: -inf"),
    ])
    def test_float64_arrays_validated_as_lists(self, values, message):
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match=re.escape(message)):
            PointCloud(values, values)
        with pytest.raises(ValueError, match=re.escape(message)):
            PointCloud(np.array(values, dtype=np.float64), np.ones(len(values)))

    def test_equal_when_the_values_are_whatever_the_kind(self):
        np = pytest.importorskip("numpy")
        xs, ys = [0.5, -0.0, 3.0], [1.0, 2.0, 4.0]
        lists, arrays = PointCloud(xs, ys), PointCloud(np.array(xs), np.array(ys))
        assert lists == arrays and arrays == lists
        assert arrays == PointCloud(np.array(xs), np.array(ys))
        assert arrays != PointCloud(np.array(xs), np.array([1.0, 2.0, 5.0]))
        assert arrays != PointCloud(np.array(xs[:2]), np.array(ys[:2]))
        assert arrays != (xs, ys)

    @pytest.mark.parametrize("xs, ys, message", [
        ([], [], "a vector needs at least one component"),
        ([1.0, math.inf], [1.0, 2.0], "component 1 is not finite: inf"),
        ([1.0, 2.0], [math.nan, 2.0], "component 0 is not finite: nan"),
        ([1.0, 2.0], [1.0], "xs and ys must have equal length, got 2 and 1"),
        ([1.7e308, 1.7e308, -math.inf], [1.0, 2.0, 3.0], "component 2 is not finite: -inf"),
        # a string is not read one character at a time
        ("123", "456", "a column must be a sequence of numbers, not str"),
        ([1.0, 2.0], b"12", "a column must be a sequence of numbers, not bytes"),
    ])
    def test_validated_at_construction(self, xs, ys, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PointCloud(xs, ys)


class TestCachedSums:
    def test_match_the_vector_helpers(self, ex1_cloud):
        c = center(ex1_cloud)
        assert c.sxx == norm_sq(c.i_vec)
        assert c.syy == norm_sq(c.u_vec)
        assert c.sxy == dot(c.u_vec, c.i_vec)

    def test_fit_reads_only_sxx_and_sxy(self, ex1_cloud):
        c = fit(ex1_cloud).centered
        assert {"sxx", "sxy"} <= vars(c).keys() and "syy" not in vars(c)
        correlate(c)
        assert "syy" in vars(c)

    def test_overflowing_sum_raises(self):
        c = center(PointCloud.from_columns([1, 2, 3, 4], [1e160, 2e160, 3.5e160, 3.9e160]))
        assert math.isfinite(c.sxx) and math.isfinite(c.sxy)
        with pytest.raises(ObjectiveOverflow, match="sum of squared y deviations overflows"):
            c.syy

    def test_array_array_columns_sum_as_lists(self, ex1_cloud):
        # array.array has tolist() but no dtype, so its columns multiply pair
        # by pair; array * array would raise, not multiply elementwise.
        c = center(ex1_cloud)
        a = CenteredCloud(c.centroid_x, c.centroid_y, array("d", c.i_vec), array("d", c.u_vec))
        assert (a.sxx, a.syy, a.sxy) == (c.sxx, c.syy, c.sxy)

    def test_overflowing_centroid_raises(self):
        cloud = PointCloud.from_columns([1.6e308, 1.7e308, 1.65e308], [1.0, 2.0, 3.0])
        with pytest.raises(ObjectiveOverflow, match="sum of x overflows"):
            centroid(cloud)


class TestCentroid:
    def test_example1(self, ex1_cloud):
        x_bar, y_bar = centroid(ex1_cloud)
        assert x_bar == pytest.approx(EX1["centroid"][0], abs=1e-4)
        assert y_bar == pytest.approx(EX1["centroid"][1], abs=1e-4)

    def test_single_point(self):
        assert centroid(PointCloud([5], [7])) == (5.0, 7.0)

    def test_example2(self, ex2_cloud):
        x_bar, y_bar = centroid(ex2_cloud)
        assert x_bar == 78.5
        assert y_bar == pytest.approx(EX2["centroid"][1], abs=1e-3)


class TestCenter:
    def test_example1_first_row(self, ex1_cloud):
        c = center(ex1_cloud)
        assert c.i_vec[0] == pytest.approx(-5.3417, abs=1e-4)
        assert c.u_vec[0] == pytest.approx(57.0833, abs=1e-4)

    def test_example2_first_row(self, ex2_cloud):
        c = center(ex2_cloud)
        assert c.i_vec[0] == pytest.approx(-11.5, abs=1e-3)
        assert c.u_vec[0] == pytest.approx(-2380.583, abs=1e-3)

    def test_unequal_centered_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            CenteredCloud(0.0, 0.0, [1.0], [1.0, -1.0])

    def test_already_centered_cloud(self):
        cloud = PointCloud.from_columns([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0])
        c = center(cloud)
        assert c.centroid_x == 0.0 and c.centroid_y == 0.0
        assert c.i_vec == cloud.xs
        assert c.u_vec == cloud.ys


class TestProperties:
    @given(clouds)
    def test_round_trip(self, cloud):
        # tolerance scaled by the column magnitude: centering loses absolute
        # precision at the scale of the mean, not of each component
        c = center(cloud)
        x_tol = 1e-12 * max(1.0, max(abs(v) for v in cloud.xs))
        y_tol = 1e-12 * max(1.0, max(abs(v) for v in cloud.ys))
        for orig, centered in zip(cloud.xs, c.i_vec):
            assert centered + c.centroid_x == pytest.approx(orig, abs=x_tol)
        for orig, centered in zip(cloud.ys, c.u_vec):
            assert centered + c.centroid_y == pytest.approx(orig, abs=y_tol)

    @given(clouds)
    def test_zero_sum_invariants(self, cloud):
        c = center(cloud)
        n = len(cloud)
        max_x = max(abs(x) for x in cloud.xs)
        max_y = max(abs(y) for y in cloud.ys)
        assert abs(math.fsum(c.i_vec)) <= n * 1e-9 * max(1.0, max_x)
        assert abs(math.fsum(c.u_vec)) <= n * 1e-9 * max(1.0, max_y)

    @given(clouds)
    def test_centering_idempotent(self, cloud):
        once = center(cloud)
        twice = center(PointCloud(once.i_vec, once.u_vec))
        x_tol = 1e-12 * max(1.0, max(abs(v) for v in cloud.xs))
        y_tol = 1e-12 * max(1.0, max(abs(v) for v in cloud.ys))
        for v1, v2 in zip(once.i_vec, twice.i_vec):
            assert v2 == pytest.approx(v1, abs=x_tol)
        for v1, v2 in zip(once.u_vec, twice.u_vec):
            assert v2 == pytest.approx(v1, abs=y_tol)
