import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomfit.estimator as estimator
from geomfit import cli
from geomfit.cloud import PointCloud
from geomfit.correlate import correlate
from geomfit.diagnostics import sse
from geomfit.errors import DegenerateX, GeomfitError, TooFewPoints
from geomfit.estimator import GeometricLinearRegression
from geomfit.regress import fit

from conftest import EX1


class TestFitPredict:
    def test_example1_attributes(self, ex1_cloud):
        est = GeometricLinearRegression().fit(list(ex1_cloud.xs), list(ex1_cloud.ys))
        assert est.slope_ == pytest.approx(EX1["a"], abs=1e-3)
        assert est.intercept_ == pytest.approx(EX1["b"], abs=0.05)
        assert est.theta_deg_ == pytest.approx(EX1["theta_deg"], abs=0.01)
        assert est.r_ == pytest.approx(EX1["r"], abs=1e-3)
        assert est.correlation_class_ == "StrongNegative"
        assert est.n_points_ == 12

    def test_accepts_column_matrix(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 3.0, 5.0])
        est = GeometricLinearRegression().fit(X, y)
        np.testing.assert_allclose(est.predict(np.array([[3.0]])), [7.0])

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GeometricLinearRegression().predict([1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GeometricLinearRegression().fit([1, 2, 3], [1, 2])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GeometricLinearRegression().fit([1.0, float("nan")], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="X is empty"):
            GeometricLinearRegression().fit([], [])

    def test_two_dimensional_features_rejected(self):
        with pytest.raises(ValueError):
            GeometricLinearRegression().fit(np.zeros((3, 2)), [1.0, 2.0, 3.0])

    def test_degenerate_x_propagates(self):
        with pytest.raises(DegenerateX):
            GeometricLinearRegression().fit([2.0, 2.0], [1.0, 3.0])

    def test_distinct_x_whose_square_overflows(self):
        est = GeometricLinearRegression().fit([1e155, 1.000001e155], [1.0, 2.0])
        assert (est.slope_, est.intercept_) == (1.0000000000546436e-149, -999999.0000546436)

    def test_single_point_rejected(self):
        with pytest.raises(TooFewPoints):
            GeometricLinearRegression().fit([1.0], [2.0])


class TestScore:
    def test_perfect_fit(self):
        est = GeometricLinearRegression().fit([0, 1, 2], [1, 3, 5])
        assert est.score([0, 1, 2], [1, 3, 5]) == pytest.approx(1.0)

    def test_constant_y(self):
        est = GeometricLinearRegression().fit([0, 1, 2], [1, 3, 5])
        assert est.score([1, 1, 1], [3, 3, 3]) == 1.0  # predicted exactly
        assert est.score([0, 1, 2], [3, 3, 3]) == 0.0

    @pytest.mark.parametrize("X, y", [([1, 2, 3], [5]), ([1], [3, 5, 7])], ids=["short_y", "short_X"])
    def test_length_mismatch(self, X, y):
        # numpy would broadcast the length-1 side into a score
        est = GeometricLinearRegression().fit([0, 1, 2], [1, 3, 5])
        with pytest.raises(ValueError, match="length mismatch"):
            est.score(X, y)

    def test_validates_each_column_once(self, monkeypatch):
        est = GeometricLinearRegression().fit([0, 1, 2], [1, 3, 5])
        names = []
        validate = estimator._as_1d_column
        monkeypatch.setattr(estimator, "_as_1d_column",
                            lambda v, name: names.append(name) or validate(v, name))
        assert est.score([0, 1, 2], [1, 3, 5]) == 1.0
        assert names == ["X", "y"]

    def test_unfitted(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GeometricLinearRegression().score([0, 1], [1, 3])
        with pytest.raises(RuntimeError, match="not fitted"):
            GeometricLinearRegression().predict([])  # before X is checked

    def test_r_squared_equals_r_r(self, ex1_cloud):
        xs, ys = list(ex1_cloud.xs), list(ex1_cloud.ys)
        est = GeometricLinearRegression().fit(xs, ys)
        assert est.score(xs, ys) == pytest.approx(est.r_**2, rel=1e-9)


def _fitted_or_error(fit_columns, xs, ys):
    """repr of the seven fitted attributes, or the error's type and message."""
    try:
        return repr(fit_columns(xs, ys))
    except GeomfitError as e:
        return type(e).__name__, str(e)


def _by_lists(xs, ys):
    cloud = PointCloud(xs, ys)
    result = fit(cloud)
    corr = correlate(result.centered)
    return (result.slope, result.intercept, corr.theta_deg, corr.r, corr.cls.value,
            sse(result), len(cloud))


def _by_estimator(xs, ys):
    X = np.array(xs)
    est = GeometricLinearRegression().fit(X[:, None] if len(xs) % 2 else X, np.array(ys))
    return (est.slope_, est.intercept_, est.theta_deg_, est.r_, est.correlation_class_,
            est.sse_, est.n_points_)


def _report(xs, ys):
    return cli.render_report(cli.build_report(PointCloud(xs, ys)), "json")


def _seeded_columns():
    rng = random.Random(19)
    yield [3.0], [4.0]
    yield [-0.0, 0.0, -0.0, 1.0], [1.0, -0.0, 2.0, -0.0]
    yield [1e308, 1e308, -1e308, 5.0], [1.0, 2.0, 3.0, 4.0]  # the sum of x
    yield [-1e200, 1e200, 0.0, 3.0], [1.0, 2.0, 3.0, 4.0]  # Sxx
    yield [1.0, 2.0, 3.0, 4.0], [1e200, -1e200, 3e200, 0.0]  # Syy
    yield ([0.3067666448686568, 0.6710886521918535, -0.7010014387215959,  # SSE, not Syy
            0.37115142522120054, -0.6480052835601715],
           [7.90792144266329e+153, -6.0463752196513474e+153, -6.173985546071386e+153,
            3.312660983695328e+153, 6.0581362952735374e+153])
    yield [1e155, 1.000001e155], [1.0, 2.0]  # the cutoff overflows, so the scan runs
    for x1 in (1.0000000298023233, 1.0000000298023235):  # either side of DegenerateX
        yield [1.0, x1], [0.0, 1.0]
        yield [-1.0, -x1], [0.0, 1.0]
    for k in range(240):
        n = rng.choice([2, 3, 5, 17, 200, 2000])
        x0, y0 = rng.choice([0.0, 1.0, -1e3, 1e6, 1e9, -1e9]), rng.choice([0.0, -5.0, 1e9])
        scale, slope = 10.0 ** rng.uniform(-5, 5), rng.choice([0.0, 1.0, -2.5, 1e-5, 3e4])
        kind = k % 4
        if kind == 1:  # integer ties
            xs = [x0 + rng.randint(0, 3) for _ in range(n)]
        elif kind == 2:  # near-constant x, jittered in its last bits
            xs = [x0 * (1 + 1e-15 * rng.uniform(-1, 1)) + 1e-300 * rng.random() for _ in range(n)]
        else:
            xs = [x0 + scale * rng.uniform(-1, 1) for _ in range(n)]
        noise = 0.0 if kind == 3 else scale * rng.random()  # kind 3: near-constant y
        ys = [y0 + slope * (x - x0) + noise * rng.gauss(0, 1) for x in xs]
        yield xs, ys


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestArrayPathMatchesLists:
    """The estimator's float64 arrays fit bit for bit as fit(PointCloud(...)).

    Under warnings-as-errors, an overflow inside numpy would surface as a
    RuntimeWarning instead of the list path's ObjectiveOverflow.
    """

    @pytest.mark.filterwarnings("error")
    def test_seeded_columns(self):
        for xs, ys in _seeded_columns():
            assert _fitted_or_error(_by_estimator, xs, ys) == _fitted_or_error(_by_lists, xs, ys)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40))
    def test_any_finite_columns(self, pairs):
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
        assert _fitted_or_error(_by_estimator, xs, ys) == _fitted_or_error(_by_lists, xs, ys)

    def test_seeded_columns_cover_each_outcome(self):
        outcomes = {r[0] if isinstance(r, tuple) else "fitted"
                    for r in (_fitted_or_error(_by_lists, xs, ys) for xs, ys in _seeded_columns())}
        assert outcomes == {"fitted", "TooFewPoints", "DegenerateX", "DegenerateY",
                            "ObjectiveOverflow"}


class TestReportOnArrayClouds:
    """build_report on a cloud of float64 arrays is the list cloud's report, bit for bit.

    Under warnings-as-errors, an overflow inside numpy would surface as a
    RuntimeWarning instead of the list path's ObjectiveOverflow.
    """

    @pytest.mark.filterwarnings("error")
    def test_seeded_columns(self):
        for xs, ys in _seeded_columns():
            by_arrays = _fitted_or_error(_report, np.array(xs), np.array(ys))
            assert by_arrays == _fitted_or_error(_report, xs, ys)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40))
    def test_any_finite_columns(self, pairs):
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
        by_arrays = _fitted_or_error(_report, np.array(xs), np.array(ys))
        assert by_arrays == _fitted_or_error(_report, xs, ys)


class TestEstimatorContract:
    def test_fit_returns_self(self):
        est = GeometricLinearRegression()
        assert est.fit([0, 1], [0, 1]) is est

    def test_get_set_params(self):
        est = GeometricLinearRegression()
        assert est.get_params() == {}
        assert est.set_params() is est
        with pytest.raises(ValueError):
            est.set_params(unknown=1)

    def test_repr(self):
        assert repr(GeometricLinearRegression()) == "GeometricLinearRegression()"

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        clone = sklearn_base.clone(GeometricLinearRegression())
        assert isinstance(clone, GeometricLinearRegression)
