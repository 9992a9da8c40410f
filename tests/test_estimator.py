import numpy as np
import pytest

from geomfit.errors import DegenerateX, TooFewPoints
from geomfit.estimator import GeometricLinearRegression

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

    def test_r_squared_equals_r_r(self, ex1_cloud):
        xs, ys = list(ex1_cloud.xs), list(ex1_cloud.ys)
        est = GeometricLinearRegression().fit(xs, ys)
        assert est.score(xs, ys) == pytest.approx(est.r_**2, rel=1e-9)


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
