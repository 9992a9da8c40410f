"""Scikit-learn style estimator wrapper around the geometric fit, which it runs on a
``PointCloud`` of its validated float64 columns.  Duck-typed to the sklearn contract
(``fit``/``predict``/``score``, ``get_params``/``set_params``) without importing sklearn.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud, quiet_overflow
from .correlate import correlate
from .diagnostics import sse as residual_sse
from .regress import fit as geometric_fit

__all__ = ["GeometricLinearRegression"]


def _as_1d_column(X, name: str) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError(
            f"{name} must be 1-d or a single-column 2-d array, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Paired inputs of ``fit`` and ``score``: two columns of one length."""
    xs, ys = _as_1d_column(X, "X"), _as_1d_column(y, "y")
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"X and y length mismatch: {xs.shape[0]} vs {ys.shape[0]}")
    return xs, ys


class GeometricLinearRegression:
    """Single-feature least-squares line, fitted by orthogonal projection.

    Fitted attributes: ``slope_``, ``intercept_``, ``theta_deg_``, ``r_``,
    ``correlation_class_``, ``sse_``, ``n_points_``.
    """

    def fit(self, X, y):
        cloud = PointCloud(*_xy(X, y))  # float64 columns, centered and multiplied as arrays
        with quiet_overflow(cloud):
            result = geometric_fit(cloud)
            corr = correlate(result.centered)
            sse = residual_sse(result)
        self.slope_ = result.slope
        self.intercept_ = result.intercept
        self.theta_deg_ = corr.theta_deg
        self.r_ = corr.r
        self.correlation_class_ = corr.cls.value
        self.sse_ = sse
        self.n_points_ = len(cloud)
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "slope_"):
            raise RuntimeError("estimator is not fitted; call fit(X, y) first")

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        return self.slope_ * _as_1d_column(X, "X") + self.intercept_

    def score(self, X, y) -> float:
        """Coefficient of determination R^2."""
        xs, ys = _xy(X, y)
        self._check_fitted()
        res = ys - (self.slope_ * xs + self.intercept_)
        dev = ys - ys.sum() / len(ys)  # ys.mean(), without its Python-level wrapper
        ss_res, ss_tot = float((res * res).sum()), float((dev * dev).sum())
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    def get_params(self, deep: bool = True) -> dict:
        return {}

    def set_params(self, **params):
        if params:
            raise ValueError(f"unknown parameters: {sorted(params)}")
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
