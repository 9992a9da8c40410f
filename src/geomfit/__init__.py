"""Geometric least-squares line fitting.

Center a 2-D point cloud at its centroid, treat the centered columns as
vectors in n-dimensional space, and read the regression slope off the
orthogonal projection of the response vector onto the predictor vector.
The correlation coefficient falls out as the cosine of the angle between
the two vectors.
"""

from .cloud import PointCloud, center
from .correlate import correlate, r_cosine, r_textbook, theta
from .diagnostics import orthogonality_report, residuals
from .errors import (
    BoxTooSmall, ColumnNotFound, DataError, DegenerateX, DegenerateY, DimensionMismatch,
    EmptyDataset, GeomfitError, ObjectiveOverflow, ParseError, RaggedRow, TooFewPoints,
)
from .oracle import SearchBox, grid_search_fit, sse_of
from .regress import FitResult, fit
from .svgplot import render_svg, svg_chunks
from .vectors import dot, norm, norm_sq

__version__ = "0.1.0"


def __getattr__(name: str):
    # The estimator needs numpy: import it on first use (PEP 562), so that
    # `geomfit fit` and `geomfit plot` never load numpy.  It is left out of
    # `__all__`, so `from geomfit import *` works where numpy is not installed.
    if name == "GeometricLinearRegression":
        from .estimator import GeometricLinearRegression
        return GeometricLinearRegression
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PointCloud", "FitResult", "center", "fit", "correlate", "r_cosine", "r_textbook", "theta",
    "orthogonality_report", "residuals", "dot", "norm", "norm_sq",
    "SearchBox", "grid_search_fit", "sse_of", "render_svg", "svg_chunks",
    "GeomfitError", "DimensionMismatch", "TooFewPoints", "DegenerateX",
    "DegenerateY", "DataError", "ParseError", "EmptyDataset", "ColumnNotFound",
    "RaggedRow", "BoxTooSmall", "ObjectiveOverflow",
    "__version__",
]
