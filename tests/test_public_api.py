"""The package namespace: the names the README documents, the names the
acceptance suite imports, and the error classes; the plain classes' read-only
attributes, reprs and copies; and every name the benchmark's tracer wraps still resolves."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import geomfit

_ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "PointCloud", "FitResult", "center", "fit", "correlate", "r_cosine", "r_textbook", "theta",
    "orthogonality_report", "residuals", "dot", "norm", "norm_sq",
    "SearchBox", "grid_search_fit", "sse_of", "render_svg", "svg_chunks",
    "GeomfitError", "DimensionMismatch", "TooFewPoints", "DegenerateX", "DegenerateY",
    "DataError", "ParseError", "EmptyDataset", "ColumnNotFound", "RaggedRow", "BoxTooSmall",
    "ObjectiveOverflow",
    "__version__",
]


def test_all_is_the_documented_surface():
    assert sorted(geomfit.__all__) == sorted(PUBLIC)
    assert len(geomfit.__all__) == len(set(geomfit.__all__)) == 31
    for name in geomfit.__all__:
        assert getattr(geomfit, name) is not None, name


def test_star_import_binds_exactly_all_without_numpy():
    script = """
import sys
sys.modules["numpy"] = None
before = set(dir())
from geomfit import *
import geomfit
print(sorted(set(dir()) - before - {"before", "geomfit"}) == sorted(geomfit.__all__))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(_ROOT / "src")})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    import tracer

    tr = tracer.Tracer()
    tr.install()
    tr.restore()
    # The CLI streams its SVG through svg_chunks and no longer imports render_svg,
    # so the wrap of geomfit.cli.render_svg finds nothing; no other layer may go.
    assert set(tr.absent()) <= {"svgplot.render_svg"}


def test_plain_classes_are_read_only_print_their_fields_and_copy():
    from geomfit.dataio import DatasetSpec
    from geomfit.vectors import Vector

    box = geomfit.SearchBox(0.0, 1.0, -2.0, 2.0)
    assert repr(box) == "SearchBox(a_min=0.0, a_max=1.0, b_min=-2.0, b_max=2.0)"
    assert repr(DatasetSpec()) == "DatasetSpec(delimiter=',', has_header=None, x_col=0, y_col=1)"
    cloud = geomfit.PointCloud([1, 3], [2, 2])
    f = geomfit.fit(cloud)
    assert repr(f) == (
        "FitResult(slope=0.0, intercept=2.0, centered=CenteredCloud(centroid_x=2.0, "
        "centroid_y=2.0, i_vec=[-1.0, 1.0], u_vec=[0.0, 0.0]))")
    for obj, name in [(box, "a_min"), (DatasetSpec(), "delimiter"), (cloud, "xs"),
                      (f, "slope"), (f.centered, "i_vec"), (Vector([1.0]), "components")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is not None
        for copied in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(copied) is type(obj) and repr(copied) == repr(obj)
