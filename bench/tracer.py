"""In-memory span tracing of geomfit's layers, from outside the package.

Each layer is traced by replacing a public function at the name its caller
looks up (``geomfit.cli.fit``, ``geomfit.dataio.parse``, a method on
``GeometricLinearRegression``) with a wrapper that records a span, and by
putting the original back afterwards.  No file under ``src/`` is touched.  A
name that no longer exists in the package under test marks its layer as
absent instead of failing the run.

A span is ``[name, start, end, parent index, op id, ok]``, its times in
process CPU seconds, the clock the workloads time their calls with.  A
layer's self time is its span's duration minus the durations of its direct
child spans; calls are single-threaded and properly nested, so those
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import process_time

# (layer, module, attribute path).  A layer may be reached under several
# names; each one its callers use is wrapped.
SPAN_TARGETS = [
    ("cli.run", "geomfit.cli", "run"),
    ("dataio.parse", "geomfit.dataio", "parse"),
    ("regress.fit", "geomfit.cli", "fit"),
    ("regress.fit", "geomfit.estimator", "geometric_fit"),
    ("cloud.center", "geomfit.regress", "center"),
    ("correlate.correlate", "geomfit.cli", "correlate"),
    ("correlate.correlate", "geomfit.estimator", "correlate"),
    ("diagnostics.orthogonality_report", "geomfit.cli", "orthogonality_report"),
    ("diagnostics.sse", "geomfit.estimator", "residual_sse"),
    ("estimator.fit", "geomfit.estimator", "GeometricLinearRegression.fit"),
    ("estimator.predict", "geomfit.estimator", "GeometricLinearRegression.predict"),
    ("estimator.score", "geomfit.estimator", "GeometricLinearRegression.score"),
    ("svgplot.render_svg", "geomfit.cli", "render_svg"),
    ("oracle.grid_search_fit", "geomfit.cli", "grid_search_fit"),
    ("cli.render_report", "geomfit.cli", "render_report"),
]

# Counted, not timed: a span per call would cost more than the call.
VECTOR_INIT = ("vectors.Vector", "geomfit.vectors", "Vector.__init__")
# Every evaluation of the oracle's objective is one ``fsum`` looked up in
# ``geomfit.oracle``; each ``grid_search_fit`` call makes one more for the
# centroid.
ORACLE_FSUM = ("oracle.fsum", "geomfit.oracle", "fsum")

LAYERS = sorted({layer for layer, _, _ in SPAN_TARGETS})


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Wraps geomfit's layer functions and records spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, process_time(), None, parent, self.op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = process_time()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        record = self._open("op")
        try:
            yield
            record[5] = True
        finally:
            self._close(record)
            self.op_id = None

    def _span_wrapper(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
                record[5] = True
            finally:
                tracer._close(record)
            tracer._after(layer, args, result)
            return result

        return wrapper

    def _after(self, layer: str, args: tuple, result) -> None:
        if layer == "dataio.parse":
            self.counts["dataio.parse.rows"] += len(result)
        elif layer == "svgplot.render_svg":
            self.counts["svgplot.render_svg.bytes"] += len(result.encode("utf-8"))
        elif layer == "oracle.grid_search_fit":
            self.counts["oracle.points"] += len(args[0])

    def _vector_init(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(vector, *args, **kwargs):
            fn(vector, *args, **kwargs)
            counts["vectors.components_built"] += len(vector)

        return wrapper

    def _oracle_fsum(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["oracle.fsum_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, layer: str, module: str, path: str, make_wrapper) -> None:
        found = _resolve(module, path)
        if found is None:
            return
        owner, attr, original = found
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        self.present.add(layer)

    def install(self) -> None:
        for layer, module, path in SPAN_TARGETS:
            self._patch(layer, module, path, functools.partial(self._span_wrapper, layer))
        self._patch(*VECTOR_INIT, self._vector_init)
        self._patch(*ORACLE_FSUM, self._oracle_fsum)

    def restore(self) -> None:
        """Put back every original; spans and counts are kept."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per layer."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[k]
        return inclusive, own

    def parse_seconds_ok(self) -> float:
        """Seconds spent in parse calls that returned a cloud."""
        return sum(end - start for name, start, end, _, _, ok in self.spans
                   if name == "dataio.parse" and ok)

    def write(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

    def absent(self) -> list[str]:
        named = LAYERS + [VECTOR_INIT[0], ORACLE_FSUM[0]]
        return [layer for layer in named if layer not in self.present]


def per_layer(tracer: Tracer, op_seconds: float, ops: int,
              overhead_ratio: float) -> tuple[dict, dict]:
    """(metrics for the result line, absolute per-layer details).

    ``op_seconds`` and ``ops`` are the timed seconds and the number of the
    traced operations; ``overhead_ratio`` is traced over untraced op time.
    Result-line values are per operation: a layer's share of timed op time,
    or a count.  A layer the workload never calls reads 0.  The details give
    the same layers in seconds per operation.
    """
    inclusive, own = tracer.layer_times()
    c = tracer.counts
    fsum_calls = c["oracle.fsum_calls"]
    grid_calls = sum(1 for s in tracer.spans if s[0] == "oracle.grid_search_fit")
    objective_evals = fsum_calls - grid_calls if fsum_calls else 0
    # Every grid_search_fit call in one workload sees the same cloud size.
    per_call_points = c["oracle.points"] / grid_calls if grid_calls else 0.0
    parse_ok_s = tracer.parse_seconds_ok()

    def share(layer, table=inclusive):
        return table.get(layer, 0.0) / op_seconds

    ratio, count, unit_bytes = "ratio", "count", "bytes"
    metrics = {
        "dataio.parse.share": (share("dataio.parse"), ratio),
        "cloud.center.share": (share("cloud.center"), ratio),
        "regress.fit.self_share": (share("regress.fit", own), ratio),
        "correlate.correlate.share": (share("correlate.correlate"), ratio),
        "diagnostics.orthogonality_report.share": (
            share("diagnostics.orthogonality_report"), ratio),
        "diagnostics.sse.share": (share("diagnostics.sse"), ratio),
        "vectors.components_built": (c["vectors.components_built"] / ops, count),
        "estimator.fit.self_share": (share("estimator.fit", own), ratio),
        "estimator.predict.share": (share("estimator.predict"), ratio),
        "estimator.score.share": (share("estimator.score"), ratio),
        "svgplot.render_svg.share": (share("svgplot.render_svg"), ratio),
        "svgplot.render_svg.bytes": (c["svgplot.render_svg.bytes"] / ops, unit_bytes),
        "oracle.grid_search_fit.share": (share("oracle.grid_search_fit"), ratio),
        "oracle.objective_evals": (objective_evals / ops, count),
        "oracle.point_evals": (objective_evals * per_call_points / ops, count),
        "cli.render_report.share": (share("cli.render_report"), ratio),
        "cli.run.self_share": (share("cli.run", own), ratio),
        "tracing_overhead_ratio": (overhead_ratio, ratio),
    }
    details = {f"{layer}.s": inclusive.get(layer, 0.0) / ops for layer in LAYERS}
    details.update({f"{layer}.self_s": own.get(layer, 0.0) / ops for layer in LAYERS})
    details["dataio.parse.rows_per_s"] = (
        c["dataio.parse.rows"] / parse_ok_s if parse_ok_s else 0.0)
    details["traced_ops"] = ops
    details["absent_layers"] = tracer.absent()
    return ({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, details)
