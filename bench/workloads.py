"""Seeded inputs, timed operations and output checks for each workload.

Every workload is one closed loop with one client: an operation starts only
after the previous one has returned.  Inputs are generated from the seed at
set-up, written under a scratch directory, and fingerprinted with sha256 so
two runs with one seed are provably on identical inputs.  Every timed call
goes through geomfit's public API, looked up at call time so that a tracer
can wrap it.  Calls are timed in the process's CPU time.  Output checks run
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple
from time import process_time

import numpy as np

import geomfit
from geomfit import cli

REL_TOL = 1e-9
HEADER = "id,dose,batch,response"
X_COL, Y_COL = "dose", "response"
Y_COLUMN_NUMBER = HEADER.split(",").index(Y_COL) + 1  # 1-based, as errors name it
BAD_FIELD = "n/a"
LIB_HASHED_CLOUDS = 200
LIB_N_MIN = 5


@dataclass(frozen=True)
class Sizes:
    cli_rows: int = 100_000
    verify_rows: int = 2_000
    lib_clouds: int = 2_000
    lib_n_max: int = 2_000


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """x uniform on [0, 100), y on a seeded line plus noise (|r| about 0.95)."""
    slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 5.0)
    intercept = rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 100.0)
    x = rng.uniform(0.0, 100.0, n)
    y = slope * x + intercept + rng.normal(0.0, 10.0 * abs(slope), n)
    return x, y


def _reference(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(a, b, r) computed without geomfit."""
    a, b = np.polyfit(x, y, 1)
    return float(a), float(b), float(np.corrcoef(x, y)[0, 1])


def _close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=REL_TOL)


def _csv_lines(rng: np.random.Generator, n: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    x, y = _line(rng, n)
    batch = rng.integers(1, 10, n)
    lines = [HEADER] + [
        f"{i},{xv!r},{bv},{yv!r}"
        for i, (xv, bv, yv) in enumerate(zip(x.tolist(), batch.tolist(), y.tolist()), 1)
    ]
    return lines, x, y


def _write(path: Path, lines: list[str]) -> str:
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return _sha256(data)


def _cli_call(argv: list[str]) -> tuple[int, str, str, float]:
    """One timed ``geomfit.cli.run``: (exit code, stdout, stderr, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = process_time()
        code = cli.run(argv)
        seconds = process_time() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _report_matches(text: str | bytes, ref: tuple[float, float, float], n: int) -> bool:
    """The JSON report's n, a, b and r agree with the reference."""
    try:
        payload = json.loads(text)
    except ValueError:
        return False
    return payload.get("n") == n and all(
        _close(payload.get(key, math.nan), value) for key, value in zip("abr", ref))


class Call(NamedTuple):
    """One timed call: CPU seconds, input points, and whether its checks passed."""

    seconds: float
    points: int
    ok: bool


class Workload:
    """Base: ``op(i)`` runs operation ``i``, one timed call of ``kind``."""

    name = ""
    kind = ""

    def __init__(self):
        self.inputs_sha256: dict[str, str] = {}
        self.outputs_sha256: dict[str, str] = {}

    def _output_hash(self, name: str, data: bytes) -> bool:
        """Record the first output of a name; later ones must be byte-identical."""
        digest = _sha256(data)
        return self.outputs_sha256.setdefault(name, digest) == digest


class CliFile(Workload):
    """One CLI call on a 100,000-row CSV, repeated.

    ``fit`` is ``fit --format json``, ``plot`` is ``plot``, and ``reject`` is
    ``fit --format json`` on a copy with one non-numeric field near row
    95,000.  One seed gives all three the same rows.
    """

    def __init__(self, seed: int, scratch: Path, sizes: Sizes):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        n = sizes.cli_rows
        lines, x, y = _csv_lines(rng, n)
        self.n = n
        self.ref = _reference(x, y)
        row = int(rng.integers(int(0.945 * n), int(0.955 * n)))  # 0-based data row
        self.bad_line = row + 2  # the header is line 1
        if self.kind == "reject":
            fields = lines[row + 1].split(",")
            fields[Y_COLUMN_NUMBER - 1] = BAD_FIELD
            lines[row + 1] = ",".join(fields)
            path = scratch / "cloud_bad.csv"
        else:
            path = scratch / "cloud.csv"
        self.inputs_sha256[path.name] = _write(path, lines)
        self.out = scratch / ("plot.svg" if self.kind == "plot" else "fit.json")
        command = ["plot"] if self.kind == "plot" else ["fit", "--format", "json"]
        self.argv = [*command, "--input", str(path), "--x-col", X_COL, "--y-col", Y_COL,
                     "--output", str(self.out)]

    def check(self, code: int, err: str) -> bool:
        raise NotImplementedError

    def op(self, i: int) -> Call:
        self.out.unlink(missing_ok=True)
        code, _, err, seconds = _cli_call(self.argv)
        return Call(seconds, self.n, self.check(code, err))


class CliFit(CliFile):
    name, kind = "cli_fit_100k", "fit"

    def check(self, code: int, err: str) -> bool:
        if code != cli.EXIT_OK or not self.out.exists():
            return False
        data = self.out.read_bytes()
        return self._output_hash("fit.json", data) and _report_matches(data, self.ref, self.n)


class CliPlot(CliFile):
    name, kind = "cli_plot_100k", "plot"

    def check(self, code: int, err: str) -> bool:
        if code != cli.EXIT_OK or not self.out.exists():
            return False
        data = self.out.read_bytes()
        return self._output_hash("plot.svg", data) and data.count(b"<circle") == self.n


class CliReject(CliFile):
    name, kind = "cli_reject_100k", "reject"

    def check(self, code: int, err: str) -> bool:
        return (code == cli.EXIT_DATA and not self.out.exists()
                and f"line {self.bad_line}, column {Y_COLUMN_NUMBER}:" in err)


class CliVerify(Workload):
    """``verify`` on a small file: the brute-force oracle carries the call."""

    name, kind = "cli_verify_2k", "verify"

    def __init__(self, seed: int, scratch: Path, sizes: Sizes):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        self.n = sizes.verify_rows
        lines, _, _ = _csv_lines(rng, self.n)
        path = scratch / "verify.csv"
        self.inputs_sha256["verify.csv"] = _write(path, lines)
        self.argv = ["verify", "--input", str(path), "--x-col", X_COL, "--y-col", Y_COL]

    def op(self, i: int) -> Call:
        code, out, _, seconds = _cli_call(self.argv)
        ok = code == cli.EXIT_OK and "verification passed" in out
        return Call(seconds, self.n, ok and self._output_hash("verify.txt", out.encode("utf-8")))


class LibSmallBatch(Workload):
    """Estimator fit/predict/score and a JSON report on many small clouds."""

    name, kind = "lib_small_batch", "cloud"

    def __init__(self, seed: int, scratch: Path, sizes: Sizes):
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        count = sizes.lib_clouds
        # Stratified log-uniform sizes: one draw per equal slice of
        # [log n_min, log n_max], so the size mix barely moves between seeds.
        u = (np.arange(count) + rng.random(count)) / count
        lo, hi = math.log(LIB_N_MIN), math.log(sizes.lib_n_max)
        sizes_n = np.rint(np.exp(lo + u * (hi - lo))).astype(int)
        rng.shuffle(sizes_n)
        self.clouds = []
        digest = hashlib.sha256()
        for n in sizes_n.tolist():
            x, y = _line(rng, n)
            digest.update(x.tobytes())
            digest.update(y.tobytes())
            self.clouds.append((x, x[:, None], y, _reference(x, y)))
        self.inputs_sha256["clouds"] = digest.hexdigest()
        self.hashed = min(LIB_HASHED_CLOUDS, count)
        self.json_digest = hashlib.sha256()

    def op(self, i: int) -> Call:
        x, X, y, ref = self.clouds[i % len(self.clouds)]
        start = process_time()
        est = geomfit.GeometricLinearRegression().fit(X, y)
        pred = est.predict(X)
        score = est.score(X, y)
        text = cli.render_report(cli.build_report(geomfit.PointCloud.from_columns(x, y)), "json")
        seconds = process_time() - start
        ok = self._check(x, est, pred, score, text, ref)
        if i < self.hashed:
            self.json_digest.update(text.encode("utf-8"))
            if i == self.hashed - 1:
                self.outputs_sha256[f"report.json of the first {self.hashed} clouds"] = \
                    self.json_digest.hexdigest()
        return Call(seconds, len(x), ok)

    @staticmethod
    def _check(x, est, pred, score, text, ref) -> bool:
        a, b, r = ref
        if not (_close(est.slope_, a) and _close(est.intercept_, b) and _close(est.r_, r)):
            return False
        if not np.all(np.abs(pred - (a * x + b)) <= REL_TOL * (abs(a) * np.abs(x) + abs(b))):
            return False
        if abs(score - r * r) > REL_TOL:
            return False
        return _report_matches(text, ref, len(x))


WORKLOADS = {w.name: w for w in (CliFit, CliPlot, CliReject, LibSmallBatch, CliVerify)}
