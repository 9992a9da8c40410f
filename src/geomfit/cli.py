"""Command-line front end.

Subcommands:

* ``fit``      -- fit a dataset and print a text or JSON report
* ``plot``     -- emit an SVG scatter plot with the fitted line
* ``verify``   -- cross-check the analytic fit against the brute-force search
* ``examples`` -- write the two bundled demo datasets to disk

Exit codes (the README lists every cause):

* 0 -- success
* 2 -- usage error: a bad option value, input or output path, delimiter or plot size
* 3 -- data error (a bad or degenerate cloud, a float64 overflow), failed I/O, verify without numpy
* 4 -- verification failure: the search disagrees with the analytic fit or ends on its box's edge
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import sys
from collections.abc import Iterable
from contextlib import nullcontext

from . import dataio
from .cloud import PointCloud
from .correlate import correlate
from .diagnostics import orthogonality_report
from .errors import BoxTooSmall, GeomfitError
from .oracle import default_box, grid_search_fit
from .regress import fit
from .svgplot import MAX_SIZE_PX, MIN_SIZE_PX, size_ok, svg_chunks

__all__ = ["build_report", "render_report", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

VERIFY_SLOPE_TOLERANCE = 1e-5


def _equation(a: float, b: float) -> str:
    """Presentation-only 4-decimal form of the fitted line."""
    sign = "+" if b >= 0 else "-"
    return f"y = {a:.4f}x {sign} {abs(b):.4f}"


def build_report(cloud: PointCloud) -> dict:
    """The fit report as one mapping whose key order is the JSON contract."""
    f = fit(cloud)
    corr = correlate(f.centered)
    diag = orthogonality_report(f)
    return {
        "n": len(cloud),
        "centroid_x": f.centered.centroid_x,
        "centroid_y": f.centered.centroid_y,
        "a": f.slope,
        "b": f.intercept,
        "equation": _equation(f.slope, f.intercept),
        "theta_deg": corr.theta_deg,
        "r": corr.r,
        "class": corr.cls.value,
        "sse": diag.sse,
        "residual_dot_i_normalized": diag.residual_dot_i_normalized,
        "ones_dot_i_normalized": diag.ones_dot_i_normalized,
        "ones_dot_u_normalized": diag.ones_dot_u_normalized,
    }


_TEXT_REPORT = """\
n:          {n}
centroid:   ({centroid_x:.4f}, {centroid_y:.4f})
a = {a:.4f}
b = {b:.4f}
equation:   {equation}
theta_deg:  {theta_deg:.2f}
r:          {r:.6g}
class:      {class}
sse:        {sse:.6g}
residual_dot_i (normalized): {residual_dot_i_normalized:.3e}
ones_dot_i (normalized):     {ones_dot_i_normalized:.3e}
ones_dot_u (normalized):     {ones_dot_u_normalized:.3e}
"""


@functools.cache  # built by the first JSON report, so that a text report never loads json
def _json_items_encoder():
    """json.dumps(indent=2) of a flat non-empty mapping, by the C encoder that indent turns off."""
    import json
    return json.JSONEncoder(separators=(",\n  ", ": "))


def render_report(report: dict, fmt: str = "text") -> str:
    """Serialize a report deterministically.

    JSON is ``json.dumps(report, indent=2)``, full precision in the report's
    key order; the text form is rounded for reading (slope/intercept at 4 decimals, angle at 2).
    """
    if fmt == "json":
        if report and not any(isinstance(v, (dict, list, tuple)) for v in report.values()):
            return "{\n  " + _json_items_encoder().encode(report)[1:-1] + "\n}\n"
        import json
        return json.dumps(report, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    return _TEXT_REPORT.format_map(report)


def _column(value: str) -> int | str:
    try:
        return int(value)
    except ValueError:
        return value


def _pixels(value: str) -> int:
    try:
        size = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if not size_ok(size):
        raise argparse.ArgumentTypeError(
            f"must be between {MIN_SIZE_PX} and {MAX_SIZE_PX:g} px, got {size}")
    return size


def _path(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    if "\x00" in value:
        raise argparse.ArgumentTypeError("must not contain a NUL byte")
    return value


@functools.cache  # argparse keeps no state between parse_args calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomfit",
        description="Least-squares line fitting via centroid translation and vector projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", type=_path, required=True, help="path to a delimited dataset")
        p.add_argument("--x-col", type=_column, default=0, help="x column index or header name")
        p.add_argument("--y-col", type=_column, default=1, help="y column index or header name")
        p.add_argument("--delimiter", default=",", help="field delimiter (single character)")

    p_fit = sub.add_parser("fit", help="fit a dataset and print a report")
    add_io_options(p_fit)
    p_fit.add_argument("--format", choices=("text", "json"), default="text")
    p_fit.add_argument("--output", type=_path, help="write the report here instead of stdout")
    p_fit.add_argument("--verify", action="store_true",
                       help="also cross-check the slope against the brute-force search")

    p_plot = sub.add_parser("plot", help="emit an SVG scatter plot with the fitted line")
    add_io_options(p_plot)
    p_plot.add_argument("--output", type=_path, help="write the SVG here instead of stdout")
    p_plot.add_argument("--width", type=_pixels, default=640)
    p_plot.add_argument("--height", type=_pixels, default=480)

    p_verify = sub.add_parser("verify", help="cross-check the analytic fit against the search oracle")
    add_io_options(p_verify)

    p_examples = sub.add_parser("examples", help="write the bundled demo datasets to disk")
    p_examples.add_argument("--output", type=_path, default=".", help="directory for the CSV files")

    return parser


def _verify_fit(cloud: PointCloud, a: float, b: float) -> tuple[bool, float, float]:
    oracle_a, oracle_b = grid_search_fit(cloud, default_box(a, b))
    return abs(a - oracle_a) <= VERIFY_SLOPE_TOLERANCE, oracle_a, oracle_b


def _emit(chunks: Iterable[str], output: str | None) -> None:
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as out:
        out.writelines(chunks)  # each chunk as it comes


def run(argv: list[str]) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "x_col" in args:  # every subcommand but examples reads a dataset
            try:
                spec = dataio.DatasetSpec(args.delimiter, x_col=args.x_col, y_col=args.y_col)
            except ValueError as exc:
                parser.error(str(exc))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    searches = args.command == "verify" or getattr(args, "verify", False)
    if searches and importlib.util.find_spec("numpy") is None:  # the search runs on numpy
        print("error: verify needs numpy, which is not installed (pip install 'geomfit[numpy]')",
              file=sys.stderr)
        return EXIT_DATA

    try:
        if args.command == "examples":
            from pathlib import Path  # here, so that the other commands never load it
            out_dir = Path(args.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name in dataio.EXAMPLE_DATASETS:
                (out_dir / name).write_text(dataio.example_csv_text(name), encoding="utf-8")
                print(f"wrote {out_dir / name}")
            return EXIT_OK

        # utf-8-sig drops a leading BOM; the default newline mode ends a line
        # at \n, \r\n or a lone \r.  parse reads the file a chunk of lines at a time.
        with open(args.input, encoding="utf-8-sig") as source:
            cloud = dataio.parse(spec, source)
        if args.command == "fit":
            report = build_report(cloud)
            _emit([render_report(report, args.format)], args.output)
            if args.verify:
                ok, oracle_a, _ = _verify_fit(cloud, report["a"], report["b"])
                if not ok:
                    print(f"verification failed: slope {report['a']} vs oracle {oracle_a}",
                          file=sys.stderr)
                    return EXIT_VERIFY
            return EXIT_OK

        if args.command == "plot":
            _emit(svg_chunks(cloud, fit(cloud), args.width, args.height), args.output)
            return EXIT_OK

        if args.command == "verify":
            fit_result = fit(cloud)
            ok, oracle_a, oracle_b = _verify_fit(cloud, fit_result.slope, fit_result.intercept)
            print(f"analytic: a = {fit_result.slope!r}, b = {fit_result.intercept!r}")
            print(f"search:   a = {oracle_a!r}, b = {oracle_b!r}")
            if not ok:
                print("verification failed", file=sys.stderr)
                return EXIT_VERIFY
            print("verification passed")
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command!r}")
    except BoxTooSmall as exc:  # the search could not confirm the analytic fit
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (GeomfitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
