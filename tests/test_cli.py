import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomfit
from geomfit import cli
from geomfit.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_report,
    render_report,
    run,
)
from geomfit.dataio import EXAMPLE_DATASETS, example_csv_text
from geomfit.errors import BoxTooSmall
from geomfit.regress import fit

from conftest import EX1, EX2, random_cloud

_SRC = Path(geomfit.__file__).resolve().parent.parent


@pytest.fixture()
def ex1_csv(tmp_path):
    path = tmp_path / "example1_amarante.csv"
    path.write_text(example_csv_text("example1_amarante.csv"), encoding="utf-8")
    return path


@pytest.fixture()
def ex2_csv(tmp_path):
    path = tmp_path / "example2_infections.csv"
    path.write_text(example_csv_text("example2_infections.csv"), encoding="utf-8")
    return path


@pytest.fixture()
def constant_x_csv(tmp_path):
    path = tmp_path / "constant_x.csv"
    path.write_text("x,y\n4,1\n4,2\n4,3\n", encoding="utf-8")
    return path


class TestFitCommand:
    def test_text_report_example1(self, ex1_csv, capsys):
        assert run(["fit", "--input", str(ex1_csv)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a = -9.7069" in out
        assert "b = 226.4557" in out
        assert "theta_deg:  160.68" in out

    def test_json_report_example2(self, ex2_csv, capsys):
        assert run(["fit", "--input", str(ex2_csv), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == pytest.approx(EX2["a"], abs=0.01)
        assert payload["b"] == pytest.approx(EX2["b"], abs=0.5)
        # frozen from the anchored quotient 261980/262579.265; the published
        # 3.62 comes from rounding the cosine first (see the example-2 note
        # in README.md)
        assert payload["theta_deg"] == pytest.approx(EX2["theta_deg"], abs=0.05)

    def test_degenerate_x_exit_code(self, constant_x_csv, capsys):
        assert run(["fit", "--input", str(constant_x_csv)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "x" in err.lower()

    @pytest.mark.parametrize("command", ["fit", "plot"])
    def test_distinct_x_whose_square_overflows(self, command, tmp_path, capsys):
        path = tmp_path / "huge_x.csv"
        path.write_text("x,y\n1e155,1\n1.000001e155,2\n", encoding="utf-8")
        assert run([command, "--input", str(path)]) == EXIT_OK

    def test_missing_file(self, tmp_path, capsys):
        assert run(["fit", "--input", str(tmp_path / "nope.csv")]) == EXIT_DATA

    def test_unparsable_field(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,abc\n2,3\n", encoding="utf-8")
        assert run(["fit", "--input", str(path)]) == EXIT_DATA

    def test_verify_flag_passes(self, ex1_csv, capsys):
        assert run(["fit", "--input", str(ex1_csv), "--verify"]) == EXIT_OK

    def test_output_file(self, ex1_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert (
            run(["fit", "--input", str(ex1_csv), "--format", "json",
                 "--output", str(out_path)])
            == EXIT_OK
        )
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["n"] == 12

    def test_bom_before_numeric_first_row_keeps_the_row(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff1,2\n2,4.1\n3,5.9\n4,8.2\n".encode("utf-8"))
        assert run(["fit", "--input", str(path), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n"] == 4

    def test_bom_before_header_keeps_column_names(self, tmp_path, capsys):
        path = tmp_path / "bom_header.csv"
        path.write_bytes("\ufeffx,y\n1,2\n2,4.1\n3,5.9\n".encode("utf-8"))
        assert run(["fit", "--input", str(path), "--x-col", "x", "--y-col", "y"]) == EXIT_OK
        assert "n:          3" in capsys.readouterr().out

    def test_json_key_order_fixed(self, ex1_csv, capsys):
        run(["fit", "--input", str(ex1_csv), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "n", "centroid_x", "centroid_y", "a", "b", "equation",
            "theta_deg", "r", "class", "sse",
            "residual_dot_i_normalized", "ones_dot_i_normalized",
            "ones_dot_u_normalized",
        ]


class TestJsonConsistency:
    def test_independent_checks_on_reparsed_json(self, ex1_csv, capsys):
        run(["fit", "--input", str(ex1_csv), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["r"] - math.cos(math.radians(payload["theta_deg"]))) <= 1e-9
        predicted = payload["a"] * payload["centroid_x"] + payload["b"]
        assert predicted == pytest.approx(payload["centroid_y"], rel=1e-6)
        for key, value in payload.items():
            if isinstance(value, float):
                assert math.isfinite(value), key


class TestEquationString:
    def test_round_trips_at_four_decimals(self, ex1_cloud):
        report = build_report(ex1_cloud)
        match = re.fullmatch(
            r"y = (-?\d+\.\d{4})x ([+-]) (\d+\.\d{4})", report["equation"]
        )
        assert match
        a = float(match.group(1))
        b = float(match.group(3)) * (1 if match.group(2) == "+" else -1)
        assert a == round(report["a"], 4)
        assert b == round(report["b"], 4)


class TestRenderReport:
    def test_text_deterministic(self, ex1_cloud):
        report = build_report(ex1_cloud)
        assert render_report(report, "text") == render_report(report, "text")

    @pytest.mark.parametrize("seed", range(6))
    def test_json_is_json_dumps_indent_2(self, ex1_cloud, ex2_cloud, seed):
        rng = random.Random(seed)
        cloud = [ex1_cloud, ex2_cloud][seed % 2] if seed < 2 else random_cloud(rng)
        report = build_report(cloud)
        assert render_report(report, "json") == json.dumps(report, indent=2) + "\n"

    @given(st.dictionaries(
        st.text(min_size=0, max_size=8),
        st.recursive(  # mostly flat reports; also empty and nested ones
            st.one_of(
                st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=8),
                st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, "é", "\u2603"]),
            ),
            lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=4), kids, max_size=3),
            max_leaves=4,
        ),
        max_size=14,
    ))
    def test_json_of_any_report(self, report):
        assert render_report(report, "json") == json.dumps(report, indent=2) + "\n"

    def test_json_full_precision(self, ex1_cloud):
        report = build_report(ex1_cloud)
        payload = json.loads(render_report(report, "json"))
        assert payload["a"] == report["a"]
        assert payload["r"] == report["r"]

    def test_unknown_format_rejected(self, ex1_cloud):
        with pytest.raises(ValueError):
            render_report(build_report(ex1_cloud), "yaml")


class TestPlotCommand:
    def test_byte_identical_svg(self, ex1_csv, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert run(["plot", "--input", str(ex1_csv), "--output", str(out1)]) == EXIT_OK
        assert run(["plot", "--input", str(ex1_csv), "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_custom_size(self, ex1_csv, tmp_path):
        out = tmp_path / "c.svg"
        assert (
            run(["plot", "--input", str(ex1_csv), "--output", str(out),
                 "--width", "300", "--height", "200"])
            == EXIT_OK
        )
        assert 'width="300"' in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("y", ["1e17", "8.9e307"])
    def test_constant_y_beyond_a_unit_pad(self, tmp_path, y):
        # From |y| = 2**53 on, y + 1 rounds back to y; the pad is one ulp there.
        path, out = tmp_path / "flat.csv", tmp_path / "flat.svg"
        path.write_text(f"x,y\n0,{y}\n1,{y}\n", encoding="utf-8")
        assert run(["plot", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert out.read_text(encoding="utf-8").count('cy="230.000"') == 2


# ``verify`` stdout on the demo datasets, frozen from the all-fsum scalar
# search; the block-evaluated search must reproduce it byte for byte.
VERIFY_STDOUT = {
    "example1_amarante.csv": (
        "analytic: a = -9.706900304280841, b = 226.4556658970737\n"
        "search:   a = -9.706900304281385, b = 226.45566589708275\n"
        "verification passed\n"
    ),
    "example2_infections.csv": (
        "analytic: a = 227.80869565217392, b = 11765.60072463768\n"
        "search:   a = 227.80869565217392, b = 11765.60072463768\n"
        "verification passed\n"
    ),
}


class TestVerifyCommand:
    def test_passes_on_example1(self, ex1_csv, capsys):
        assert run(["verify", "--input", str(ex1_csv)]) == EXIT_OK
        assert "verification passed" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(VERIFY_STDOUT))
    def test_golden_stdout(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(example_csv_text(name), encoding="utf-8")
        assert run(["verify", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == VERIFY_STDOUT[name]


    # At 1e160 every grid point overflows; at 1e150 the grid does not, but
    # the parabola polish does.
    @pytest.mark.parametrize("exponent", ["160", "150"])
    def test_overflowing_objective_is_a_data_error(self, tmp_path, capsys, exponent):
        path = tmp_path / "huge_y.csv"
        rows = "".join(f"{x},{y}e{exponent}\n" for x, y in [(1, 1), (2, 2), (3, 3.5), (4, 3.9)])
        path.write_text("x,y\n" + rows, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            assert run(["verify", "--input", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "overflow" in captured.err
        # fit does not run the search: at 1e150 it still reports the data, at
        # 1e160 its own sum of squared y deviations overflows (TestFloatOverflow)
        code = run(["fit", "--input", str(path), "--format", "json"])
        if exponent == "150":
            assert code == EXIT_OK
            assert json.loads(capsys.readouterr().out)["n"] == 4
        else:
            assert code == EXIT_DATA


class TestVerificationFailure:
    """A search that disagrees with the analytic slope ends in exit 4."""

    @pytest.fixture(autouse=True)
    def off_by_one_search(self, monkeypatch):
        def search(cloud, box):
            f = fit(cloud)
            return f.slope + 1.0, f.intercept
        monkeypatch.setattr(cli, "grid_search_fit", search)

    def test_verify_exits_4(self, ex1_csv, ex1_cloud, capsys):
        assert run(["verify", "--input", str(ex1_csv)]) == EXIT_VERIFY
        f = fit(ex1_cloud)
        captured = capsys.readouterr()
        assert captured.out == (f"analytic: a = {f.slope!r}, b = {f.intercept!r}\n"
                                f"search:   a = {f.slope + 1.0!r}, b = {f.intercept!r}\n")
        assert captured.err == "verification failed\n"

    def test_fit_verify_exits_4_after_the_report(self, ex1_csv, capsys):
        assert run(["fit", "--input", str(ex1_csv), "--format", "json", "--verify"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        a = json.loads(captured.out)["a"]
        assert captured.err == f"verification failed: slope {a} vs oracle {a + 1.0}\n"


class TestSearchBoxTooSmall:
    """A search minimum at the edge of its box could not confirm the fit: exit 4."""

    REASON = "minimum at a=2.0 is outside or hugging the slope bounds"

    @pytest.fixture(autouse=True)
    def edge_minimum(self, monkeypatch):
        def search(cloud, box):
            raise BoxTooSmall(self.REASON)
        monkeypatch.setattr(cli, "grid_search_fit", search)

    def test_verify_exits_4(self, ex1_csv, capsys):
        assert run(["verify", "--input", str(ex1_csv)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verification failed: {self.REASON}\n"

    def test_fit_verify_exits_4_after_the_report(self, ex1_csv, capsys):
        assert run(["fit", "--input", str(ex1_csv), "--format", "json", "--verify"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert json.loads(captured.out)["n"] == 12
        assert captured.err == f"verification failed: {self.REASON}\n"


HUGE_Y = "x,y\n1,1e160\n2,2e160\n3,3.5e160\n4,3.9e160\n"
HUGE_X = "x,y\n1.6e308,1\n1.7e308,2\n1.65e308,3\n"


class TestFloatOverflow:
    """Data whose sums overflow float64 exit 3 with one line, never a wrong answer."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("content, what", [
        (HUGE_Y, "squared y deviations"),
        ("x,y\n1,1.7e308\n2,-1.7e308\n3,1\n", "squared y deviations"),
        (HUGE_X, "sum of x"),
    ], ids=["y_1e160", "y_opposite_1.7e308", "x_1.7e308"])
    def test_fit_exits_3(self, tmp_path, capsys, content, what, fmt):
        path = tmp_path / "huge.csv"
        path.write_text(content, encoding="utf-8")
        assert run(["fit", "--input", str(path), "--format", fmt]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert what in captured.err and "overflows float64" in captured.err

    def test_plot_reads_only_sxx_and_sxy(self, tmp_path):
        path, out = tmp_path / "huge_y.csv", tmp_path / "huge_y.svg"
        path.write_text(HUGE_Y, encoding="utf-8")
        assert run(["plot", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0a5fd6ac88bf261e27ed4db2ad5002e70b66179b89e5478b08a5caa79dbc2e5c")

    def test_plot_on_overflowing_centroid_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge_x.csv"
        path.write_text(HUGE_X, encoding="utf-8")
        assert run(["plot", "--input", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == "error: the sum of x overflows float64\n"

    def test_plot_on_overflowing_y_range_exits_3(self, tmp_path, capsys):
        # The line at the padded x ends reaches +-9.8e307, so the y range overflows.
        path, out = tmp_path / "wide_y.csv", tmp_path / "wide_y.svg"
        path.write_text("x,y\n0,-8.9e307\n1,8.9e307\n", encoding="utf-8")
        assert run(["plot", "--input", str(path), "--output", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == "error: the plot's y range overflows float64\n"
        assert not out.exists()

    def test_plot_on_overflowing_y_range_writes_nothing_to_stdout(self, tmp_path, capsys):
        # The frame is built before the first chunk is written.
        path = tmp_path / "wide_y.csv"
        path.write_text("x,y\n0,-8.9e307\n1,8.9e307\n", encoding="utf-8")
        assert run(["plot", "--input", str(path)]) == EXIT_DATA
        assert capsys.readouterr().out == ""


def test_fit_and_plot_do_not_import_numpy(tmp_path):
    csv = tmp_path / "example1_amarante.csv"
    csv.write_text(example_csv_text("example1_amarante.csv"), encoding="utf-8")
    script = f"""
import contextlib, io, sys
from geomfit.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["fit", "--input", {str(csv)!r}]) == 0
    assert run(["plot", "--input", {str(csv)!r}]) == 0
assert "numpy" not in sys.modules, "fit or plot imported numpy"
import geomfit
est = geomfit.GeometricLinearRegression().fit([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0])
assert (est.slope_, est.intercept_) == (2.0, 1.0)
assert "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert run(["verify", "--input", {str(csv)!r}]) == 0
assert "verification passed" in out.getvalue()
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(_SRC)})
    assert proc.returncode == 0, proc.stderr


def _fresh_run(*command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a command in a new interpreter on this tree."""
    proc = subprocess.run([sys.executable, *command], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(_SRC)})
    return proc.returncode, proc.stdout, proc.stderr


def test_text_fit_loads_no_dataclasses_json_or_resources(tmp_path):
    # A cold text fit is mostly start-up: it loads none of the modules that only a
    # JSON report or `examples` needs.  -S runs without site, so no .pth file can
    # preload one of them and hide an import.
    csv = tmp_path / "example1_amarante.csv"
    csv.write_text(example_csv_text("example1_amarante.csv"), encoding="utf-8")
    script = f"""
import sys
from geomfit.cli import run
assert run(["fit", "--input", {str(csv)!r}]) == 0
unwanted = {{"dataclasses", "json", "importlib.resources"}} & set(sys.modules)
assert not unwanted, sorted(unwanted)
assert run(["fit", "--input", {str(csv)!r}, "--format", "json",
            "--output", {str(tmp_path / "report.json")!r}]) == 0
assert "json" in sys.modules, "a JSON report ran without json"
"""
    code, out, err = _fresh_run("-S", "-c", script)
    assert (code, err) == (0, "")
    assert out == render_report(build_report(geomfit.dataio.load_example("example1_amarante.csv")))


def test_star_import_without_numpy():
    # numpy is an optional extra: the star import must not touch the estimator.
    script = """
import sys
sys.modules["numpy"] = None
from geomfit import *
assert "GeometricLinearRegression" not in dir()
cloud = PointCloud.from_columns([11, 12, 14, 16], [180, 175, 150, 130])
result = fit(cloud)
print(result.slope, result.intercept, correlate(result.centered).theta_deg)
import geomfit
try:
    geomfit.GeometricLinearRegression
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("the attribute imported without numpy")
try:
    from geomfit import GeometricLinearRegression
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("the from-import imported without numpy")
"""
    code, out, err = _fresh_run("-c", script)
    assert (code, err) == (0, "")
    f = fit(geomfit.PointCloud.from_columns([11, 12, 14, 16], [180, 175, 150, 130]))
    assert out.split()[:2] == [repr(f.slope), repr(f.intercept)]


@pytest.mark.parametrize("command", [["verify"], ["fit", "--verify"]],
                         ids=["verify", "fit-verify"])
def test_verify_without_numpy_exits_3(ex2_csv, command):
    script = ("import sys; sys.modules['numpy'] = None; from geomfit.cli import run; "
              "sys.exit(run(sys.argv[1:]))")
    assert _fresh_run("-c", script, *command, "--input", str(ex2_csv)) == (
        EXIT_DATA, "",
        "error: verify needs numpy, which is not installed (pip install 'geomfit[numpy]')\n")


class TestUndecodableInput:
    def test_bad_byte_exits_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x,y\n1,2\n2,3\xe9\n3,5\n")
        assert run(["fit", "--input", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1

    def test_parse_error_in_an_earlier_block_comes_first(self, tmp_path, capsys):
        # The input is read a chunk of lines at a time, so a bad byte past
        # the first chunk is met only after the parse error on line 3.
        path = tmp_path / "late_bad_byte.csv"
        path.write_bytes(b"x,y\n1,2\n2,abc\n" + b"3,4\n" * 300_000 + b"5,6\xe9\n")
        assert run(["fit", "--input", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == "error: line 3, column 2: not a finite number: 'abc'\n"


def test_repeated_runs_match_fresh_interpreters(tmp_path, monkeypatch, capsys):
    # The parser is built once per process; every later call must still
    # behave as that call does when it runs first in a new interpreter.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser.__wrapped__))
    csv = tmp_path / "example1_amarante.csv"
    csv.write_text(example_csv_text("example1_amarante.csv"), encoding="utf-8")
    calls = [
        ["fit", "--input", str(csv), "--x-col", "1", "--y-col", "1"],
        ["fit", "--format", "json", "--x-col", "1", "--y-col", "0", "--input", str(csv)],
        ["fit", "--input", str(csv)],
        ["plot", "--width", "200", "--input", str(csv)],
        ["verify", "--input", str(csv)],
        ["examples", "--output", str(tmp_path / "demo")],
    ]
    script = "import sys; from geomfit.cli import run; sys.exit(run(sys.argv[1:]))"
    codes = []
    for argv in calls:
        codes.append(run(argv))
        captured = capsys.readouterr()
        assert (codes[-1], captured.out, captured.err) == _fresh_run("-c", script, *argv), argv
    assert codes == [EXIT_USAGE] + [EXIT_OK] * 5
    assert cli._build_parser.cache_info().misses == 1


def test_python_dash_m_runs_the_cli(ex1_csv, capsys):
    argv = ["fit", "--input", str(ex1_csv)]
    assert run(argv) == EXIT_OK
    assert _fresh_run("-m", "geomfit", *argv) == (EXIT_OK, capsys.readouterr().out, "")


def test_plot_into_a_closed_pipe_exits_3(tmp_path):
    # As in `geomfit plot ... | head -c 20`: the SVG (about 1.6 MB) outgrows the
    # pipe, the reader goes away, and the failed write is one line of stderr.
    csv = tmp_path / "cloud.csv"
    rows = "".join(f"{i},{0.5 * i + (i * 7919 % 101) / 10}\n" for i in range(20_000))
    csv.write_text("x,y\n" + rows, encoding="utf-8")
    proc = subprocess.Popen([sys.executable, "-m", "geomfit", "plot", "--input", str(csv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(_SRC)})
    head = proc.stdout.read(20)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head == b'<svg xmlns="http://w'
    assert proc.returncode == EXIT_DATA
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Broken pipe" in lines[0]
    assert b"Exception ignored" not in err


class TestExamplesCommand:
    def test_writes_fixtures(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert run(["examples", "--output", str(out_dir)]) == EXIT_OK
        for name in EXAMPLE_DATASETS:
            assert (out_dir / name).is_file()
        # written files are usable inputs
        assert run(["fit", "--input", str(out_dir / "example1_amarante.csv")]) == EXIT_OK


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_input(self, capsys):
        assert run(["fit"]) == EXIT_USAGE

    def test_bad_format_value(self, ex1_csv, capsys):
        assert run(["fit", "--input", str(ex1_csv), "--format", "xml"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["plot", "--width", "50"], ""),
            (["plot", "--height", "99"], ""),
            (["fit", "--delimiter", ""], ""),
            (["fit", "--delimiter", ";;"], "got ';;'"),
            (["fit", "--delimiter", "."], "got '.'"),
            (["verify", "--delimiter", "-"], "got '-'"),
            (["plot", "--delimiter", "5"], "got '5'"),
            (["fit", "--x-col", "0", "--y-col", "0"], ""),
            (["fit", "--x-col", "-1"], "got -1"),
            (["verify", "--input", "data\x00.csv"], ""),
            (["plot", "--width", "1" + "0" * 400], ""),
            (["verify", "--input", ""], ""),
            (["fit", "--output", ""], ""),
            (["plot", "--output", ""], ""),
            (["examples", "--output", ""], ""),
        ],
        ids=["width", "height", "empty-delimiter", "long-delimiter", "decimal-point-delimiter",
             "sign-delimiter", "digit-delimiter", "same-column",
             "negative-column", "nul-in-path", "width-above-float-range", "empty-input",
             "empty-fit-output", "empty-plot-output", "empty-examples-output"],
    )
    def test_rejected_option_values(self, ex1_csv, capsys, argv, named):
        if argv[0] != "examples":  # examples takes no --input
            argv = argv + ["--input", str(ex1_csv)]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith("geomfit")
        assert named in last  # the bad value, where the case names one


_BIG_INT = "1" + "0" * 400  # above the largest float
_FIELDS = ["8.9e307", "-8.9e307", "1.7e308", "-1.7e308", "1e-320", "nan", "inf", "-inf",
           "0", "1", "-2.5", "1e160", "x", ""]
# Each option's ordinary values; one option in four gets one of _ODD_VALUES instead.
_OPTION_VALUES = {
    "--input": ["data.csv", "missing.csv", "."],
    "--output": ["out.txt", "missing/out.txt", "demo"],
    "--x-col": ["0", "1", "2", "x", "y"],
    "--y-col": ["0", "1", "2", "x", "y"],
    "--delimiter": [",", ";", "."],
    "--format": ["text", "json"],
    "--width": ["100", "640", "1" + "0" * 300],
    "--height": ["100", "480", "1" + "0" * 300],
}
_ODD_VALUES = ["", "\x00", "data.csv\x00", _BIG_INT, "-1"]
_COMMAND_OPTIONS = {
    "fit": ["--x-col", "--y-col", "--delimiter", "--format", "--output", "--verify"],
    "plot": ["--x-col", "--y-col", "--delimiter", "--output", "--width", "--height"],
    "verify": ["--x-col", "--y-col", "--delimiter"],
    "examples": ["--output"],
}
_NON_FINITE = re.compile(r"\b(?:nan|inf|NaN|Infinity)\b")


_numeric_rows = st.tuples(
    st.sampled_from(["", "e-320", "e17", "e307"]),  # x is the row index at this scale
    st.lists(st.sampled_from(["3", "-2.5", "8.9e307", "-8.9e307", "1e-320", "1e17"]),
             min_size=2, max_size=4),
).map(lambda t: [f"{i}{t[0]},{y}" for i, y in enumerate(t[1])])
_any_rows = st.lists(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=3).map(",".join),
                     max_size=5)
_csv_files = st.tuples(st.booleans(), st.one_of(_numeric_rows, _any_rows)).map(
    lambda t: (("x,y\n" if t[0] else "") + "\n".join(t[1]) + "\n").encode())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data(), content=st.one_of(_csv_files, st.binary(max_size=40)))
def test_any_argv_and_bytes_end_in_a_documented_exit(data, content):
    """Every argv and file ends in exit 0, 2, 3 or 4 without a traceback."""
    command = data.draw(st.sampled_from(list(_COMMAND_OPTIONS)))
    argv = [command] if command == "examples" else [command, "--input", "data.csv"]
    options = _COMMAND_OPTIONS[command] + ["--input", "--bogus"]
    for option in data.draw(st.lists(st.sampled_from(options), max_size=3, unique=True)):
        values = _OPTION_VALUES.get(option)
        if values and data.draw(st.integers(0, 3)) == 3:
            values = _ODD_VALUES
        argv += [option, data.draw(st.sampled_from(values))] if values else [option]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # relative paths stay in here
        try:
            Path("data.csv").write_bytes(content)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            out_file = Path("out.txt")
            written = out_file.read_text(encoding="utf-8") if out_file.is_file() else ""
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_VERIFY), argv
    if code == EXIT_DATA:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    if code == EXIT_OK:
        assert not _NON_FINITE.search(out.getvalue() + written), argv
