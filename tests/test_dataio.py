import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geomfit import dataio
from geomfit.cloud import PointCloud
from geomfit.dataio import (
    DatasetSpec,
    auto_detect_header,
    example_csv_text,
    load_example,
    parse,
)
from geomfit.errors import ColumnNotFound, EmptyDataset, ParseError, RaggedRow
from geomfit.vectors import Vector


class TestAutoDetectHeader:
    def test_text_header(self):
        assert auto_detect_header("temp,rain\n1,2") is True

    def test_numeric_first_row(self):
        assert auto_detect_header("1,2\n3,4") is False

    def test_mixed_first_row_is_header(self):
        assert auto_detect_header("1,rain\n3,4") is True

    def test_empty_raises(self):
        with pytest.raises(EmptyDataset):
            auto_detect_header("")


class TestParse:
    def test_single_point(self):
        cloud = parse(DatasetSpec(), "x,y\n1,2\n")
        assert len(cloud) == 1
        assert cloud.xs[0] == 1.0 and cloud.ys[0] == 2.0

    def test_example1_fixture(self):
        cloud = load_example("example1_amarante.csv")
        assert len(cloud) == 12
        assert cloud.xs[0] == 11.3
        assert cloud.ys[0] == 122.0

    def test_example2_fixture(self):
        cloud = load_example("example2_infections.csv")
        assert len(cloud) == 24
        assert cloud.xs[0] == 67.0 and cloud.ys[-1] == 32500.0

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            example_csv_text("nope.csv")

    def test_parse_error_location(self):
        with pytest.raises(ParseError) as exc_info:
            parse(DatasetSpec(), "x,y\n1,abc\n")
        assert exc_info.value.line == 2
        assert exc_info.value.column == 2

    def test_nan_field_rejected(self):
        with pytest.raises(ParseError):
            parse(DatasetSpec(), "x,y\n1,nan\n")

    def test_empty_input(self):
        with pytest.raises(EmptyDataset):
            parse(DatasetSpec(), "")

    def test_header_only(self):
        with pytest.raises(EmptyDataset):
            parse(DatasetSpec(), "x,y\n")

    def test_ragged_row(self):
        with pytest.raises(RaggedRow) as exc_info:
            parse(DatasetSpec(), "1,2\n3\n")
        assert exc_info.value.line == 2

    def test_named_columns(self):
        cloud = parse(
            DatasetSpec(x_col="temp", y_col="rain"),
            "rain,temp\n10,20\n30,40\n",
        )
        assert cloud.xs == [20.0, 40.0]
        assert cloud.ys == [10.0, 30.0]

    def test_missing_named_column(self):
        with pytest.raises(ColumnNotFound):
            parse(DatasetSpec(x_col="nope", y_col="rain"), "rain,temp\n1,2\n")

    def test_named_column_without_header(self):
        with pytest.raises(ColumnNotFound):
            parse(DatasetSpec(x_col="a", y_col="b", has_header=False), "1,2\n")

    def test_index_out_of_range_is_ragged(self):
        with pytest.raises(RaggedRow):
            parse(DatasetSpec(x_col=0, y_col=5), "1,2\n")

    def test_same_column_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(x_col=1, y_col=1)

    @pytest.mark.parametrize("cols, named", [
        ({"x_col": -1}, "x_col must be a column index >= 0 or a header name, got -1"),
        ({"y_col": -2}, "y_col must be a column index >= 0 or a header name, got -2"),
    ], ids=["x_col", "y_col"])
    def test_negative_column_rejected(self, cols, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            DatasetSpec(**cols)

    @pytest.mark.parametrize("delimiter", list("0719.+-eE_") + ["\u0664"])
    def test_delimiter_a_number_can_contain_rejected(self, delimiter):
        with pytest.raises(ValueError, match=re.escape(f"got {delimiter!r}")):
            DatasetSpec(delimiter=delimiter)

    def test_custom_delimiter(self):
        cloud = parse(DatasetSpec(delimiter=";"), "1;2\n3;4\n")
        assert cloud.xs == [1.0, 3.0]

    def test_comments_and_blank_lines_skipped(self):
        cloud = parse(DatasetSpec(), "# comment\nx,y\n\n1,2\n  # another\n3,4\n")
        assert len(cloud) == 2

    def test_crlf_endings(self):
        cloud = parse(DatasetSpec(), "x,y\r\n1,2\r\n3,4\r\n")
        assert cloud.ys == [2.0, 4.0]

    def test_whitespace_trimmed(self):
        cloud = parse(DatasetSpec(), " 1 , 2 \n")
        assert cloud.xs[0] == 1.0

    def test_scientific_notation(self):
        cloud = parse(DatasetSpec(), "1e2,2.5e-1\n2e2,5e-1\n")
        assert cloud.xs == [100.0, 200.0]
        assert cloud.ys == [0.25, 0.5]

    def test_row_order_preserved(self):
        cloud = parse(DatasetSpec(), "3,30\n1,10\n2,20\n")
        assert cloud.xs == [3.0, 1.0, 2.0]


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
                st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_serialize_parse_round_trip(self, pairs):
        text = "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pairs)
        cloud = parse(DatasetSpec(), text)
        assert cloud.xs == [p[0] for p in pairs]
        assert cloud.ys == [p[1] for p in pairs]


# --- Reference parser -------------------------------------------------------
# A verbatim copy of the two-pass parser that built a list of stripped fields
# for every row and re-read the whole input to detect the header.  The
# single-pass parser must accept and reject exactly the same inputs, with the
# same values, messages, lines and columns.


def _reference_try_float(field: str) -> float | None:
    try:
        v = float(field)
    except ValueError:
        return None
    # Reject nan/inf spellings; clouds require finite data.
    if v != v or v in (float("inf"), float("-inf")):
        return None
    return v


def _reference_rows(content: str, delimiter: str) -> list[tuple[int, list[str]]]:
    """Split into (1-based line number, trimmed fields), skipping blanks and comments."""
    out = []
    for lineno, raw in enumerate(content.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        out.append((lineno, [f.strip() for f in line.split(delimiter)]))
    return out


def _reference_auto_detect_header(content: str, delimiter: str = ",") -> bool:
    """True iff the first row contains any field that fails numeric parsing."""
    rows = _reference_rows(content, delimiter)
    if not rows:
        raise EmptyDataset("no rows in input")
    _, fields = rows[0]
    return any(_reference_try_float(f) is None for f in fields)


def _reference_resolve_column(col: int | str, header: list[str] | None, lineno: int) -> int:
    if isinstance(col, int):
        return col
    if header is None:
        raise ColumnNotFound(f"column {col!r} requested by name but the input has no header")
    try:
        return header.index(col)
    except ValueError:
        raise ColumnNotFound(
            f"column {col!r} not found in header {header!r} (line {lineno})"
        ) from None


def _reference_parse(spec: DatasetSpec, content: str) -> PointCloud:
    """Parse delimited text into a point cloud, one point per data row."""
    if not content.strip():
        raise EmptyDataset("input is empty")
    rows = _reference_rows(content, spec.delimiter)
    if not rows:
        raise EmptyDataset("no data rows in input")

    has_header = spec.has_header
    if has_header is None:
        has_header = _reference_auto_detect_header(content, spec.delimiter)
    header = rows[0][1] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise EmptyDataset("no data rows after the header")

    header_line = rows[0][0]
    ix = _reference_resolve_column(spec.x_col, header, header_line)
    iy = _reference_resolve_column(spec.y_col, header, header_line)
    if ix == iy:
        raise ColumnNotFound("x and y resolve to the same column")

    needed = max(ix, iy) + 1
    xs: list[float] = []
    ys: list[float] = []
    for lineno, fields in data_rows:
        if len(fields) < needed:
            raise RaggedRow(lineno, len(fields), needed)
        row_vals = []
        for col_index in (ix, iy):
            v = _reference_try_float(fields[col_index])
            if v is None:
                raise ParseError(
                    lineno, col_index + 1, f"not a finite number: {fields[col_index]!r}"
                )
            row_vals.append(v)
        xs.append(row_vals[0])
        ys.append(row_vals[1])
    return PointCloud(Vector(xs), Vector(ys))


def _outcome(fn, *args):
    """What a call returns, or the type, message and location of what it raises."""
    try:
        result = fn(*args)
    except (ColumnNotFound, EmptyDataset, ParseError, RaggedRow) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    if isinstance(result, PointCloud):
        return ("cloud", tuple(map(float.hex, result.xs)), tuple(map(float.hex, result.ys)))
    return ("value", result)


# Field text: numbers, every non-finite and odd spelling float() knows or
# refuses, header names and empties; padded with characters that str.strip()
# removes but float() does not (\x1c-\x1f) or that both remove.
_TOKENS = [
    "1", "-2.5", "3e2", "0", "-0", ".5", "7.", "1.5e-3", "nan", "NaN", "-nan", "inf",
    "-inf", "Infinity", "1e400", "-1e400", "1_0", "0x10", "\u0663", "\u0661\u0662",
    "", "x", "y", "a", "abc", "n/a", "#", "1#", "1 2", "--1",
]
_NUMBERS = ["1", "-2.5", "3e2", "0", "-0", ".5", "7.", "1.5e-3", "1_0", "\u0663", "\u0661\u0662"]
_PADDING = ["", " ", "  ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\u3000", "\xa0", "\r"]
_NAMES = ["x", "y", "a", "abc", "nope", ""]  # the last two are in no header


def _padded(tokens):
    pads = st.sampled_from([""] * len(_PADDING) + _PADDING)
    return st.builds(lambda left, token, right: left + token + right,
                     pads, st.sampled_from(tokens), pads)


# Mostly numbers, so that many documents parse; any token often enough that
# every rejection is reached.
_field = _padded(_NUMBERS * 10 + _TOKENS)
_skipped_line = st.sampled_from(["", " ", "\t", "\r", "\x1c", "#", "# note", "  # indented", "\t#x,y"])


@st.composite
def _documents(draw):
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", "\r"]))
    width = draw(st.sampled_from([1, 2, 2, 3, 4]))
    lines = []
    if draw(st.booleans()):
        lines.append(delimiter.join(draw(_padded(_NAMES[:4])) for _ in range(width)))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(_skipped_line))
        else:
            n_fields = width if kind > 1 else draw(st.sampled_from([1, width + 1]))
            lines.append(delimiter.join(draw(_field) for _ in range(n_fields)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    content = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return delimiter, content


@st.composite
def _specs(draw, delimiter):
    columns = st.sampled_from([0, 1] * 12 + [2, 3, 4] + _NAMES)
    x_col = draw(columns)
    y_col = draw(columns.filter(lambda c: c != x_col))
    has_header = draw(st.sampled_from([None, True, False]))
    return DatasetSpec(delimiter=delimiter, has_header=has_header, x_col=x_col, y_col=y_col)


def _matches_reference(data):
    delimiter, content = data.draw(_documents())
    spec = data.draw(_specs(delimiter))
    assert _outcome(parse, spec, content) == _outcome(_reference_parse, spec, content)


class TestMatchesReferenceParser:
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_parse(self, data):
        _matches_reference(data)

    # Chunks of 2 and 3 lines put chunk boundaries inside the documents, so
    # the fast path and the per-row loop meet in every order.
    @pytest.mark.parametrize("chunk_rows", [2, 3])
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_parse_across_chunks(self, data, chunk_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_CHUNK_ROWS", chunk_rows)
            _matches_reference(data)

    @settings(max_examples=300, deadline=None)
    @given(_documents())
    def test_auto_detect_header(self, document):
        delimiter, content = document
        assert _outcome(auto_detect_header, content, delimiter) == _outcome(
            _reference_auto_detect_header, content, delimiter
        )

    def test_bad_value_reported_before_later_ragged_row(self):
        content = "x,y\n1,2\nnan,3\n4,5\n6\n"
        with pytest.raises(ParseError) as exc_info:
            parse(DatasetSpec(), content)
        assert (exc_info.value.line, exc_info.value.column) == (3, 1)
        assert _outcome(parse, DatasetSpec(), content) == _outcome(
            _reference_parse, DatasetSpec(), content
        )

    def test_separator_control_characters_are_stripped(self):
        # float() refuses "\x1c2", but a field is read as its stripped text
        # and str.strip() removes \x1c, so the field is 2.0.
        content = "1,\x1c2\n3,4\x1f\n"
        cloud = parse(DatasetSpec(has_header=False), content)
        assert cloud.ys == [2.0, 4.0]
        assert _outcome(parse, DatasetSpec(), content) == _outcome(
            _reference_parse, DatasetSpec(), content
        )


# Documents that span several two-line chunks, each with one line or field
# that the chunk fast path must refuse or get right, and the points or the
# (error, line, column) that parsing them gives.
_MULTI_CHUNK = {
    "numeric-comment": (DatasetSpec(x_col=1, y_col=3),
                        "n,x,b,y\n0,1,2,3\n4,5,6,7\n# n,1,2,3\n8,9,10,11\n12,13,14,15\n",
                        [(1.0, 3.0), (5.0, 7.0), (9.0, 11.0), (13.0, 15.0)]),
    "blank-line": (DatasetSpec(), "1,2\n3,4\n5,6\n\n7,8\n9,10\n",
                   [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0), (9.0, 10.0)]),
    "tab-only-line": (DatasetSpec(delimiter="\t"), "1\t2\n3\t4\n5\t6\n\t\n7\t8\n",
                      [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0)]),
    "crlf": (DatasetSpec(), "x,y\r\n1,2\r\n3,4\r\n5,6\r\n7,8\r\n",
             [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0)]),
    "cr-delimiter": (DatasetSpec(delimiter="\r"), "x\ry\n1\r2\n3\r4\r\n5\r6\r\r\n7\r\n",
                     (RaggedRow, 5, None)),
    # the first three rows have as many fields as three rows of three
    "unequal-extra-fields": (DatasetSpec(), "1,2,3\n4,5\n6,7,8,9\n10,11\n12,13,14\n",
                             [(1.0, 2.0), (4.0, 5.0), (6.0, 7.0), (10.0, 11.0), (12.0, 13.0)]),
    "nan-later": (DatasetSpec(), "x,y\n1,2\n3,4\n5,6\n7,nan\n", (ParseError, 5, 2)),
    "inf-later": (DatasetSpec(), "x,y\n1,2\n3,4\n5,6\n-inf,8\n", (ParseError, 5, 1)),
    "ragged-later": (DatasetSpec(), "1,2\n3,4\n5,6\n7,8\n9\n11,12\n", (RaggedRow, 5, None)),
    "bad-value-then-ragged": (DatasetSpec(), "1,2\n3,4\n5,x\n7,8\n9\n", (ParseError, 3, 2)),
    "control-padded-field": (DatasetSpec(), "1,2\n3,4\n5,\x1c6\n7,8\n",
                             [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0)]),
    # finite values whose column sum overflows in every chunk
    "overflowing-sum": (DatasetSpec(), "x,y\n1,1.7e308\n2,1.7e308\n3,-1.7e308\n4,-1.7e308\n",
                        [(1.0, 1.7e308), (2.0, 1.7e308), (3.0, -1.7e308), (4.0, -1.7e308)]),
    # more trailing blank lines than a chunk holds, so the last chunks are all blank
    "blank-tail": (DatasetSpec(), "x,y\n1,2\n3,4\n5,6\n\n \r\n\t\n\n\n\n\n",
                   [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]),
    # blank lines end the first chunk, and the line numbers count them
    "blank-chunk-end": (DatasetSpec(), "1,2\n\n\n3,4\n5,6\n7,x\n", (ParseError, 6, 2)),
    # the header is line 6, so the first data row follows whole chunks of 2 or 3 lines
    "first-row-on-a-boundary": (DatasetSpec(), "# a\n\n# b\n\n# c\nx,y\n1,2\n3,4\n5,6\n7,8\n9,z\n",
                                (ParseError, 11, 2)),
}


@pytest.mark.parametrize("chunk_rows", [2, 3])
@pytest.mark.parametrize("case", sorted(_MULTI_CHUNK))
def test_multi_chunk_documents(monkeypatch, case, chunk_rows):
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk_rows)
    spec, content, expected = _MULTI_CHUNK[case]
    got = _outcome(parse, spec, content)
    assert got == _outcome(_reference_parse, spec, content)
    if isinstance(expected, tuple):
        assert got[1:2] + got[3:] == expected
    else:
        cloud = parse(spec, content)
        assert list(zip(cloud.xs, cloud.ys)) == expected


def test_clean_chunks_skip_the_row_loop(monkeypatch):
    # Equal-width numeric rows, also with CRLF endings, or finite values whose
    # column sum overflows, convert without the per-row loop.
    def row_loop(*args):
        raise AssertionError("per-row loop used")
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", 3)
    monkeypatch.setattr(dataio, "_row_columns", row_loop)
    for ending in ("\n", "\r\n"):
        content = "id,x,y" + "".join(f"{ending}{i},{i / 8!r},{-i}" for i in range(10)) + ending
        cloud = parse(DatasetSpec(x_col="x", y_col="y"), content)
        assert cloud.xs == [i / 8 for i in range(10)] and cloud.ys == [-i for i in range(10)]
    spec, content, expected = _MULTI_CHUNK["overflowing-sum"]
    cloud = parse(spec, content)
    assert list(zip(cloud.xs, cloud.ys)) == expected


def test_blank_tail_takes_the_row_loop(monkeypatch):
    # Trailing blank lines are not cut from a chunk: the last chunk, which
    # holds them, goes through the per-row loop, and only that chunk.
    row_columns = dataio._row_columns
    seen = []

    def spy(rows, *args):
        rows = list(rows)
        seen.append(rows)
        return row_columns(iter(rows), *args)
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", 3)
    monkeypatch.setattr(dataio, "_row_columns", spy)
    content = "1,2\n3,4\n5,6\n7,8\n\n \r\n"
    assert _outcome(parse, DatasetSpec(), content) == _outcome(
        _reference_parse, DatasetSpec(), content
    )
    assert seen == [[(4, "7,8\n")]]
