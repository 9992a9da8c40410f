"""Delimited-text ingestion into point clouds.

Dialect: UTF-8, LF or CRLF line endings, single-character delimiter
(comma by default), '#'-prefixed comment lines ignored, no quoted fields.
Only '.' is accepted as the decimal separator; scientific notation is fine.
The two demo datasets (monthly temperature vs rainfall, and a 24-day
infection count series) ship as package data.

The input is split into lines once.  Header detection looks only at the
first data row, and a row converts only its two selected fields.  Rows are
converted a chunk at a time: a chunk whose lines all hold the same number
of delimiters and no ``#`` (the delimiter not ``\\r``) is joined, split once,
and each selected column converted by one ``map(float, ...)``.  Each column
is tested finite by one C-level ``sum``, which a nan or an inf always makes
non-finite.  A chunk that this refuses (a field ``float`` rejects, a column
sum that is not finite, a short row, a blank or comment line) goes through
the per-row loop, the one definition of a data row and the only place that
raises, so the first error in file order is reported.  A chunk of finite
values whose sum overflows takes the loop too, which accepts it.  The loop
strips and converts again a field that ``float`` refuses as it stands or
that is not finite, so every field is accepted or rejected as its stripped
text is.  Both paths give ``float`` the same unstripped text, so values are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator

from .cloud import PointCloud
from .errors import ColumnNotFound, EmptyDataset, ParseError, RaggedRow

__all__ = [
    "DatasetSpec", "parse", "auto_detect_header", "EXAMPLE_DATASETS", "load_example",
    "example_csv_text",
]

EXAMPLE_DATASETS = ("example1_amarante.csv", "example2_infections.csv")
_CHUNK_ROWS = 4096  # lines per step of the row conversion


@dataclass(frozen=True)
class DatasetSpec:
    """How to read one delimited file into (x, y) columns.

    ``x_col``/``y_col`` accept either a zero-based index or a header name.
    ``has_header`` of ``None`` means auto-detect.  Construction raises
    ValueError, naming the bad value, for a delimiter that is not one
    character, a negative index, or the same column given twice.
    """

    delimiter: str = ","
    has_header: bool | None = None
    x_col: int | str = 0
    y_col: int | str = 1

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        for name, col in (("x_col", self.x_col), ("y_col", self.y_col)):
            if isinstance(col, int) and col < 0:
                raise ValueError(f"{name} must be a column index >= 0 or a header name, got {col}")
        if self.x_col == self.y_col:
            raise ValueError(f"x_col and y_col must differ, both are {self.x_col!r}")


def _try_float(field: str) -> float | None:
    try:
        v = float(field)
    except ValueError:
        return None
    return v if math.isfinite(v) else None  # clouds require finite data, so no nan or inf


def _data_lines(lines: Iterable[str], first_lineno: int = 1) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) for each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.rstrip("\r")
        head = line.lstrip()
        if head and head[0] != "#":
            yield lineno, line


def _is_header(line: str, delimiter: str) -> bool:
    return any(_try_float(f.strip()) is None for f in line.split(delimiter))


def auto_detect_header(content: str, delimiter: str = ",") -> bool:
    """True iff the first row contains any field that fails numeric parsing."""
    for _, line in _data_lines(content.split("\n")):
        return _is_header(line, delimiter)
    raise EmptyDataset("no rows in input")


def _resolve_column(col: int | str, header: list[str] | None, lineno: int) -> int:
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


def parse(spec: DatasetSpec, content: str) -> PointCloud:
    """Parse delimited text into a point cloud, one point per data row."""
    if not content or content.isspace():
        raise EmptyDataset("input is empty")
    delimiter = spec.delimiter
    lines = content.split("\n")
    while not lines[-1].strip():  # skipped anyway; they would send a chunk to the row loop
        lines.pop()
    rows = _data_lines(lines)
    first = next(rows, None)
    if first is None:
        raise EmptyDataset("no data rows in input")

    header_line, first_line = first
    has_header = spec.has_header
    if has_header is None:
        has_header = _is_header(first_line, delimiter)
    header = None
    if has_header:
        header = [f.strip() for f in first_line.split(delimiter)]
        first = next(rows, None)
        if first is None:
            raise EmptyDataset("no data rows after the header")

    ix = _resolve_column(spec.x_col, header, header_line)
    iy = _resolve_column(spec.y_col, header, header_line)
    if ix == iy:
        raise ColumnNotFound("x and y resolve to the same column")

    needed = max(ix, iy) + 1
    xs: list[float] = []
    ys: list[float] = []
    for lo in range(first[0] - 1, len(lines), _CHUNK_ROWS):
        chunk = lines[lo:lo + _CHUNK_ROWS]
        x_col, y_col = (_chunk_columns(chunk, delimiter, ix, iy, needed)
                        or _row_columns(_data_lines(chunk, lo + 1), delimiter, ix, iy, needed))
        xs += x_col
        ys += y_col
    return PointCloud(xs, ys)


def _chunk_columns(chunk: list[str], delimiter: str, ix: int, iy: int,
                   needed: int) -> tuple[list[float], list[float]] | None:
    """The chunk's x and y columns, or None when it needs the per-row loop."""
    if delimiter == "\r":  # a row loses its trailing \r before it is split
        return None
    width = chunk[0].count(delimiter) + 1
    if width < needed:
        return None
    # A "\n" field goes between rows.  No line holds a "\n", so the fields
    # have one after every `width` of them exactly when every row has `width`.
    text = (delimiter + "\n" + delimiter).join(chunk)
    if "#" in text:
        return None
    fields = text.split(delimiter)
    step = width + 1
    rows = len(chunk)
    if len(fields) != rows * step - 1 or fields[width::step].count("\n") != rows - 1:
        return None
    try:
        xs = list(map(float, fields[ix::step]))
        ys = list(map(float, fields[iy::step]))
    except ValueError:
        return None
    if math.isfinite(sum(xs)) and math.isfinite(sum(ys)):  # no nan or inf, nor an overflow
        return xs, ys
    return None


def _row_columns(rows: Iterator[tuple[int, str]], delimiter: str, ix: int, iy: int,
                 needed: int) -> tuple[list[float], list[float]]:
    """The x and y columns of the rows, one row at a time."""
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in rows:
        fields = line.split(delimiter)
        if len(fields) < needed:
            raise RaggedRow(lineno, len(fields), needed)
        try:
            x = float(fields[ix])
            y = float(fields[iy])
        except ValueError:
            x = y = math.nan
        if x - x or y - y:  # nan for a nan or an inf, and for a refused field
            x, y = (_stripped_value(fields, col, lineno) for col in (ix, iy))
        xs.append(x)
        ys.append(y)
    return xs, ys


def _stripped_value(fields: list[str], col_index: int, lineno: int) -> float:
    field = fields[col_index].strip()
    v = _try_float(field)
    if v is None:
        raise ParseError(lineno, col_index + 1, f"not a finite number: {field!r}")
    return v


def example_csv_text(name: str) -> str:
    """Raw CSV text of a bundled demo dataset."""
    if name not in EXAMPLE_DATASETS:
        raise ValueError(f"unknown example dataset {name!r}; choose from {EXAMPLE_DATASETS}")
    return resources.files("geomfit.data").joinpath(name).read_text(encoding="utf-8")


def load_example(name: str) -> PointCloud:
    """Parse a bundled demo dataset into a point cloud."""
    return parse(DatasetSpec(), example_csv_text(name))
