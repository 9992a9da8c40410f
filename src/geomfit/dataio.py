"""Delimited-text ingestion into point clouds.

Dialect: UTF-8, LF or CRLF line endings, single-character delimiter
(comma by default), '#'-prefixed comment lines ignored, no quoted fields.
A text file's lines are those its own iterator yields: in Python's default
newline mode, as the CLI opens its input, a lone CR ends a line too.
A number is what ``float`` reads: '.' is the decimal separator, and scientific
notation, PEP 515 underscores and any Unicode decimal digit are accepted, so
``1_0`` reads as 10 and an Arabic-Indic four (U+0664) as 4 (ROADMAP item 7).
The two demo datasets (monthly temperature vs rainfall, and a 24-day
infection count series) ship as package data.

Lines come from the source's own line iterator, a string's through
``io.StringIO``, which splits only at "\\n".  So no call holds the whole
text or a list of all its lines, and header detection reads only to the end
of the first data row.  Rows are converted a chunk of ``_CHUNK_ROWS`` lines
at a time.  A chunk whose lines all hold the same number of delimiters (not
a line break), no ``#`` and no CR outside a CRLF (a file read with
``newline=""`` keeps the CR that ends a line) is joined, split once, and
each selected column converted and tested finite by
``cloud.finite_column``.  A chunk that this refuses (a field ``float``
rejects, a nan or an inf, a short row, a blank or comment line) goes
through the per-row loop, the one definition of a data row and the only
place that raises, so the first error in file order is reported.  The loop
converts each selected field's stripped text, so every field is accepted or
rejected as its stripped text is.  ``float`` strips only whitespace that
``str.strip`` strips too, the line break the fast path leaves on a last
field included, so values are bit-identical.  A file's decoding error
arises when the chunk of lines holding it is read, so a parse error in an
earlier chunk is reported first.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from typing import Generator, Iterable, Iterator, TextIO

from .cloud import PointCloud, finite_column
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
    character or that a number can contain (a digit, ``.+-eE_``), a negative
    index, or the same column given twice.
    """

    delimiter: str = ","
    has_header: bool | None = None
    x_col: int | str = 0
    y_col: int | str = 1

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.delimiter.isdigit() or self.delimiter in ".+-eE_":  # float() reads these
            raise ValueError(f"delimiter must not be a digit or .+-eE_, got {self.delimiter!r}")
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


def _lines(source: str | TextIO) -> Iterator[str]:
    """The source's lines, each with its line break; a string's split only at "\\n"."""
    return io.StringIO(source) if isinstance(source, str) else source


def _data_lines(lines: Iterable[str], lineno: int = 1) -> Generator[tuple[int, str], None, bool]:
    """Yield (line number, line) for each line that is neither blank nor a comment.

    The first line is line ``lineno``.  Returns whether any line was not blank.
    """
    text = False
    for lineno, line in enumerate(lines, lineno):
        head = line.lstrip()
        if head:
            text = True
            if head[0] != "#":
                yield lineno, line
    return text


def _fields(line: str, delimiter: str) -> list[str]:
    return line.rstrip("\r\n").split(delimiter)


def _is_header(line: str, delimiter: str) -> bool:
    return any(_try_float(f.strip()) is None for f in _fields(line, delimiter))


def auto_detect_header(source: str | TextIO, delimiter: str = ",") -> bool:
    """True iff the first data row contains any field that fails numeric parsing.

    Reads the source only to the end of that row.
    """
    for _, line in _data_lines(_lines(source)):
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


def parse(spec: DatasetSpec, source: str | TextIO) -> PointCloud:
    """Parse delimited text, a string or an open text file, into a point cloud.

    Each data row gives one point.
    """
    delimiter = spec.delimiter
    lines = _lines(source)
    rows = _data_lines(lines)
    try:
        lineno, line = next(rows)
    except StopIteration as end:
        raise EmptyDataset("no data rows in input" if end.value else "input is empty") from None

    header_line = lineno
    has_header = spec.has_header
    if has_header is None:
        has_header = _is_header(line, delimiter)
    header = None
    if has_header:
        header = [f.strip() for f in _fields(line, delimiter)]
        first = next(rows, None)
        if first is None:
            raise EmptyDataset("no data rows after the header")
        lineno, line = first

    ix = _resolve_column(spec.x_col, header, header_line)
    iy = _resolve_column(spec.y_col, header, header_line)
    if ix == iy:
        raise ColumnNotFound("x and y resolve to the same column")

    needed = max(ix, iy) + 1
    xs: list[float] = []
    ys: list[float] = []
    lines = chain([line], lines)  # the first data row, then the lines after it
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        x_col, y_col = (_chunk_columns(chunk, delimiter, ix, iy, needed)
                        or _row_columns(_data_lines(chunk, lineno), delimiter, ix, iy, needed))
        xs += x_col
        ys += y_col
        lineno += len(chunk)
    return PointCloud(xs, ys)


def _chunk_columns(chunk: list[str], delimiter: str, ix: int, iy: int,
                   needed: int) -> tuple[list[float], list[float]] | None:
    """The chunk's x and y columns, or None when it needs the per-row loop."""
    if delimiter in "\r\n":  # a row loses its line break before it is split
        return None
    width = chunk[0].count(delimiter) + 1
    if width < needed:
        return None
    text = delimiter.join(chunk)
    # A line ends in "\n" unless it is the source's last or a file read with
    # newline="" or "\r" ended it at a lone "\r", which this refuses.
    if "#" in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    fields = text.split(delimiter)
    # So the fields are `width` per row, each "\n" in a row's last field,
    # exactly when every row has `width` fields.
    if (len(fields) != len(chunk) * width
            or "".join(fields[width - 1::width]).count("\n") != text.count("\n")):
        return None
    try:
        return finite_column(fields[ix::width]), finite_column(fields[iy::width])
    except ValueError:
        return None


def _row_columns(rows: Iterator[tuple[int, str]], delimiter: str, ix: int, iy: int,
                 needed: int) -> tuple[list[float], list[float]]:
    """The x and y columns of the rows, one row at a time, from each field's stripped text."""
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in rows:
        fields = _fields(line, delimiter)
        if len(fields) < needed:
            raise RaggedRow(lineno, len(fields), needed)
        xs.append(_stripped_value(fields, ix, lineno))
        ys.append(_stripped_value(fields, iy, lineno))
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
