"""Delimited-text ingestion into point clouds.

Dialect: UTF-8, LF or CRLF line endings, single-character delimiter
(comma by default), '#'-prefixed comment lines ignored, no quoted fields.
Only '.' is accepted as the decimal separator; scientific notation is fine.
The two demo datasets (monthly temperature vs rainfall, and a 24-day
infection count series) ship as package data.

The input is read in one pass.  Header detection looks only at the first
data row, and a data row converts only its two selected fields.  A field
that ``float`` refuses as it stands, or that is not finite, is stripped and
converted again, so every field is accepted or rejected as its stripped
text is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from typing import Iterator

from .cloud import PointCloud
from .errors import ColumnNotFound, EmptyDataset, ParseError, RaggedRow

__all__ = [
    "DatasetSpec", "parse", "auto_detect_header", "EXAMPLE_DATASETS", "load_example",
    "example_csv_text",
]

EXAMPLE_DATASETS = ("example1_amarante.csv", "example2_infections.csv")


@dataclass(frozen=True)
class DatasetSpec:
    """How to read one delimited file into (x, y) columns.

    ``x_col``/``y_col`` accept either a zero-based index or a header name.
    ``has_header`` of ``None`` means auto-detect.
    """

    delimiter: str = ","
    has_header: bool | None = None
    x_col: int | str = 0
    y_col: int | str = 1

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")
        if self.x_col == self.y_col:
            raise ValueError("x_col and y_col must differ")


def _try_float(field: str) -> float | None:
    try:
        v = float(field)
    except ValueError:
        return None
    # Reject nan/inf spellings; clouds require finite data.
    if v != v or v in (float("inf"), float("-inf")):
        return None
    return v


def _data_lines(content: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) for each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(content.split("\n"), start=1):
        line = raw.rstrip("\r")
        head = line.lstrip()
        if head and head[0] != "#":
            yield lineno, line


def _is_header(line: str, delimiter: str) -> bool:
    return any(_try_float(f.strip()) is None for f in line.split(delimiter))


def auto_detect_header(content: str, delimiter: str = ",") -> bool:
    """True iff the first row contains any field that fails numeric parsing."""
    for _, line in _data_lines(content):
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
    lines = _data_lines(content)
    first = next(lines, None)
    if first is None:
        raise EmptyDataset("no data rows in input")

    header_line, first_line = first
    has_header = spec.has_header
    if has_header is None:
        has_header = _is_header(first_line, delimiter)
    header = None
    if has_header:
        header = [f.strip() for f in first_line.split(delimiter)]
        first = next(lines, None)
        if first is None:
            raise EmptyDataset("no data rows after the header")

    ix = _resolve_column(spec.x_col, header, header_line)
    iy = _resolve_column(spec.y_col, header, header_line)
    if ix == iy:
        raise ColumnNotFound("x and y resolve to the same column")

    needed = max(ix, iy) + 1
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in chain((first,), lines):
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
    return PointCloud(xs, ys)


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
