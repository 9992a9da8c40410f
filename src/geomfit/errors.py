"""Exception taxonomy shared across the library.

Every error the CLI can surface maps to exactly one of these classes, so the
exit-code mapping in :mod:`geomfit.cli` stays a total function.
"""


class GeomfitError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GeomfitError):
    """Two vectors of different lengths were combined."""

    def __init__(self, n_left: int, n_right: int):
        self.n_left = n_left
        self.n_right = n_right
        super().__init__(f"vector lengths differ: {n_left} vs {n_right}")


class TooFewPoints(GeomfitError):
    """A fit was requested on fewer than two points."""


class DegenerateX(GeomfitError):
    """All x values coincide: the cloud is vertical and the slope is undefined."""


class DegenerateY(GeomfitError):
    """All y values coincide: the correlation angle is undefined."""


class DataError(GeomfitError):
    """Base class for dataset ingestion failures."""


class ParseError(DataError):
    """A field failed numeric parsing."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


class EmptyDataset(DataError):
    """The input contained no data rows."""


class ColumnNotFound(DataError):
    """A requested x/y column does not exist in the input."""


class RaggedRow(DataError):
    """A data row has too few columns for the requested selection."""

    def __init__(self, line: int, n_fields: int, needed: int):
        self.line = line
        self.n_fields = n_fields
        self.needed = needed
        super().__init__(
            f"line {line}: row has {n_fields} column(s), need at least {needed}"
        )


class BoxTooSmall(GeomfitError):
    """The brute-force search box provably excludes the optimum."""


class ObjectiveOverflow(GeomfitError):
    """A sum the fit reads, or the brute-force objective, overflows float64."""
