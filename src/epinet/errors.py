"""Exception hierarchy shared across the pipeline stages."""


class EpinetError(Exception):
    """Base class for all errors raised by this package."""


class CsvFormatError(EpinetError):
    """The CSV header or overall layout is not the expected wide format."""


class CsvParseError(EpinetError):
    """A cell could not be parsed; carries 1-based row/column coordinates."""

    def __init__(self, message, row, column):
        super().__init__(f"{message} (row {row}, column {column})")
        self.row = row
        self.column = column


class DuplicateKeyError(EpinetError):
    """Two rows produced the same region key."""


class DateRangeError(EpinetError):
    """A requested date range falls outside the available data."""


class InsufficientDataError(EpinetError):
    """Input too short (or too few series) for the requested operation."""


class ParameterError(EpinetError):
    """An argument violates the operation's preconditions."""


class InsufficientStructureError(EpinetError):
    """The network lacks the structure (edges, communities) an operation needs."""


class ComparisonError(EpinetError):
    """Two partitions are not of the same nodes, or of none, so they cannot be compared."""
