"""Exception types shared across the toolkit."""

import numpy as np


def row_prefix(bad) -> str:
    """"row <i>: " for the first row i of a batch check's verdicts that holds a
    true one (a row's verdicts along further axes, such as the IMM's modes,
    count as one); "" for one verdict."""
    if not np.ndim(bad):
        return ""
    return f"row {int(np.argmax(np.reshape(bad, (len(bad), -1)).any(axis=1)))}: "


class GeometryError(ValueError):
    """Raised when a state coincides with the sensor origin (range/bearing undefined)."""


class NumericsError(ArithmeticError):
    """Raised when a covariance or innovation matrix has lost positive definiteness.

    rows, when given, holds the verdicts of the batch check that failed, and
    the message is row_prefix(rows) + cause."""

    def __init__(self, cause: str, rows=None):
        super().__init__(cause if rows is None else row_prefix(rows) + cause)
        self.cause, self.rows = cause, rows


class RowError(ValueError):
    """Raised on a bad row of a per-step array: "row <row>: <cause>"."""

    def __init__(self, row: int, cause: str):
        super().__init__(f"row {row}: {cause}")
        self.row, self.cause = row, cause


class CsvFormatError(ValueError):
    """Raised on malformed interchange CSV; message carries the offending line number."""


class EmptyDatasetError(ValueError):
    """Raised when a source holds fewer rows than one tracklet."""


class ConfigError(ValueError):
    """Raised on invalid or inconsistent experiment configuration."""
