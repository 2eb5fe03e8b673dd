"""Exception types shared across the toolkit."""

import numpy as np


def row_prefix(bad) -> str:
    """"row <i>: " for the first true row i of a batch check's verdicts; "" for one verdict."""
    return f"row {int(np.argmax(bad))}: " if np.ndim(bad) else ""


class GeometryError(ValueError):
    """Raised when a state coincides with the sensor origin (range/bearing undefined)."""


class NumericsError(ArithmeticError):
    """Raised when a covariance or innovation matrix has lost positive definiteness."""


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
