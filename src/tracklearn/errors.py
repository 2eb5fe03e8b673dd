"""Exception types shared across the toolkit."""

import numpy as np


def row_prefix(bad) -> str:
    """"row <i>: " for the first true row i of a batch check's verdicts; "" for one verdict."""
    return f"row {int(np.argmax(bad))}: " if np.ndim(bad) else ""


class GeometryError(ValueError):
    """Raised when a state coincides with the sensor origin (range/bearing undefined)."""


class NumericsError(ArithmeticError):
    """Raised when a covariance or innovation matrix has lost positive definiteness."""


class WeightCollapseError(NumericsError):
    """Raised when every particle weight underflows to zero."""


class CsvFormatError(ValueError):
    """Raised on malformed interchange CSV; message carries the offending line number."""


class EmptyDatasetError(ValueError):
    """Raised when a source holds fewer rows than one tracklet."""


class ConfigError(ValueError):
    """Raised on invalid or inconsistent experiment configuration."""
