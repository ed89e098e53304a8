"""Exception types shared across the package.

The CLI maps these onto process exit codes (see cli.main): configuration
problems exit 2, data problems exit 3, numeric failures exit 4.  Library code
raises them and swallows none.
"""

from __future__ import annotations

import numpy as np


class SeriesDiffError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SeriesDiffError, ValueError):
    """A configuration value or function argument violates its contract."""


class DataError(SeriesDiffError, ValueError):
    """Input data is malformed, inconsistent, or degenerate."""


class NumericError(SeriesDiffError, ArithmeticError):
    """A computation produced non-finite values or failed to converge."""


def check_finite_rows(a: np.ndarray, what: str) -> None:
    """Raise NumericError naming ``what``, the first non-finite row of the
    (rows, n) array ``a`` and the count of such rows."""
    bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad.size:
        raise NumericError(f"{what} is non-finite in {bad.size} of {len(a)} rows, first row {bad[0]}")
