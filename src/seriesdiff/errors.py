"""Exception types shared across the package.

The CLI maps these onto process exit codes (see cli.main): configuration
problems exit 2, data problems exit 3, numeric failures exit 4.  Library code
raises them and swallows none.
"""

from __future__ import annotations

import math

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


def check_int(value: object, name: str, low: int, high: int | None = None, where: str = "") -> int:
    """``value`` as an int if it is a Python or numpy integer, never a bool, in [low, high) (no
    upper bound if ``high`` is None); else a ParameterError naming ``name``, ``value``, ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} {value!r} is not an integer{where}")
    if low <= value and (high is None or value < high):
        return int(value)
    raise ParameterError(f"{name} {value} outside [{low}, {'inf' if high is None else high}){where}")


def check_real(value: object, name: str, low: float = -math.inf, high: float = math.inf,
               open_low: bool = False) -> float:
    """``value`` as a float if it is a Python or numpy int or float, never a bool, finite and in
    [low, high), or (low, high) if ``open_low``; else a ParameterError naming ``name``, ``value``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} {value!r} is not a real number")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if math.isfinite(x) and (low < x if open_low else low <= x) and x < high:
        return x
    bracket = "(" if open_low or low == -math.inf else "["
    raise ParameterError(f"{name} {value} outside {bracket}{low}, {high})")
