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


def _shown(value: object, show=str) -> str:
    """``show(value)``, cut to its first 20 characters and its length past 450, so a message
    stays bounded; an int past the 4,300 digits ``str`` prints is given by its bit count."""
    try:
        text = show(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"
    return text if len(text) <= 450 else f"{text[:20]}...<{len(text)} characters>"


def check_int(value: object, name: str, low: int, high: int | None = None, where: str = "") -> int:
    """``value`` as an int if it is a Python or numpy integer, never a bool, in [low, high) (no
    upper bound if ``high`` is None); else a ParameterError naming ``name``, ``value``, ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} {_shown(value, repr)} is not an integer{where}")
    if low <= value and (high is None or value < high):
        return int(value)
    high_text = "inf" if high is None else _shown(high)
    raise ParameterError(f"{name} {_shown(value)} outside [{_shown(low)}, {high_text}){where}")


def check_real(value: object, name: str, low: float = -math.inf, high: float = math.inf,
               open_low: bool = False, *, error=ParameterError) -> float:
    """``value`` as a float if it is a Python or numpy int or float, never a bool, finite and in
    [low, high), or (low, high) if ``open_low``; else an ``error`` naming ``name``, ``value``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} {_shown(value, repr)} is not a real number")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if math.isfinite(x) and (low < x if open_low else low <= x) and x < high:
        return x
    bracket = "(" if open_low or low == -math.inf else "["
    raise error(f"{name} {_shown(value)} outside {bracket}{low}, {high})")


def check_array(value: object, name: str, *, ndim: tuple[int, ...] | None = None, nonempty=False,
                last: int | None = None, like: tuple[str, np.ndarray] | None = None,
                finite=False, spectrum=False, error=ParameterError) -> np.ndarray:
    """``value`` as a float64 array (complex128 if ``spectrum``, which also takes complex values)
    if numpy makes it an integer or floating array, never bool, string or object, of a rank in
    ``ndim`` (any if None), not a scalar nor empty if ``nonempty``, whose last axis (if any) has
    length ``last``, of the shape of the array ``like`` names, and finite if ``finite``; else an
    ``error`` starting with ``name`` that gives the dtype or shape, never the values."""
    try:
        a = np.asarray(value)
    except (ValueError, TypeError):  # a ragged nest
        raise error(f"{name} is not a rectangular array") from None
    if a.dtype.kind not in ("iufc" if spectrum else "iuf"):
        raise error(f"{name} of dtype {_shown(a.dtype)} is not an array of "
                    f"{'complex' if spectrum else 'real'} numbers")
    a = np.asarray(a, np.complex128 if spectrum else np.float64)
    if ndim is not None and a.ndim not in ndim:
        problem = f"is not of rank {' or '.join(map(str, ndim))}"
    elif nonempty and (a.ndim == 0 or a.size == 0):
        problem = "is a scalar or empty"
    elif last is not None and a.ndim and a.shape[-1] != last:
        problem = f"does not end in an axis of length {last}"
    elif like is not None and a.shape != like[1].shape:
        problem = f"does not match {like[0]} of shape {like[1].shape}"
    elif finite and not np.isfinite(a).all():
        problem = "has non-finite entries"
    else:
        return a
    raise error(f"{name} of shape {a.shape} {problem}")
