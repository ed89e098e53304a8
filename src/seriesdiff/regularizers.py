"""Smoothing and spectral-anchoring corrections applied between denoising steps.

Two families live here.

Adaptive neighborhood total variation (ANTV): a weighted total-variation
penalty whose pair weights decay with the squared value difference, so large
level shifts are preserved while small oscillations are smoothed.  The
correction step is the sequential coordinate sweep used by the sampler: each
center is nudged against the sign-sum of its neighborhood with the Gaussian
weights frozen, and later centers see earlier updates within the same sweep.
The full analytic gradient (kernel term included) is provided separately for
verification.

Band-pass anchoring: a quadratic penalty in frequency space pulling the
current state's spectrum toward the band-limited spectrum of a reference
series, with the exact gradient step derived from the DFT adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "AntvConfig",
    "antv_weight",
    "antv_loss",
    "antv_step",
    "antv_exact_grad",
    "BandSpec",
    "band_mask",
    "band_pass",
    "dft",
    "idft",
    "bp_loss",
    "bp_grad_step",
]


@dataclass(frozen=True)
class AntvConfig:
    """Parameters of the adaptive-neighborhood total-variation correction.

    window : half-width k of the neighborhood; center i couples to indices
        within distance k, clamped to the series bounds.
    sigma : width of the Gaussian similarity kernel on value differences.
    rate : step size of one correction sweep, and so its whole strength.
    """

    window: int
    sigma: float
    rate: float

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ParameterError(f"rate must be positive, got {self.rate}")


def antv_weight(xi: float, xj: float, sigma: float) -> float:
    """Similarity weight exp(-(xi - xj)^2 / (2 sigma^2)); 1 at equality, -> 0 apart."""
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    d = xi - xj
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def _check_series(x: np.ndarray, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in ndims or x.size == 0:
        raise ParameterError(f"expected a non-empty {' or '.join(map(str, ndims))}-D series")
    return x


def antv_loss(x: np.ndarray, cfg: AntvConfig) -> float:
    """Weighted total variation over clamped neighborhoods.

    loss = sum_i sum_{j in win(i)} |x_j - x_i| * w(i, j), where
    win(i) covers indices within ``cfg.window`` of i (inclusive, clamped).
    Every unordered pair within range is counted once per endpoint.
    """
    x = _check_series(x)
    n = x.size
    k = cfg.window
    two_s2 = 2.0 * cfg.sigma * cfg.sigma
    total = 0.0
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n - 1, i + k)
        d = x[lo : hi + 1] - x[i]
        total += float(np.sum(np.abs(d) * np.exp(-(d * d) / two_s2)))
    return total


def antv_step(x: np.ndarray, cfg: AntvConfig) -> np.ndarray:
    """One sequential correction sweep of a series, or of each row of a
    batch, as if swept alone; returns a new array.

    Centers are visited left to right.  Each center moves against the frozen
    partial gradient of its own neighborhood terms,

        x_i <- x_i + rate * sum_j sign(x_j - x_i) * w(i, j),

    with sign(0) = 0; ``rate`` alone sets the sweep's strength.  Updates
    already applied within the sweep are visible to later centers.  The
    Gaussian weights are constants for the step (their derivative is
    deliberately not applied here; see ``antv_exact_grad``).
    """
    x = _check_series(x, (1, 2)).copy()
    n = x.shape[-1]
    k = cfg.window
    two_s2 = 2.0 * cfg.sigma * cfg.sigma
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n - 1, i + k)
        d = x[..., lo : hi + 1] - x[..., i, None]
        w = np.exp(-(d * d) / two_s2)
        x[..., i] += cfg.rate * np.sum(np.sign(d) * w, axis=-1)
    return x


def antv_exact_grad(x: np.ndarray, cfg: AntvConfig) -> np.ndarray:
    """Full analytic gradient of ``antv_loss``, kernel derivative included.

    For each ordered pair (i, j) with d = x_j - x_i, the term |d| w(d)
    contributes d/dd(|d| w) = w * (sign(d) - |d| d / sigma^2) to x_j and its
    negative to x_i.  Non-differentiable only where some pair has d = 0;
    there the sign(0) = 0 convention picks the symmetric subgradient.
    """
    x = _check_series(x)
    n = x.size
    k = cfg.window
    s2 = cfg.sigma * cfg.sigma
    grad = np.zeros(n, dtype=np.float64)
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n - 1, i + k)
        for j in range(lo, hi + 1):
            if j == i:
                continue
            d = x[j] - x[i]
            w = math.exp(-(d * d) / (2.0 * s2))
            dd = w * (np.sign(d) - abs(d) * d / s2)
            grad[j] += dd
            grad[i] -= dd
    return grad


@dataclass(frozen=True)
class BandSpec:
    """Inclusive frequency-bin band [low, high] on the symmetric DFT index.

    Bin k of an n-point spectrum has symmetric index min(k, n - k); the band
    keeps bins whose symmetric index lies in [low, high], which selects each
    retained frequency together with its conjugate mirror.  ``high`` must not
    exceed n // 2 for the series the band is applied to; that is checked at
    application time since n is not known here.
    """

    low: int
    high: int

    def __post_init__(self) -> None:
        if not (isinstance(self.low, int) and isinstance(self.high, int)):
            raise ParameterError("band edges must be integers")
        if self.low < 0 or self.low >= self.high:
            raise ParameterError(
                f"need 0 <= low < high, got ({self.low}, {self.high})"
            )


def _last_axis(a: np.ndarray, dtype: type | None = None) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim == 0 or a.size == 0:
        raise ParameterError("expected a non-empty array, transformed along its last axis")
    return a


def dft(x: np.ndarray) -> np.ndarray:
    """Forward DFT along the last axis (numpy FFT fast path; tests pin it to
    direct summation)."""
    return np.fft.fft(_last_axis(x))


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse DFT along the last axis; returns a complex array, imaginary
    parts near zero for conjugate-symmetric input."""
    return np.fft.ifft(_last_axis(spectrum))


def band_mask(n: int, band: BandSpec) -> np.ndarray:
    """Boolean keep-mask of length n for the symmetric band."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if band.high > n // 2:
        raise ParameterError(
            f"band high edge {band.high} exceeds Nyquist index {n // 2} for n={n}"
        )
    k = np.arange(n)
    sym = np.minimum(k, n - k)
    return (sym >= band.low) & (sym <= band.high)


def band_pass(spectrum: np.ndarray, band: BandSpec) -> np.ndarray:
    """Zero every bin outside the symmetric band along the last axis; DC
    survives only if low == 0."""
    spectrum = _last_axis(spectrum, np.complex128)
    return spectrum * band_mask(spectrum.shape[-1], band)


def bp_loss(x: np.ndarray, reference: np.ndarray, band: BandSpec) -> float:
    """Squared spectral distance ||F(x) - BandPass(F(reference))||^2 over all bins."""
    x = _check_series(x)
    reference = _check_series(reference)
    if x.shape != reference.shape:
        raise ParameterError(
            f"shape mismatch: x {x.shape} vs reference {reference.shape}"
        )
    diff = dft(x) - band_pass(dft(reference), band)
    return float(np.sum(np.abs(diff) ** 2))


def bp_grad_step(
    x: np.ndarray, reference: np.ndarray, band: BandSpec, rate: float
) -> np.ndarray:
    """One exact gradient-descent step on ``bp_loss`` in the time domain.

    By the DFT adjoint (F^H v = n * ifft(v)) the gradient is
    2n * (x - ifft(BandPass(F(reference)))), real for real inputs because the
    symmetric band keeps conjugate pairs together.  A single step at
    rate = 1/(2n) therefore lands exactly on the band-limited reference, and
    the step contracts toward it only for rate < 1/n.  ``x`` and
    ``reference`` may be (rows, n) batches, each row with its own reference.
    """
    if not (rate > 0.0 and math.isfinite(rate)):
        raise ParameterError(f"rate must be positive, got {rate}")
    x = _check_series(x, (1, 2))
    reference = _check_series(reference, (1, 2))
    if x.shape != reference.shape:
        raise ParameterError(
            f"shape mismatch: x {x.shape} vs reference {reference.shape}"
        )
    n = x.shape[-1]
    target = idft(band_pass(dft(reference), band)).real
    grad = 2.0 * n * (x - target)
    return x - rate * grad
