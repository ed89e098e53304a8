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

from .errors import ParameterError, check_array, check_int, check_real

__all__ = [
    "AntvConfig",
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
        check_int(self.window, "window", 1)
        check_real(self.sigma, "sigma", 0, open_low=True)
        check_real(self.rate, "rate", 0, open_low=True)


def antv_loss(x: np.ndarray, cfg: AntvConfig) -> float:
    """Weighted total variation over clamped neighborhoods.

    loss = sum_i sum_{j in win(i)} |x_j - x_i| * w(i, j), where
    win(i) covers indices within ``cfg.window`` of i (inclusive, clamped).
    Every unordered pair within range is counted once per endpoint.
    """
    x = check_array(x, "x", ndim=(1,), nonempty=True)
    k = cfg.window
    two_s2 = 2.0 * cfg.sigma * cfg.sigma
    total = 0.0
    for i in range(x.size):
        d = x[max(0, i - k) : i + k + 1] - x[i]  # a slice past the end stops at it
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
    x = check_array(x, "x", ndim=(1, 2), nonempty=True).copy()
    k = cfg.window
    two_s2 = 2.0 * cfg.sigma * cfg.sigma
    for i in range(x.shape[-1]):
        d = x[..., max(0, i - k) : i + k + 1] - x[..., i, None]
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
    x = check_array(x, "x", ndim=(1,), nonempty=True)
    n = x.size
    k = cfg.window
    s2 = cfg.sigma * cfg.sigma
    grad = np.zeros(n, dtype=np.float64)
    for i in range(n):
        for j in range(max(0, i - k), min(n, i + k + 1)):
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
        check_int(self.low, "low", 0)
        check_int(self.high, "high", self.low + 1)


def dft(x: np.ndarray) -> np.ndarray:
    """Forward DFT along the last axis (numpy FFT fast path; tests pin it to
    direct summation)."""
    return np.fft.fft(check_array(x, "x", nonempty=True, spectrum=True))


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse DFT along the last axis; returns a complex array, imaginary
    parts near zero for conjugate-symmetric input."""
    return np.fft.ifft(check_array(spectrum, "spectrum", nonempty=True, spectrum=True))


def band_mask(n: int, band: BandSpec) -> np.ndarray:
    """Boolean keep-mask of length n for the symmetric band."""
    check_int(n, "n", 1)
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
    spectrum = check_array(spectrum, "spectrum", nonempty=True, spectrum=True)
    return spectrum * band_mask(spectrum.shape[-1], band)


def bp_loss(x: np.ndarray, reference: np.ndarray, band: BandSpec) -> float:
    """Squared spectral distance ||F(x) - BandPass(F(reference))||^2 over all bins."""
    x = check_array(x, "x", ndim=(1,), nonempty=True)
    reference = check_array(reference, "reference", like=("x", x))
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
    rate = check_real(rate, "rate", 0, open_low=True)
    x = check_array(x, "x", ndim=(1, 2), nonempty=True)
    reference = check_array(reference, "reference", like=("x", x))
    n = x.shape[-1]
    target = idft(band_pass(dft(reference), band)).real
    grad = 2.0 * n * (x - target)
    return x - rate * grad
