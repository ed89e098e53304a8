"""Noise schedules for the discrete forward corruption process.

Convention used throughout the package: time steps are 1-based.  ``t = 0``
denotes clean data and ``t = T`` the most corrupted level.  Stored vectors are
indexed ``beta[t - 1]`` for step ``t``.  The cumulative signal level is

    alpha_bar[t - 1] = prod_{i<=t} (1 - beta[i - 1]),

with the convention ``alpha_bar_0 = 1`` for the clean level, so the posterior
variance of step 1 is exactly zero and the last denoising step is
deterministic.

Two schedule families are provided: a variance-preserving beta ladder (linear
interpolation between endpoints) and a geometric sigma ladder for
variance-exploding annealed sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "NoiseSchedule",
    "SigmaLadder",
    "make_linear_schedule",
    "make_sigma_ladder",
    "forward_perturb",
    "schedule_from_dict",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance-preserving corruption schedule with precomputed derived vectors.

    Attributes
    ----------
    T : number of discrete steps, >= 1.
    beta : per-step noise variances, shape (T,), values in (0, 1), nondecreasing.
    alpha : 1 - beta.
    alpha_bar : cumulative products of alpha, strictly decreasing in (0, 1).
    posterior_var : variance of the forward-process posterior
        q(x_{t-1} | x_t, x_0), i.e. (1 - alpha_bar_{t-1}) * beta_t /
        (1 - alpha_bar_t) with alpha_bar_0 = 1.  Entry 0 is exactly 0.
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    posterior_var: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.ndim != 1:
            raise ParameterError("beta must be a 1-D array")
        if self.T != beta.shape[0]:
            raise ParameterError(
                f"schedule length mismatch: T={self.T} but beta has {beta.shape[0]} entries"
            )
        if self.T < 1:
            raise ParameterError("T must be >= 1")
        if not np.all(np.isfinite(beta)):
            raise ParameterError("beta contains non-finite entries")
        if np.any(beta <= 0.0) or np.any(beta >= 1.0):
            raise ParameterError("beta entries must lie in (0, 1)")
        if np.any(np.diff(beta) < 0.0):
            raise ParameterError("beta must be nondecreasing")
        object.__setattr__(self, "beta", beta)
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        # alpha_bar_{t-1} with the alpha_bar_0 = 1 convention.
        alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
        posterior_var = (1.0 - alpha_bar_prev) * beta / (1.0 - alpha_bar)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_bar", alpha_bar)
        object.__setattr__(self, "posterior_var", posterior_var)

    def alpha_bar_at(self, t: int) -> float:
        """alpha_bar for step ``t`` in [0, T]; ``t = 0`` is the clean level (1.0)."""
        if not 0 <= t <= self.T:
            raise ParameterError(f"t={t} outside [0, {self.T}]")
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])

    def to_dict(self) -> dict:
        """Flat serializable form; derived vectors are recomputed on load."""
        return {"T": self.T, "beta": [float(b) for b in self.beta]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def schedule_from_dict(obj: dict) -> NoiseSchedule:
    """Rebuild a schedule from its ``to_dict`` form, revalidating everything."""
    try:
        T = int(obj["T"])
        beta = np.asarray(obj["beta"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed schedule object: {exc}") from exc
    return NoiseSchedule(T=T, beta=beta)


def make_linear_schedule(
    steps: int, beta_start: float = 1e-4, beta_end: float = 0.02
) -> NoiseSchedule:
    """Beta ladder of ``steps`` values, linear from ``beta_start`` to ``beta_end``.

    Requires ``steps >= 1`` and ``0 < beta_start <= beta_end < 1``.  With a
    single step the ladder degenerates to ``[beta_start]``.
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    beta = np.linspace(beta_start, beta_end, steps, dtype=np.float64)
    return NoiseSchedule(T=steps, beta=beta)


@dataclass(frozen=True)
class SigmaLadder:
    """Increasing noise scales sigma_1 < ... < sigma_N for annealed sampling.

    ``sigma[-1]`` is the largest scale; the annealed sampler starts there and
    walks the ladder downward.
    """

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.ndim != 1 or sigma.shape[0] < 1:
            raise ParameterError("sigma ladder must be a non-empty 1-D array")
        if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0.0):
            raise ParameterError("sigma entries must be finite and positive")
        if np.any(np.diff(sigma) <= 0.0):
            raise ParameterError("sigma ladder must be strictly increasing")
        object.__setattr__(self, "sigma", sigma)

    @property
    def levels(self) -> int:
        return int(self.sigma.shape[0])


def make_sigma_ladder(sigma_min: float, sigma_max: float, N: int) -> SigmaLadder:
    """Geometric ladder of ``N`` scales from ``sigma_min`` up to ``sigma_max``."""
    if N < 2:
        raise ParameterError(f"need at least 2 levels, got {N}")
    if not (0.0 < sigma_min < sigma_max):
        raise ParameterError(
            f"need 0 < sigma_min < sigma_max, got ({sigma_min}, {sigma_max})"
        )
    sigma = np.exp(np.linspace(np.log(sigma_min), np.log(sigma_max), N))
    return SigmaLadder(sigma=sigma)


def forward_perturb(
    x0: np.ndarray, t: int, eps: np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """One-shot corruption of ``x0`` to level ``t``.

    Returns sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps, the closed
    form of composing t variance-preserving steps.  ``eps`` must be the
    caller's standard-normal draw with the same shape as ``x0``; passing it in
    explicitly keeps the function pure.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ParameterError(f"shape mismatch: x0 {x0.shape} vs eps {eps.shape}")
    if not 1 <= t <= schedule.T:
        raise ParameterError(f"t={t} outside [1, {schedule.T}]")
    ab = schedule.alpha_bar[t - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
