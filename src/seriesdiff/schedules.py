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

from .errors import ParameterError, check_array, check_int, check_real

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
        beta = check_array(self.beta, "beta", ndim=(1,), nonempty=True, finite=True)
        object.__setattr__(self, "T", check_int(self.T, "T", 1))  # an int, as to_dict saves it
        if self.T != beta.shape[0]:
            raise ParameterError(
                f"schedule length mismatch: T={self.T} but beta has {beta.shape[0]} entries"
            )
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
        t = check_int(t, "t", 0, self.T + 1)
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])

    def to_dict(self) -> dict:
        """Flat serializable form; derived vectors are recomputed on load."""
        return {"T": self.T, "beta": [float(b) for b in self.beta]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def schedule_from_dict(obj: dict) -> NoiseSchedule:
    """Rebuild a schedule from its ``to_dict`` form, revalidating everything."""
    try:
        T, beta = obj["T"], obj["beta"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed schedule object: {exc}") from exc
    return NoiseSchedule(T=T, beta=beta)


def make_linear_schedule(
    steps: int, beta_start: float = 1e-4, beta_end: float = 0.02
) -> NoiseSchedule:
    """Beta ladder of ``steps`` values, linear from ``beta_start`` to ``beta_end``.

    Requires ``steps >= 1`` and ``0 < beta_start <= beta_end < 1``.  With a
    single step the ladder degenerates to ``[beta_start]``.
    """
    check_int(steps, "steps", 1)
    beta_start = check_real(beta_start, "beta_start", 0, 1, open_low=True)
    beta_end = check_real(beta_end, "beta_end", beta_start, 1)
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
        sigma = check_array(self.sigma, "sigma", ndim=(1,), nonempty=True)
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
    check_int(N, "N", 2)
    sigma_min = check_real(sigma_min, "sigma_min", 0, open_low=True)
    sigma_max = check_real(sigma_max, "sigma_max", sigma_min, open_low=True)
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
    x0 = check_array(x0, "x0")
    eps = check_array(eps, "eps", like=("x0", x0))
    ab = schedule.alpha_bar[check_int(t, "t", 1, schedule.T + 1) - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
