"""Reverse-process samplers: the skip sampler (ancestral walk included) and Langevin.

All samplers share the epsilon-parameterized network through
``guided_eps``, which blends conditional and unconditional predictions as
omega * eps(x, t, c) + (1 - omega) * eps(x, t, NULL), with the conditional
rows and their NULL twins in one network call.  omega = 1 is exactly the
conditional model and omega = 0 exactly the unconditional one; both
endpoints skip the NULL twins entirely so they are bitwise identical to the
single-model calls.

The skip sampler jumps along a subsequence of steps through the predicted
clean window; with sigma = 0 it is fully deterministic, and with sigma^2 equal
to the posterior variance it reproduces the ancestral per-step mean, so the
ancestral walk (``mode="ddpm"``) is the skip sampler over every step at eta = 1;
``ddpm_step`` stays as its single-step reference.  The last jump, to t = 0, has
zero variance, so no noise is drawn there.  One reverse loop over a (B, L)
state serves every draw, with the corrections from ``regularizers`` between
steps; ``sample_rows`` is the one place that gives each draw its stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (NumericError, ParameterError, _shown, check_array, check_finite_rows,
                     check_int, check_real)
from .regularizers import AntvConfig, BandSpec, antv_step, band_mask, bp_grad_step
from .schedules import NoiseSchedule, SigmaLadder, forward_perturb
from .scorenet import ScoreNetworkParams, _condition_arrays, _Prepared, predict_eps

__all__ = [
    "SamplerConfig",
    "SampleResult",
    "guided_eps",
    "ddpm_mean",
    "ddpm_step",
    "make_subsequence",
    "jump_variance",
    "ddim_mean",
    "langevin_sample",
    "sample_one",
    "sample_rows",
    "sample",
]


def guided_eps(
    params: ScoreNetworkParams,
    x_t: np.ndarray,
    t: int,
    cond: tuple[int, int] | None | Sequence[tuple[int, int] | None],
    omega: float,
) -> np.ndarray:
    """Classifier-free guided noise prediction.

    Returns omega * eps(x, t, cond) + (1 - omega) * eps(x, t, NULL) for one
    (L,) window and condition, or a (B, L) batch with B conditions or their
    ``_guidance`` value; the rows and their NULL twins go through one
    ``predict_eps`` call.  The omega = 0 and omega = 1 endpoints evaluate the
    network once on the rows as given and return that result unchanged.  A
    NULL condition with omega != 0 is rejected: nothing to guide toward.
    """
    omega = check_real(omega, "omega")
    x_t = check_array(x_t, "x_t", ndim=(1, 2), last=params.config.input_len)
    if x_t.ndim == 1:
        return guided_eps(params, x_t[None], t, [cond], omega)[0]
    B = len(x_t)
    prep = cond if isinstance(cond, _Prepared) else _guidance(params, cond, B, omega)
    if omega in (0.0, 1.0):
        return predict_eps(params, x_t, t, prep)
    eps = predict_eps(params, np.concatenate([x_t, x_t]), t, prep)
    return omega * eps[:B] + (1.0 - omega) * eps[B:]


def _guidance(params: ScoreNetworkParams, cond: Sequence, B: int, omega: float) -> _Prepared:
    """The checked conditions of B rows at weight omega, with NULL twins unless omega is 0 or 1."""
    ids = _condition_arrays(cond, params.config, B)  # every id, even those omega 0 does not encode
    if omega != 0.0 and np.any(ids[0] < 0):
        raise ParameterError(f"guidance weight {omega} needs a condition to guide toward: "
                             "give one (--industry and --board) or set sampler.guidance to 0")
    null = np.full_like(ids, -1)  # the twin layout: NULL rows at 0, the rows at 1, else both
    return _Prepared(params, null if omega == 0 else ids if omega == 1 else np.hstack([ids, null]))


def ddpm_mean(
    x_t: np.ndarray, t: int, eps_hat: np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """Posterior mean of one ancestral step:
    (x_t - beta_t / sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_t)."""
    t = check_int(t, "t", 1, schedule.T + 1)
    x_t = check_array(x_t, "x_t")
    eps_hat = check_array(eps_hat, "eps_hat", like=("x_t", x_t))
    beta = schedule.beta[t - 1]
    ab = schedule.alpha_bar[t - 1]
    return (x_t - beta / math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(schedule.alpha[t - 1])


def ddpm_step(
    x_t: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """One ancestral reverse step t -> t-1.

    Adds posterior-variance noise except at t = 1, where the variance is
    exactly zero and no noise is drawn, so the final step is deterministic.
    """
    mean = ddpm_mean(x_t, t, eps_hat, schedule)
    var = schedule.posterior_var[t - 1]
    if var == 0.0:
        return mean
    return mean + math.sqrt(var) * rng.standard_normal(mean.shape)


def make_subsequence(T: int, n_steps: int) -> np.ndarray:
    """Increasing step subsequence of length ``n_steps`` ending exactly at T.

    Uniform stride floor(T / n_steps) counted back from T:
    T=400, n_steps=50 gives 8, 16, ..., 400.  n_steps = T returns 1..T.
    """
    check_int(n_steps, "n_steps", 1, check_int(T, "T", 1) + 1)
    stride = T // n_steps
    taus = T - stride * np.arange(n_steps - 1, -1, -1, dtype=np.int64)
    return taus


def jump_variance(schedule: NoiseSchedule, t_cur: int, t_prev: int) -> float:
    """Forward-posterior variance of the jump t_cur -> t_prev (t_prev may be 0).

    (1 - alpha_bar_prev) / (1 - alpha_bar_cur) * (1 - alpha_bar_cur / alpha_bar_prev).
    For adjacent steps this is exactly the stored per-step posterior variance;
    for t_prev = 0 it is 0.
    """
    t_cur = check_int(t_cur, "t_cur", 1, schedule.T + 1)
    t_prev = check_int(t_prev, "t_prev", 0, t_cur)
    ab_cur, ab_prev = schedule.alpha_bar_at(t_cur), schedule.alpha_bar_at(t_prev)
    return (1.0 - ab_prev) / (1.0 - ab_cur) * (1.0 - ab_cur / ab_prev)


def ddim_mean(
    x_t: np.ndarray,
    t_cur: int,
    t_prev: int,
    eps_hat: np.ndarray,
    schedule: NoiseSchedule,
    sigma: float = 0.0,
) -> np.ndarray:
    """Deterministic part of one skip step t_cur -> t_prev.

    Reconstructs the clean-window estimate
    x0_hat = (x_t - sqrt(1 - alpha_bar_cur) * eps_hat) / sqrt(alpha_bar_cur)
    and re-corrupts it to the target level, keeping sqrt(1 - alpha_bar_prev -
    sigma^2) of the predicted noise direction.  sigma^2 may not exceed
    1 - alpha_bar_prev (the noise budget of the target level).
    """
    t_cur = check_int(t_cur, "t_cur", 1, schedule.T + 1)
    t_prev = check_int(t_prev, "t_prev", 0, t_cur)
    ab_cur, ab_prev = schedule.alpha_bar_at(t_cur), schedule.alpha_bar_at(t_prev)
    sigma = check_real(sigma, "sigma", 0)
    x_t = check_array(x_t, "x_t")
    eps_hat = check_array(eps_hat, "eps_hat", like=("x_t", x_t))
    x0_hat = (x_t - math.sqrt(1.0 - ab_cur) * eps_hat) / math.sqrt(ab_cur)
    return math.sqrt(ab_prev) * x0_hat + math.sqrt(_budget(ab_prev, sigma, t_prev)) * eps_hat


def _budget(ab_prev: float, sigma: float, t_prev: int) -> float:
    """What sigma^2 leaves of the noise budget 1 - alpha_bar_prev, or a ParameterError past it."""
    budget = 1.0 - ab_prev - sigma * sigma
    if budget < -1e-15:
        raise ParameterError(f"sigma^2={sigma * sigma} exceeds the noise budget {1.0 - ab_prev} "
                             f"at t_prev={t_prev}")
    return max(budget, 0.0)


def langevin_sample(
    score_fn: Callable[[np.ndarray, float], np.ndarray],
    ladder: SigmaLadder,
    step_sizes: np.ndarray | float,
    n_steps: int,
    shape: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Annealed Langevin dynamics over a decreasing noise ladder.

    Starts from N(0, sigma_max^2) and, for each level i from the top of the
    ladder down, runs ``n_steps`` updates

        x <- x + eps_i * score_fn(x, sigma_i) + sqrt(2 eps_i) * z,

    carrying the final state of one level into the next.  ``step_sizes``
    aligns with ``ladder.sigma`` (index 0 = smallest scale) and may be a
    scalar.  Draw order: the initial state, then one z per update.
    """
    if not np.isscalar(step_sizes):  # a scalar keeps check_real's message, which names its value
        check_array(step_sizes, "step_sizes", ndim=(0, 1), last=ladder.levels)
    sizes = [check_real(size, "step_sizes", 0, open_low=True)
             for size in np.broadcast_to(np.asarray(step_sizes, dtype=object), (ladder.levels,))]
    check_int(n_steps, "n_steps", 1)
    sigma_max = float(ladder.sigma[-1])
    x = sigma_max * rng.standard_normal(shape)
    for level in range(ladder.levels - 1, -1, -1):
        sigma = float(ladder.sigma[level])
        eps_i = sizes[level]
        root = math.sqrt(2.0 * eps_i)
        for _ in range(n_steps):
            s = check_array(score_fn(x, sigma), "score_fn output", like=("the state", x))
            if not np.all(np.isfinite(s)):
                raise NumericError(f"score function returned non-finite values at sigma={sigma}")
            x = x + eps_i * s + root * rng.standard_normal(shape)
    return x


@dataclass(frozen=True)
class SamplerConfig:
    """Settings of the high-level sampling loop.

    mode : "ddim" (skip sampler) or "ddpm" (the skip sampler over every
        step at eta = 1, i.e. the ancestral walk).
    steps : subsequence length for ddim; None means the full T.  ddpm walks
        every step, so it takes only None or T and raises on any other value.
    eta : noise scale factor; per-jump sigma = eta * sqrt(jump_variance).
        0 is deterministic, 1 matches the ancestral noise level.  ddpm
        ignores it.
    guidance : classifier-free guidance weight omega.
    num_samples : how many windows ``sample`` draws; ``sample_rows`` draws
        one per condition and does not read it.
    lambda_antv : smoothing step size applied after each denoising step, and
        so the sweep's whole strength; 0 disables.
    lambda_bp : spectral-anchor step size, used only when the rows have donor
        windows; 0 disables; below 1/L, or the anchor diverges.
    antv_window/antv_sigma : smoothing shape parameters.
    band_low/band_high : inclusive frequency band of the spectral anchor.
    seed : base seed; row i of ``sample_rows`` runs on the i-th spawned child
        stream.
    """

    mode: str = "ddim"
    steps: int | None = None
    eta: float = 0.0
    guidance: float = 7.5
    num_samples: int = 1
    lambda_antv: float = 0.0
    lambda_bp: float = 0.0
    antv_window: int = 3
    antv_sigma: float = 1.0
    band_low: int = 1
    band_high: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("ddim", "ddpm"):
            raise ParameterError(f"unknown sampler mode {self.mode!r}")
        if self.steps is not None:
            check_int(self.steps, "steps", 1)
        check_real(self.eta, "eta", 0)
        check_real(self.guidance, "guidance")
        check_int(self.num_samples, "num_samples", 1)
        check_int(self.seed, "seed", 0)
        check_int(self.antv_window, "antv_window", 1)
        check_int(self.band_low, "band_low", 0)
        check_int(self.band_high, "band_high", self.band_low + 1)
        check_real(self.antv_sigma, "antv_sigma", 0, open_low=True)
        check_real(self.lambda_antv, "lambda_antv", 0)
        check_real(self.lambda_bp, "lambda_bp", 0)


@dataclass(frozen=True)
class SampleResult:
    """Generated windows (num_samples, L) and their pointwise mean (L,)."""

    mean: np.ndarray
    samples: np.ndarray


def _jumps(schedule: NoiseSchedule, cfg: SamplerConfig) -> list[tuple[int, int, float]]:
    """(t_cur, t_prev, sigma) of every jump, from the top of the subsequence down to 0."""
    T = schedule.T
    steps = cfg.steps if cfg.steps is not None else T
    eta = cfg.eta
    if cfg.mode == "ddpm":
        if steps != T:
            raise ParameterError(
                f"ddpm walks all {T} steps; steps={cfg.steps} is only valid for ddim"
            )
        eta = 1.0
    taus = make_subsequence(T, steps).tolist()[::-1]
    jumps = [(t_cur, t_prev, eta * math.sqrt(jump_variance(schedule, t_cur, t_prev)))
             for t_cur, t_prev in zip(taus, taus[1:] + [0])]
    for _, t_prev, sigma in jumps:  # an eta past some jump's budget fails before the first step
        _budget(schedule.alpha_bar_at(t_prev), sigma, t_prev)
    return jumps


def _reverse(
    params: ScoreNetworkParams,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    conditions: Sequence[tuple[int, int] | None],
    sources: np.ndarray | Sequence[np.ndarray] | None,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """The reverse loop over a (B, L) state; ``sources`` gives every row a donor or is None.

    Per step, in order: the guided noise prediction, the skip update, the
    smoothing sweep (if enabled), and the spectral-anchor step (with donors).
    Row i draws its initial state and its noise from ``rngs[i]``.
    """
    L = params.config.input_len
    jumps = _jumps(schedule, cfg)
    guide = _guidance(params, conditions, len(conditions), cfg.guidance)
    x = np.array([rng.standard_normal(L) for rng in rngs])
    band = None
    if sources is not None:
        if cfg.lambda_bp >= 1.0 / L:
            raise ParameterError(f"lambda_bp={cfg.lambda_bp} must be below 1/L = {1.0 / L:.6g} "
                                 f"(L={L}), or the spectral anchor diverges")
        if cfg.lambda_bp > 0.0:  # a band past L // 2 fails here, before any network call
            band_mask(L, band := BandSpec(cfg.band_low, cfg.band_high))
        sources = check_array(sources, "donor stack", ndim=(2,), last=L, like=("the state", x),
                              finite=True)
        x = forward_perturb(sources, jumps[0][0], x, schedule)
    antv_cfg = None
    if cfg.lambda_antv > 0.0:
        antv_cfg = AntvConfig(window=cfg.antv_window, sigma=cfg.antv_sigma, rate=cfg.lambda_antv)
    for t_cur, t_prev, sigma in jumps:
        eps_hat = guided_eps(params, x, t_cur, guide, cfg.guidance)
        x = ddim_mean(x, t_cur, t_prev, eps_hat, schedule, sigma)
        if sigma > 0.0:
            x = x + sigma * np.array([rng.standard_normal(L) for rng in rngs])
        if antv_cfg is not None:
            x = antv_step(x, antv_cfg)
        if band is not None:
            x = bp_grad_step(x, sources, band, cfg.lambda_bp)
        check_finite_rows(x, f"sampler state after step t={t_cur}")
    return x


# kept because bench/tracing.py patches it; it goes once the bench spans sample_rows instead
def sample_one(params: ScoreNetworkParams, schedule: NoiseSchedule, cfg: SamplerConfig,
               condition: tuple[int, int] | None) -> np.ndarray:
    """Row 0 of ``sample_rows(params, schedule, cfg, [condition])``: child stream 0, no donor."""
    return sample_rows(params, schedule, cfg, [condition])[0]


def sample_rows(
    params: ScoreNetworkParams,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    conditions: Sequence[tuple[int, int] | None],
    sources: np.ndarray | Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Draw one window per condition, as a (len(conditions), L) array.

    The one entry to the reverse loop: row i draws from child stream i spawned
    from ``cfg.seed``, with ``conditions[i]`` and donor window ``sources[i]``,
    so it does not depend on how many rows are drawn.  ``sources`` is None (no
    donors) or one donor per row, as a (B, L) array or B windows.
    ``cfg.num_samples`` is not read.
    """
    try:
        n = len(conditions)
    except TypeError:
        raise ParameterError(f"conditions {_shown(conditions, repr)} is not a sequence") from None
    if not n:
        return np.empty((0, params.config.input_len))
    streams = np.random.SeedSequence(cfg.seed).spawn(n)
    rngs = [np.random.default_rng(s) for s in streams]
    return _reverse(params, schedule, cfg, conditions, sources, rngs)


def sample(
    params: ScoreNetworkParams,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    condition: tuple[int, int] | None = None,
) -> SampleResult:
    """Generate ``cfg.num_samples`` windows and their pointwise mean.

    The draws are ``sample_rows`` over ``cfg.num_samples`` copies of
    ``condition``, so the result is reproducible and individual samples are
    unchanged when num_samples grows.
    """
    out = sample_rows(params, schedule, cfg, [condition] * cfg.num_samples)
    return SampleResult(mean=out.mean(axis=0), samples=out)
