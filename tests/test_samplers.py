"""Reverse-process steps, guidance blending, and the annealed sampler."""
from __future__ import annotations

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seriesdiff import (
    NumericError,
    ParameterError,
    SamplerConfig,
    ScoreNetConfig,
    TrainConfig,
    ddim_mean,
    ddpm_mean,
    ddpm_step,
    dsm_loss,
    forward_perturb,
    guided_eps,
    init_params,
    jump_variance,
    langevin_sample,
    make_linear_schedule,
    make_sigma_ladder,
    make_subsequence,
    predict_eps,
    sample,
    sample_one,
    sample_rows,
    train,
)
from seriesdiff import samplers
from seriesdiff.errors import check_finite_rows
from seriesdiff.oracles import GaussianSpec, ve_perturbed_gaussian_score

TINY = ScoreNetConfig(
    input_len=3, width=4, blocks=1, time_dim=2, embed_dim=2,
    cond_hidden=3, n_industries=3,
)


def _noisy_params(seed: int):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, rng)
    return params.with_values(params.values + 0.2 * rng.standard_normal(params.n_params))


def _one_row(params, sch, cfg, cond, stream, donor=None):
    """A one-row run of the reverse loop on the given child stream."""
    return samplers._reverse(params, sch, cfg, [cond], None if donor is None else donor[None],
                             [np.random.default_rng(stream)])[0]


def test_guidance_endpoints_are_bitwise():
    params = _noisy_params(0)
    x = np.array([0.4, -0.2, 1.1])
    cond = (1, 2)
    assert np.array_equal(
        guided_eps(params, x, 2, cond, 0.0), predict_eps(params, x, 2, None)
    )
    assert np.array_equal(
        guided_eps(params, x, 2, cond, 1.0), predict_eps(params, x, 2, cond)
    )
    # NULL condition only makes sense at omega = 0
    assert np.array_equal(
        guided_eps(params, x, 2, None, 0.0), predict_eps(params, x, 2, None)
    )
    with pytest.raises(ParameterError):
        guided_eps(params, x, 2, None, 1.0)


def test_guidance_linear_combination():
    params = _noisy_params(1)
    x = np.array([0.1, 0.2, -0.3])
    cond = (0, 1)
    omega = 7.5
    want = omega * predict_eps(params, x, 4, cond) + (1 - omega) * predict_eps(
        params, x, 4, None
    )
    assert np.max(np.abs(guided_eps(params, x, 4, cond, omega) - want)) < 1e-12


def test_ddpm_mean_formula():
    sch = make_linear_schedule(10, 1e-3, 0.1)
    x = np.array([1.0, -2.0])
    eps = np.array([0.5, 0.5])
    t = 7
    got = ddpm_mean(x, t, eps, sch)
    beta, ab, al = sch.beta[t - 1], sch.alpha_bar[t - 1], sch.alpha[t - 1]
    want = (x - beta / math.sqrt(1 - ab) * eps) / math.sqrt(al)
    assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(ParameterError):
        ddpm_mean(x, 0, eps, sch)
    with pytest.raises(ParameterError):
        ddpm_mean(x, 11, eps, sch)
    with pytest.raises(ParameterError):
        ddpm_mean(x, 3, np.zeros(3), sch)


def test_ddpm_final_step_is_deterministic():
    sch = make_linear_schedule(10, 1e-3, 0.1)
    x = np.array([0.7, -0.1])
    eps = np.array([0.2, 0.3])

    class Boom:
        def standard_normal(self, *_a, **_k):  # pragma: no cover
            raise AssertionError("t=1 must not draw noise")

    out = ddpm_step(x, 1, eps, sch, Boom())
    assert np.array_equal(out, ddpm_mean(x, 1, eps, sch))


def test_ddpm_step_noise_scale():
    sch = make_linear_schedule(10, 1e-3, 0.1)
    x = np.zeros(5000)
    eps = np.zeros(5000)
    t = 6
    out = ddpm_step(x, t, eps, sch, np.random.default_rng(0))
    assert float(np.var(out)) == pytest.approx(
        sch.posterior_var[t - 1], rel=0.1
    )


def test_subsequence_uniform_stride():
    taus = make_subsequence(400, 50)
    assert taus[-1] == 400
    assert len(taus) == 50
    assert np.array_equal(taus, np.arange(8, 401, 8))
    assert np.array_equal(make_subsequence(10, 10), np.arange(1, 11))
    assert make_subsequence(10, 1).tolist() == [10]
    with pytest.raises(ParameterError):
        make_subsequence(10, 11)
    with pytest.raises(ParameterError):
        make_subsequence(10, 0)


def test_jump_variance_adjacent_matches_stored():
    sch = make_linear_schedule(40, 1e-3, 0.08)
    for t in range(1, 41):
        assert jump_variance(sch, t, t - 1) == pytest.approx(
            sch.posterior_var[t - 1], abs=1e-15
        )
    with pytest.raises(ParameterError):
        jump_variance(sch, 5, 5)
    with pytest.raises(ParameterError):
        jump_variance(sch, 3, 7)


def test_ddim_with_posterior_sigma_equals_ddpm_mean():
    sch = make_linear_schedule(60, 1e-4, 0.05)
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = int(rng.integers(1, 61))
        x = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        sigma = math.sqrt(sch.posterior_var[t - 1])
        a = ddim_mean(x, t, t - 1, eps, sch, sigma)
        b = ddpm_mean(x, t, eps, sch)
        assert np.max(np.abs(a - b)) < 1e-12


def test_ddim_deterministic_inversion():
    # sigma=0 with the true noise recovers x0 from any level in one jump
    sch = make_linear_schedule(60, 1e-4, 0.05)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(6)
    for t in (1, 13, 37, 60):
        eps = rng.standard_normal(6)
        x_t = forward_perturb(x0, t, eps, sch)
        back = ddim_mean(x_t, t, 0, eps, sch, 0.0)
        assert np.max(np.abs(back - x0)) < 1e-12


def test_ddim_sigma_budget_enforced():
    sch = make_linear_schedule(10, 1e-3, 0.1)
    x = np.zeros(2)
    eps = np.zeros(2)
    too_big = math.sqrt(1.0 - sch.alpha_bar[3]) + 1e-6
    with pytest.raises(ParameterError):
        ddim_mean(x, 6, 4, eps, sch, too_big)


def test_langevin_matches_analytic_target_loosely():
    spec = GaussianSpec(mean=0.0, var=1.0)
    ladder = make_sigma_ladder(0.01, 1.0, 10)

    def score(x, sigma):
        return ve_perturbed_gaussian_score(x, spec, sigma)

    x = langevin_sample(
        score, ladder, 0.02 * (1.0 + ladder.sigma**2), 50, (2000,),
        np.random.default_rng(4),
    )
    assert abs(float(np.mean(x))) < 0.1
    assert float(np.var(x)) == pytest.approx(1.0, rel=0.15)


def test_langevin_validation():
    ladder = make_sigma_ladder(0.1, 1.0, 3)
    ok = lambda x, s: -x
    rng = np.random.default_rng(5)
    with pytest.raises(ParameterError):
        langevin_sample(ok, ladder, -0.1, 10, (4,), rng)
    with pytest.raises(ParameterError):
        langevin_sample(ok, ladder, 0.1, 0, (4,), rng)
    with pytest.raises(ParameterError):
        langevin_sample(lambda x, s: x[:1], ladder, 0.1, 2, (4,), rng)
    with pytest.raises(NumericError):
        langevin_sample(lambda x, s: x * np.nan, ladder, 0.1, 2, (4,), rng)


def test_sampler_config_validation():
    with pytest.raises(ParameterError):
        SamplerConfig(mode="euler")
    with pytest.raises(ParameterError):
        SamplerConfig(steps=0)
    with pytest.raises(ParameterError):
        SamplerConfig(eta=-1.0)
    with pytest.raises(ParameterError):
        SamplerConfig(num_samples=0)
    with pytest.raises(ParameterError):
        SamplerConfig(lambda_antv=-0.5)
    with pytest.raises(ParameterError):
        SamplerConfig(lambda_antv=float("nan"))
    with pytest.raises(ParameterError):
        SamplerConfig(lambda_bp=float("nan"))
    # each float field is named, whatever the other settings are
    for name, values in (("antv_sigma", (0.0, 0, -1.0, float("nan"), float("inf"), "x", True,
                                         10**400)),
                         ("lambda_antv", (float("inf"), -0.5, "x", False)),
                         ("lambda_bp", (float("inf"), 10**400, None))):
        for value in values:
            with pytest.raises(ParameterError, match="^" + re.escape(f"{name} {value!r} ")):
                SamplerConfig(**{name: value})
    assert SamplerConfig(antv_sigma=np.float32(0.5), lambda_antv=0, lambda_bp=np.int64(0))


def test_ddpm_mode_rejects_subsequence():
    params = _noisy_params(7)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cfg = SamplerConfig(mode="ddpm", steps=6, guidance=0.0, seed=0)
    with pytest.raises(ParameterError):
        sample_one(params, sch, cfg, None)


def test_ddpm_mode_is_the_full_skip_sampler_at_eta_one():
    params = _noisy_params(7)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cond = (1, 0)
    ddpm = SamplerConfig(mode="ddpm", eta=0.3, guidance=2.0, num_samples=3, seed=5)
    ddim = SamplerConfig(mode="ddim", steps=12, eta=1.0, guidance=2.0, num_samples=3, seed=5)
    a = sample(params, sch, ddpm, cond)
    b = sample(params, sch, ddim, cond)
    assert np.array_equal(a.samples, b.samples)


def test_sample_rows_gives_each_row_its_stream_condition_and_donor():
    params = _noisy_params(11)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    rng = np.random.default_rng(3)
    sources = [np.cumsum(rng.standard_normal(3)) for _ in range(3)]
    conds = [(i, 0) for i in range(3)]
    cfg = SamplerConfig(mode="ddim", steps=6, eta=0.5, guidance=1.0, lambda_bp=0.01,
                        band_low=0, band_high=1, seed=13)
    rows = sample_rows(params, sch, cfg, conds, sources=sources)
    streams = np.random.SeedSequence(13).spawn(3)
    for i in range(3):
        assert np.array_equal(rows[i], _one_row(params, sch, cfg, conds[i], streams[i], sources[i]))
    assert sample_rows(params, sch, cfg, []).shape == (0, 3)
    with pytest.raises(ParameterError):
        sample_rows(params, sch, cfg, conds, sources=sources[:2])


def test_sample_one_is_row_zero_of_sample_rows():
    params = _noisy_params(11)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cfg = SamplerConfig(mode="ddim", steps=6, eta=0.5, guidance=2.0, lambda_antv=0.05,
                        antv_window=1, seed=13)
    for cond, guidance in (((1, 2), 2.0), (None, 0.0)):
        at = replace(cfg, guidance=guidance)
        one = sample_one(params, sch, at, cond)
        assert one.shape == (3,)
        assert np.array_equal(one, sample_rows(params, sch, at, [cond])[0])


@pytest.mark.parametrize("conds", [None, 5])
def test_sample_rows_needs_a_sequence_of_conditions(conds):
    # None used to give an empty draw, and 5 a bare TypeError from len()
    params = _noisy_params(11)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    with pytest.raises(ParameterError, match=f"^conditions {conds} is not a sequence$"):
        sample_rows(params, sch, SamplerConfig(guidance=0.0), conds)


def test_sample_is_reproducible_and_prefix_stable():
    params = _noisy_params(8)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cond = (1, 0)
    cfg = SamplerConfig(mode="ddim", steps=6, eta=0.5, guidance=1.0,
                        num_samples=3, seed=42)
    a = sample(params, sch, cfg, cond)
    b = sample(params, sch, cfg, cond)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.mean, a.samples.mean(axis=0))
    # child streams make sample i independent of num_samples
    wider = SamplerConfig(mode="ddim", steps=6, eta=0.5, guidance=1.0,
                          num_samples=5, seed=42)
    c = sample(params, sch, wider, cond)
    assert np.array_equal(c.samples[:3], a.samples)


def test_smoothing_and_anchor_hooks_change_the_draw():
    params = _noisy_params(9)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    rng = np.random.default_rng(1)
    source = np.cumsum(rng.standard_normal(3))
    base = SamplerConfig(mode="ddim", steps=6, guidance=0.0, seed=7)
    plain = sample_one(params, sch, base, None)
    smoothed = sample_one(params, sch, replace(base, lambda_antv=0.05, antv_window=1), None)
    anchored = sample_rows(params, sch, replace(base, lambda_bp=0.01, band_low=0, band_high=1),
                           [None], sources=[source])[0]
    assert not np.array_equal(plain, smoothed)
    assert not np.array_equal(plain, anchored)


def test_source_window_shape_checked():
    # donors come for every row or for none, as one (B, L) stack that is checked as a whole
    params = _noisy_params(10)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cfg = SamplerConfig(mode="ddim", steps=6, guidance=0.0,
                        lambda_bp=0.01, band_low=0, band_high=1)
    for source, problem in ((np.ones(5), "of shape (1, 5) does not end in an axis of length 3"),
                            ([1.0, np.nan, 0.0], "of shape (1, 3) has non-finite entries")):
        with pytest.raises(ParameterError, match="^" + re.escape(f"donor stack {problem}") + "$"):
            sample_rows(params, sch, cfg, [None], sources=[source])
    for sources, problem in (
        ([np.ones(3), None, np.ones(3)], "is not a rectangular array"),
        ([None] * 3, "of dtype object is not an array of real numbers"),
        ([np.ones(3), np.ones(3), np.ones(4)], "is not a rectangular array"),
        (np.ones((2, 3)), "of shape (2, 3) does not match the state of shape (3, 3)"),
        (np.ones(3), "of shape (3,) is not of rank 2"),
    ):
        with pytest.raises(ParameterError, match="^" + re.escape(f"donor stack {problem}") + "$"):
            sample_rows(params, sch, cfg, [None] * 3, sources=sources)


def test_sample_rows_matches_one_row_runs_across_tile_boundaries():
    # guided rows and their NULL twins share one network call in 8-row tiles;
    # every row must still be its own one-row draw, bit for bit, with donors and without
    params = _noisy_params(12)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    rng = np.random.default_rng(4)
    cfg = SamplerConfig(mode="ddim", steps=6, eta=0.5, guidance=2.0, lambda_antv=0.05,
                        antv_window=1, lambda_bp=0.1, band_low=0, band_high=1, seed=21)
    for n in (1, 7, 8, 9, 17):
        conds = [(i % 3, i % 5) for i in range(n)]
        streams = np.random.SeedSequence(21).spawn(n)
        for sources in (np.cumsum(rng.standard_normal((n, 3)), axis=1), None):
            rows = sample_rows(params, sch, cfg, conds, sources=sources)
            for i in range(n):
                one = _one_row(params, sch, cfg, conds[i], streams[i],
                               None if sources is None else sources[i])
                assert np.array_equal(rows[i], one), (n, i, sources is None)


@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("steps", [10, 50, 400])
def test_reverse_loop_matches_the_closed_form_under_the_exact_predictor(monkeypatch, steps, eta):
    # for x0 ~ N(mu, s2 I) the exact noise predictor is affine in x, so every
    # jump is x <- k x + b (+ sigma z); the recursion below re-draws z from the
    # rows' child streams in the loop's order: the start normals, then one
    # normal per jump with sigma > 0
    mu, s2, L, B, seed = 0.3, 0.5, 4, 5, 9
    params = init_params(replace(TINY, input_len=L), np.random.default_rng(0))
    sch = make_linear_schedule(400, 1e-4, 0.02)
    ab = np.concatenate([[1.0], np.cumprod(1.0 - sch.beta)])

    def exact_eps(params, x, t, guide, omega):
        assert omega == 0.0 and x.shape == (B, L)
        return math.sqrt(1.0 - ab[t]) * (x - math.sqrt(ab[t]) * mu) / (ab[t] * s2 + 1.0 - ab[t])

    monkeypatch.setattr(samplers, "guided_eps", exact_eps)
    cfg = SamplerConfig(mode="ddim", steps=steps, eta=eta, guidance=0.0, seed=seed)
    got = sample_rows(params, sch, cfg, [None] * B)

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(B)]
    x = np.array([rng.standard_normal(L) for rng in rngs])
    taus = list(range(400, 0, -(400 // steps))) + [0]
    for t, p in zip(taus, taus[1:]):
        sigma = eta * math.sqrt((1.0 - ab[p]) / (1.0 - ab[t]) * (1.0 - ab[t] / ab[p]))
        c = math.sqrt(1.0 - ab[t]) / (ab[t] * s2 + 1.0 - ab[t])
        r = math.sqrt(max(1.0 - ab[p] - sigma * sigma, 0.0))
        root = math.sqrt(ab[p] / ab[t])
        k = root * (1.0 - math.sqrt(1.0 - ab[t]) * c) + r * c
        b = (root * math.sqrt(1.0 - ab[t]) - r) * c * math.sqrt(ab[t]) * mu
        x = k * x + b
        if sigma > 0.0:
            x = x + sigma * np.array([rng.standard_normal(L) for rng in rngs])
    assert np.max(np.abs(got - x)) <= 1e-12


def test_guided_eps_batch_matches_rows():
    params = _noisy_params(13)
    rng = np.random.default_rng(5)
    for n in (1, 9, 17):
        x = rng.standard_normal((n, 3))
        conds = [(i % 3, i % 5) for i in range(n)]
        for omega in (0.0, 1.0, 7.5):
            got = guided_eps(params, x, 4, conds, omega)
            assert got.shape == (n, 3)
            for i in range(n):
                assert np.array_equal(got[i], guided_eps(params, x[i], 4, conds[i], omega))
    with pytest.raises(ParameterError):
        guided_eps(params, x[:2], 4, [conds[0], None], 7.5)


def test_guided_eps_checks_the_number_of_conditions():
    # 5 rows with 3 or 7 conditions: omega 0 used to ignore them, and other
    # weights named the doubled counts of the rows and their NULL twins
    params = _noisy_params(16)
    x = np.random.default_rng(6).standard_normal((5, 3))
    for n in (3, 7):
        conds = [(i % 3, i % 5) for i in range(n)]
        for omega in (0.0, 1.0, 7.5):
            with pytest.raises(ParameterError, match=f"^5 windows need 5 conditions, got {n}$"):
                guided_eps(params, x, 4, conds, omega)
    with pytest.raises(ParameterError, match="^5 windows need 5 conditions, got no sequence$"):
        guided_eps(params, x, 4, None, 0.0)


@pytest.mark.parametrize("conds, got", [([(1, 2), None], 2), (5, "no sequence")])
@pytest.mark.parametrize("entry", ["train", "dsm_loss", "predict_eps", "guided_eps"])
def test_every_entry_point_states_the_condition_count_rule_in_one_text(entry, conds, got):
    # sample_rows draws one row per condition, so its count cannot disagree
    params = _noisy_params(16)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    x = np.zeros((3, 3))
    call = {
        "train": lambda: train(x, conds, sch, TrainConfig(epochs=1), TINY),
        "dsm_loss": lambda: dsm_loss(params, x, conds, sch, np.random.default_rng(0)),
        "predict_eps": lambda: predict_eps(params, x, 4, conds),
        "guided_eps": lambda: guided_eps(params, x, 4, conds, 7.5),
    }[entry]
    with pytest.raises(ParameterError, match=f"^3 windows need 3 conditions, got {got}$"):
        call()


def test_guidance_without_a_condition_fails_before_any_step(monkeypatch):
    params = _noisy_params(17)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cfg = SamplerConfig(mode="ddim", steps=6, guidance=7.5, seed=5)

    def step(*args, **kwargs):
        raise AssertionError("a reverse step ran")

    monkeypatch.setattr(samplers, "guided_eps", step)
    monkeypatch.setattr(samplers, "predict_eps", step)
    cond, null = (1, 2), None
    for conds in ([cond, None, cond], [null]):
        with pytest.raises(ParameterError, match="needs a condition to guide toward"):
            sample_rows(params, sch, cfg, conds)
    with pytest.raises(ParameterError, match="needs a condition to guide toward"):
        sample_rows(params, sch, cfg, [None], sources=[np.ones(3)])


def test_spectral_anchor_rate_must_contract():
    # the anchor maps x - target to (1 - 2 L rate)(x - target): at rate >= 1/L
    # it no longer contracts, and 50 steps at the old default of 0.03 with
    # L = 60 grew windows to 1e21
    params = _noisy_params(14)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    source = np.array([0.3, -0.1, 0.5])
    cfg = SamplerConfig(mode="ddim", steps=6, guidance=0.0, band_low=0, band_high=1,
                        lambda_bp=1.0 / 3.0, seed=2)
    with pytest.raises(ParameterError, match="1/L"):
        sample_rows(params, sch, cfg, [None], sources=[source])
    with pytest.raises(ParameterError, match="1/L"):
        sample_rows(params, sch, cfg, [None, None], sources=[source, source])
    below = replace(cfg, lambda_bp=0.33)
    assert np.all(np.isfinite(
        sample_rows(params, sch, below, [None], sources=[source])))
    # without a donor the anchor never runs, so the rate is not checked
    assert sample_rows(params, sch, cfg, [None]).shape == (1, 3)


def test_a_band_past_nyquist_fails_before_any_step(monkeypatch):
    # L = 3 has Nyquist index 1: band_high = 2 used to fail inside the first
    # anchor step, after one guided evaluation
    params = _noisy_params(18)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cfg = SamplerConfig(mode="ddim", steps=6, guidance=0.0, lambda_bp=0.01, band_low=0,
                        band_high=2, seed=2)
    sources = np.ones((2, 3))
    # the band is read only by the anchor: without donors or at lambda_bp = 0 the draw runs
    assert sample_rows(params, sch, cfg, [None, None]).shape == (2, 3)
    unanchored = replace(cfg, lambda_bp=0.0)
    assert sample_rows(params, sch, unanchored, [None, None], sources).shape == (2, 3)

    def step(*args, **kwargs):
        raise AssertionError("a reverse step ran")

    monkeypatch.setattr(samplers, "guided_eps", step)
    with pytest.raises(ParameterError, match="^band high edge 2 exceeds Nyquist index 1 for n=3$"):
        sample_rows(params, sch, cfg, [None, None], sources)


def test_non_finite_state_names_step_and_rows():
    params = _noisy_params(15)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cfg = SamplerConfig(mode="ddim", steps=6, guidance=0.0, lambda_antv=1e308,
                        antv_window=1, seed=3)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as err:
            sample_rows(params, sch, cfg, [None] * 40)
        msg = str(err.value)
        assert len(msg) < 120
        found = re.fullmatch(
            r"sampler state after step t=(\d+) is non-finite in (\d+) of 40 rows, first row (\d+)",
            msg,
        )
        assert found, msg
        t, first = found.group(1), int(found.group(3))
        # the named row, drawn alone on its stream, fails at the same step
        stream = np.random.SeedSequence(3).spawn(40)[first]
        with pytest.raises(NumericError, match=f"t={t} is non-finite in 1 of 1 rows"):
            _one_row(params, sch, cfg, None, stream)
        huge = params.with_values(params.values * 1e200)
        with pytest.raises(NumericError, match="network output at t=12"):
            sample_rows(huge, sch, replace(cfg, lambda_antv=0.0), [None] * 3)
    bad = np.zeros((8, 2))
    bad[3, 1] = np.inf
    bad[5, 0] = np.nan
    with pytest.raises(NumericError, match="in 2 of 8 rows, first row 3"):
        check_finite_rows(bad, "state")
    check_finite_rows(np.zeros((8, 2)), "state")


def test_the_bench_tracer_sees_every_sampling_kernel(monkeypatch):
    # the benchmark's tracer patches these names on their modules; a kernel called
    # past its module attribute, or a patched name removed, shows here and not only
    # in the benchmark's own smoke run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    params = _noisy_params(19)
    sch = make_linear_schedule(12, 1e-3, 0.1)
    cfg = SamplerConfig(mode="ddim", steps=6, eta=0.5, guidance=2.0, lambda_antv=0.05,
                        antv_window=1, lambda_bp=0.01, band_low=0, band_high=1, seed=4)
    sources = np.cumsum(np.random.default_rng(8).standard_normal((3, 3)), axis=1)
    tracer = Tracer()
    with tracer.installed():
        rows = sample_rows(params, sch, cfg, [(0, 1), (1, 2), (2, 0)], sources=sources)
    assert rows.shape == (3, 3)
    for name in ("samplers.guided_eps", "scorenet.predict_eps", "regularizers.antv_step",
                 "regularizers.bp_grad_step"):
        assert tracer.calls[name] == 6, name
