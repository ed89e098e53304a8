"""Release gates for the whole pipeline, one test per criterion.

Each test prints a single verdict line, enforces its numeric tolerances
inline, and asserts the wall-clock budget where one applies.  Everything is
seeded, so a pass here is reproducible bit for bit.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
from numpy.random import default_rng

from seriesdiff import (
    AntvConfig,
    BandSpec,
    PredictionPanel,
    SamplerConfig,
    ScoreNetConfig,
    TrainConfig,
    antv_exact_grad,
    antv_loss,
    antv_step,
    band_pass,
    bp_grad_step,
    bp_loss,
    ddim_mean,
    ddpm_mean,
    dft,
    encode_condition,
    forward_perturb,
    guided_eps,
    idft,
    information_coefficient,
    init_params,
    jump_variance,
    langevin_sample,
    make_linear_schedule,
    make_sigma_ladder,
    predict_eps,
    rank_ic,
    sample,
    topk_dropk_backtest,
    train,
)
from seriesdiff.cli import main as cli_main
from seriesdiff.oracles import (
    GaussianSpec,
    dft_direct,
    finite_diff_grad,
    pearson_direct,
    perturbed_gaussian_score,
    reference_topk_backtest,
    score_matching_equivalence_check,
    spearman_direct,
)
from conftest import trading_days, write_panel_csv, write_prices_csv


@contextmanager
def verdict(number: int, name: str, budget_s: float | None = None):
    """Print one PASS/FAIL line for a criterion, enforcing its time budget."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed > budget_s:
        print(
            f"[criterion {number:2d}] {name}: FAIL "
            f"({elapsed:.1f}s over the {budget_s:.0f}s budget)",
            flush=True,
        )
        raise AssertionError(
            f"criterion {number} took {elapsed:.1f}s, budget {budget_s:.0f}s"
        )
    print(f"[criterion {number:2d}] {name}: PASS ({elapsed:.1f}s)", flush=True)


def test_criterion_1_schedule_closed_forms():
    with verdict(1, "schedule closed forms and forward moments", budget_s=10.0):
        sch = make_linear_schedule(400, 1e-4, 0.02)

        # recompute both stored vectors by naive sequential loops
        ab_naive = np.empty(sch.T)
        running = 1.0
        for i in range(sch.T):
            running *= 1.0 - sch.beta[i]
            ab_naive[i] = running
        assert np.max(np.abs(ab_naive - sch.alpha_bar)) <= 1e-12

        pv_naive = np.empty(sch.T)
        for t in range(1, sch.T + 1):
            ab_prev = 1.0 if t == 1 else ab_naive[t - 2]
            pv_naive[t - 1] = (1.0 - ab_prev) / (1.0 - ab_naive[t - 1]) * sch.beta[t - 1]
        assert np.max(np.abs(pv_naive - sch.posterior_var)) <= 1e-12

        # Monte-Carlo moments of the one-shot corruption at early/mid/final t
        rng = default_rng(2024)
        x0 = np.linspace(-1.5, 1.5, 8)
        n = 200_000
        tiled = np.broadcast_to(x0, (n, x0.size))
        for t in (1, sch.T // 2, sch.T):
            ab = sch.alpha_bar[t - 1]
            draws = forward_perturb(tiled, t, rng.standard_normal((n, x0.size)), sch)
            se = math.sqrt((1.0 - ab) / n)
            assert np.max(np.abs(draws.mean(axis=0) - math.sqrt(ab) * x0)) <= 4.0 * se
            resid = draws - math.sqrt(ab) * x0
            assert abs(resid.var(ddof=1) / (1.0 - ab) - 1.0) <= 0.02


def test_criterion_2_skip_step_equivalence_and_inversion():
    with verdict(2, "skip-step mean equivalence and exact inversion", budget_s=5.0):
        sch = make_linear_schedule(400, 1e-4, 0.02)
        rng = default_rng(7)

        # adjacent skip step with the full posterior noise budget has the
        # same mean as the ancestral step, at every t including the last one
        worst = 0.0
        for _ in range(1000):
            t = int(rng.integers(1, sch.T + 1))
            x_t = rng.standard_normal(60)
            eps_hat = rng.standard_normal(60)
            sigma = math.sqrt(jump_variance(sch, t, t - 1))
            gap = ddim_mean(x_t, t, t - 1, eps_hat, sch, sigma) - ddpm_mean(
                x_t, t, eps_hat, sch
            )
            worst = max(worst, float(np.max(np.abs(gap))))
        assert worst <= 1e-10

        # deterministic jump straight to 0 with the true noise is an inverse
        # of the corruption from every level
        x0 = rng.standard_normal(60)
        eps = rng.standard_normal(60)
        for t in range(1, sch.T + 1):
            x_t = forward_perturb(x0, t, eps, sch)
            rec = ddim_mean(x_t, t, 0, eps, sch, 0.0)
            assert np.max(np.abs(rec - x0)) <= 1e-10


def test_criterion_3_guidance_endpoints():
    with verdict(3, "guidance endpoints and linear blend"):
        cfg = ScoreNetConfig(
            input_len=12, width=16, blocks=2, time_dim=8, embed_dim=4,
            cond_hidden=8, n_industries=5,
        )
        rng = default_rng(3)
        params = init_params(cfg, rng)
        # nudge every weight off its init so both branches produce nonzero output
        params = params.with_values(
            params.values + 0.1 * rng.standard_normal(params.values.size)
        )
        cond = encode_condition(2, 1, params)
        for _ in range(20):
            x = rng.standard_normal(cfg.input_len)
            t = int(rng.integers(1, 50))
            uncond = predict_eps(params, x, t, None)
            condit = predict_eps(params, x, t, cond)
            assert guided_eps(params, x, t, cond, 0.0).tobytes() == uncond.tobytes()
            assert guided_eps(params, x, t, cond, 1.0).tobytes() == condit.tobytes()
            blend = 7.5 * condit + (1.0 - 7.5) * uncond
            assert np.max(np.abs(guided_eps(params, x, t, cond, 7.5) - blend)) <= 1e-12


def test_criterion_4_langevin_known_score():
    with verdict(4, "annealed Langevin on a known score", budget_s=30.0):
        ladder = make_sigma_ladder(0.01, 1.0, 10)

        def score(x, sigma):
            # standard normal data corrupted at level sigma: N(0, 1 + sigma^2)
            return -x / (1.0 + sigma * sigma)

        out = langevin_sample(
            score,
            ladder,
            0.02 * (1.0 + ladder.sigma**2),
            n_steps=100,
            shape=(10_000,),
            rng=default_rng(2024),
        )
        assert abs(float(out.mean())) <= 0.05
        assert abs(float(out.var(ddof=1)) - 1.0) <= 0.05


def test_criterion_5_smoothing_trace_gradient_descent():
    with verdict(5, "smoothing trace, gradient, and descent"):
        # worked two-point example, traced by hand through both updates
        traced = antv_step(
            np.array([0.0, 1.0]),
            AntvConfig(window=1, sigma=1.0, rate=0.1),
        )
        assert np.max(np.abs(traced - np.array([0.06065307, 0.9356727166416]))) <= 1e-6

        # exact-mode gradient against central differences on short series
        grad_cfg = AntvConfig(window=2, sigma=1.0, rate=1e-3)
        rng = default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(8)
            g = antv_exact_grad(x, grad_cfg)
            fd = finite_diff_grad(lambda v: antv_loss(v, grad_cfg), x)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

        # the sweep is not exact gradient descent, but at a small rate it
        # still lowers the loss on almost every random series
        step_cfg = AntvConfig(window=1, sigma=1.0, rate=1e-3)
        rng = default_rng(2024)
        wins = sum(
            antv_loss(antv_step(x, step_cfg), step_cfg) < antv_loss(x, step_cfg)
            for x in (rng.standard_normal(16) for _ in range(1000))
        )
        assert wins >= 950


def test_criterion_6_spectral_anchor():
    with verdict(6, "spectral transform and band anchor step"):
        rng = default_rng(6)
        n = 60
        x = rng.standard_normal(n)
        spectrum = dft(x)
        assert np.max(np.abs(spectrum - dft_direct(x))) <= 1e-9
        # Parseval: time-domain energy equals spectral energy / n
        assert abs(np.sum(x * x) - np.sum(np.abs(spectrum) ** 2) / n) <= 1e-9

        band = BandSpec(3, 9)
        once = band_pass(spectrum, band)
        assert np.array_equal(band_pass(once, band), once)  # idempotent

        ref = rng.standard_normal(n)
        rate = 1e-4
        for _ in range(10):
            y = rng.standard_normal(n)
            g = (y - bp_grad_step(y, ref, band, rate)) / rate
            # the loss is exactly quadratic, so central differences carry no
            # truncation error at any step; a wider step cuts the roundoff
            fd = finite_diff_grad(lambda v: bp_loss(v, ref, band), y, h=1e-3)
            assert np.max(np.abs(g - fd)) <= 1e-6

        # a single step at 1/(2n) lands exactly on the band-limited reference
        target = idft(band_pass(dft(ref), band)).real
        stepped = bp_grad_step(x, ref, band, 1.0 / (2.0 * n))
        assert np.max(np.abs(stepped - target)) <= 1e-12


def test_criterion_7_metrics_against_references():
    with verdict(7, "ranking metrics and top-k backtest cross-check"):
        rng = default_rng(77)
        for i in range(1000):
            n = int(rng.integers(5, 40))
            p = rng.standard_normal(n)
            r = rng.standard_normal(n)
            if i % 3 == 0:
                # coarse rounding forces rank ties
                p = np.round(p, 1)
                r = np.round(r, 1)
            assert abs(information_coefficient(p, r) - pearson_direct(p, r)) <= 1e-12
            assert abs(rank_ic(p, r) - spearman_direct(p, r)) <= 1e-12

        # invariances: positive affine maps leave the linear metric alone,
        # strictly monotone maps leave the rank metric alone
        p = rng.standard_normal(25)
        r = rng.standard_normal(25)
        assert abs(
            information_coefficient(2.5 * p + 1.0, r) - information_coefficient(p, r)
        ) <= 1e-12
        assert abs(rank_ic(np.exp(p), r) - rank_ic(p, r)) <= 1e-12

        dates = trading_days("2023-05-01", 10)
        tickers = [f"60{j:04d}" for j in range(30)]
        for i in range(100):
            scores = rng.standard_normal((10, 30))
            if i % 4 == 0:
                scores = np.round(scores, 1)  # score ties exercise the tiebreak
            returns = 0.02 * rng.standard_normal((10, 30))
            k = int(rng.integers(1, 36))  # occasionally exceeds the universe
            res = topk_dropk_backtest(
                PredictionPanel(dates, tickers, scores, returns), k
            )
            hold_ref, daily_ref, cum_ref = reference_topk_backtest(
                dates, tickers, scores, returns, k
            )
            assert res.holdings == hold_ref
            assert np.max(np.abs(res.daily_returns - np.asarray(daily_ref))) <= 1e-12
            assert abs(res.cumulative_return - cum_ref) <= 1e-12


def test_criterion_8_trained_score_and_conditional_generation():
    with verdict(
        8, "trained score accuracy and conditional generation", budget_s=600.0
    ):
        # part one: scalar standard-normal data, where the corrupted-marginal
        # score is known in closed form at every level
        sch = make_linear_schedule(50, 0.002, 0.02)
        data = default_rng(42).standard_normal((8192, 1))
        net = ScoreNetConfig(
            input_len=1, width=48, blocks=2, time_dim=16, embed_dim=4,
            cond_hidden=8, n_industries=2,
        )
        t0 = time.perf_counter()
        fit = train(
            data,
            [None] * len(data),
            sch,
            TrainConfig(
                epochs=150, batch_size=512, learning_rate=7e-4,
                p_uncond=0.0, weighting="unit", seed=7,
            ),
            net,
        )
        assert time.perf_counter() - t0 <= 120.0
        t_mid = sch.T // 2
        ab = sch.alpha_bar[t_mid - 1]
        grid = np.linspace(-2.0, 2.0, 81)
        learned = np.array(
            [
                -predict_eps(fit.params, np.array([g]), t_mid, None)[0]
                / math.sqrt(1.0 - ab)
                for g in grid
            ]
        )
        target = perturbed_gaussian_score(grid, GaussianSpec(0.0, 1.0), ab)
        assert float(np.mean(np.abs(learned - target))) <= 0.1

        # part two: two sinusoid families as conditions; guided draws must
        # land on the requested family, unguided draws must not
        L = 24
        rng = default_rng(5)

        def make_class(freq, count):
            i = np.arange(L)
            phase = 0.2 * rng.standard_normal((count, 1))
            amp = 1.0 + 0.1 * rng.standard_normal((count, 1))
            base = np.sin(2.0 * np.pi * freq * i[None, :] / L + phase)
            return amp * base + 0.1 * rng.standard_normal((count, L))

        xa = make_class(1, 2000)
        xb = make_class(3, 2000)
        windows = np.vstack([xa, xb])
        conds = [(0, 0)] * 2000 + [(1, 0)] * 2000
        perm = rng.permutation(len(windows))
        windows = windows[perm]
        conds = [conds[p] for p in perm]
        centroid_a = xa.mean(axis=0)
        centroid_b = xb.mean(axis=0)

        sch2 = make_linear_schedule(100, 0.001, 0.05)
        fit2 = train(
            windows,
            conds,
            sch2,
            TrainConfig(
                epochs=100, batch_size=128, learning_rate=1e-3,
                p_uncond=0.3, weighting="unit", seed=11,
            ),
            ScoreNetConfig(
                input_len=L, width=64, blocks=2, time_dim=16, embed_dim=8,
                cond_hidden=32, n_industries=2,
            ),
        )

        def accuracy(omega):
            hits = 0
            jobs = (
                (centroid_a, encode_condition(0, 0, fit2.params), 21),
                (centroid_b, encode_condition(1, 0, fit2.params), 22),
            )
            for own_centroid, cond, seed in jobs:
                drawn = sample(
                    fit2.params,
                    sch2,
                    SamplerConfig(
                        mode="ddpm", guidance=omega, num_samples=100, seed=seed
                    ),
                    cond,
                )
                for w in drawn.samples:
                    da = np.sum((w - centroid_a) ** 2)
                    db = np.sum((w - centroid_b) ** 2)
                    nearest = centroid_a if da < db else centroid_b
                    hits += nearest is own_centroid
            return hits / 200.0

        assert accuracy(1.0) >= 0.80
        assert accuracy(0.0) <= 0.60


def test_criterion_9_objective_agreement():
    with verdict(9, "implicit and explicit objective agreement", budget_s=30.0):
        # smooth non-Gaussian model score with a hand-written derivative
        res = score_matching_equivalence_check(
            lambda x: -np.tanh(x),
            lambda x: -(1.0 - np.tanh(x) ** 2),
            GaussianSpec(0.0, 1.0),
            100_000,
            default_rng(9),
        )
        assert abs(res.drift) <= 3.0 * res.drift_se


PIPELINE_CONFIG = {
    "schedule.steps": 60,
    "schedule.beta_start": 1e-3,
    "schedule.beta_end": 0.04,
    "data.window": 30,
    "data.step": 15,
    "net.width": 16,
    "net.blocks": 1,
    "net.time_dim": 8,
    "net.embed_dim": 4,
    "net.cond_hidden": 8,
    "train.epochs": 3,
    "train.batch_size": 32,
    "sampler.steps": 12,
    "sampler.num_samples": 4,
    "eval.top_k": 5,
}


def test_criterion_10_pipeline_reruns_are_byte_identical(tmp_path):
    with verdict(10, "byte-identical pipeline reruns", budget_s=900.0):
        prices = tmp_path / "prices.csv"
        panel = tmp_path / "panel.csv"
        config = tmp_path / "config.json"
        write_prices_csv(prices)
        write_panel_csv(panel)
        config.write_text(json.dumps(PIPELINE_CONFIG))

        def run(out_dir):
            calls = (
                ["ingest", str(prices), "--out", str(out_dir)],
                [
                    "train", str(out_dir / "windows.jsonl"),
                    "--seed", "5", "--out", str(out_dir),
                ],
                [
                    "sample", str(out_dir / "checkpoint.json"),
                    "--seed", "9", "--industry", "7", "--board", "CHINEXT",
                    "--out", str(out_dir),
                ],
                ["backtest", str(panel), "--out", str(out_dir)],
            )
            for argv in calls:
                assert cli_main(argv + ["--config", str(config)]) == 0

        first = tmp_path / "first"
        second = tmp_path / "second"
        run(first)
        run(second)

        produced = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert produced, "pipeline produced no artifacts"
        assert produced == sorted(
            p.relative_to(second) for p in second.rglob("*") if p.is_file()
        )
        for rel in produced:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), (
                f"{rel} differs between identically seeded runs"
            )
