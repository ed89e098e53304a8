"""The independent reference implementations used to pin the fast paths."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from seriesdiff import DataError, NumericError, ParameterError
from seriesdiff.oracles import (
    GaussianSpec,
    dft_direct,
    finite_diff_grad,
    gaussian_score,
    kde_score,
    pearson_direct,
    perturbed_gaussian_score,
    reference_topk_backtest,
    score_matching_equivalence_check,
    spearman_direct,
    ve_perturbed_gaussian_score,
)


def test_gaussian_score_is_linear():
    spec = GaussianSpec(mean=1.0, var=4.0)
    x = np.array([-1.0, 1.0, 3.0])
    assert np.allclose(gaussian_score(x, spec), -(x - 1.0) / 4.0, atol=1e-15)


def test_perturbed_score_reduces_to_plain_at_abar_one():
    spec = GaussianSpec(mean=0.5, var=2.0)
    x = np.linspace(-3, 3, 7)
    assert np.allclose(
        perturbed_gaussian_score(x, spec, 1.0), gaussian_score(x, spec), atol=1e-15
    )


def test_perturbed_score_closed_form():
    # x_t ~ N(sqrt(ab)*mu, ab*v + 1 - ab): score = -(x - sqrt(ab) mu)/(ab v + 1 - ab)
    spec = GaussianSpec(mean=2.0, var=3.0)
    ab = 0.4
    x = np.array([0.0, 1.0, -2.5])
    want = -(x - math.sqrt(ab) * 2.0) / (ab * 3.0 + 1.0 - ab)
    assert np.allclose(perturbed_gaussian_score(x, spec, ab), want, atol=1e-15)


def test_ve_perturbed_score():
    spec = GaussianSpec(mean=0.0, var=1.0)
    x = np.array([0.5, -1.5])
    assert np.allclose(
        ve_perturbed_gaussian_score(x, spec, 0.0), gaussian_score(x, spec), atol=1e-15
    )
    # adding sigma^2 in quadrature
    assert np.allclose(
        ve_perturbed_gaussian_score(x, spec, 2.0), -x / 5.0, atol=1e-15
    )


def test_kde_score_tracks_the_true_score():
    rng = np.random.default_rng(3)
    sample = rng.standard_normal(40_000)
    grid = np.linspace(-1.5, 1.5, 13)
    est = kde_score(sample, grid)
    err = np.abs(est - (-grid))
    assert float(np.mean(err)) < 0.1  # tails carry most of the MC noise
    assert float(np.max(err)) < 0.3


def test_finite_diff_grad_on_quadratic():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])

    def f(v: np.ndarray) -> float:
        return 0.5 * float(v @ A @ v)

    x = np.array([0.7, -1.2])
    assert np.allclose(finite_diff_grad(f, x), A @ x, atol=1e-7)


def test_dft_direct_matches_fft():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(16)
    assert np.max(np.abs(dft_direct(x) - np.fft.fft(x))) < 1e-10


def test_pearson_direct_matches_numpy():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(200), rng.standard_normal(200)
    assert pearson_direct(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-13)


def test_spearman_tie_handling():
    # ranks of (10, 20, 20, 40) are (1, 2.5, 2.5, 4)
    a = np.array([10.0, 20.0, 20.0, 40.0])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    # against hand-computed Pearson of the average ranks
    ra = np.array([1.0, 2.5, 2.5, 4.0])
    rb = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman_direct(a, b) == pytest.approx(pearson_direct(ra, rb), abs=1e-15)


def test_reference_backtest_hand_example():
    dates = ["d1", "d2"]
    tickers = ["AAA", "BBB", "CCC"]
    scores = np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 0.0]])
    returns = np.array([[0.10, 0.00, -0.05], [0.02, 0.04, 0.00]])
    holdings, daily, cum = reference_topk_backtest(dates, tickers, scores, returns, k=1)
    assert holdings == [["AAA"], ["AAA"]]  # d2 tie AAA/BBB broken by ticker
    assert daily == [pytest.approx(0.10), pytest.approx(0.02)]
    assert cum == pytest.approx(1.10 * 1.02 - 1.0, abs=1e-15)

    holdings2, daily2, _ = reference_topk_backtest(dates, tickers, scores, returns, k=2)
    assert holdings2[0] == ["AAA", "CCC"]
    assert daily2[0] == pytest.approx((0.10 - 0.05) / 2.0, abs=1e-15)
    with pytest.raises(ParameterError):
        reference_topk_backtest(dates, tickers, scores, returns, k=0)
    with pytest.raises(DataError):
        reference_topk_backtest(dates, [], scores, returns, k=1)


def test_equivalence_check_zero_model_is_exact():
    spec = GaussianSpec(mean=0.0, var=1.0)
    rng = np.random.default_rng(0)
    res = score_matching_equivalence_check(
        lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), spec, 2000, rng
    )
    # both objectives reduce pathwise to E[ s_true^2 / 2 ]; drift collapses to 0
    assert res.drift == 0.0
    assert res.drift_se == 0.0
    assert res.explicit > 0.0


def test_equivalence_check_true_score_model():
    spec = GaussianSpec(mean=0.0, var=1.0)
    rng = np.random.default_rng(1)
    res = score_matching_equivalence_check(
        lambda x: -x, lambda x: -np.ones_like(x), spec, 50_000, rng
    )
    # explicit objective is exactly zero for the true score
    assert res.explicit == 0.0
    assert abs(res.drift) <= 3.0 * res.drift_se


SPEC = GaussianSpec(mean=0.0, var=1.0)
X = np.array([0.5, -1.5])
PAIR = "need two equal-length vectors with at least 2 entries"


# every raise in the oracles: a bad oracle input is an error, never a quiet wrong reference
@pytest.mark.parametrize("call, error, message", [
    (lambda: GaussianSpec(mean=math.nan, var=1.0), ParameterError,
     "Gaussian parameters must be finite"),
    (lambda: GaussianSpec(mean=0.0, var=0.0), ParameterError, "variance must be positive, got 0.0"),
    (lambda: perturbed_gaussian_score(X, SPEC, 0.0), ParameterError,
     "alpha_bar must lie in (0, 1], got 0.0"),
    (lambda: ve_perturbed_gaussian_score(X, SPEC, -1.0), ParameterError,
     "sigma must be >= 0, got -1.0"),
    (lambda: kde_score([1.0], X), DataError, "need at least 2 samples for a KDE score"),
    (lambda: kde_score([2.0, 2.0, 2.0], X), DataError,
     "degenerate sample spread; cannot pick a bandwidth"),
    (lambda: kde_score([0.0, 1.0], X, bandwidth=0.0), ParameterError,
     "bandwidth must be positive, got 0.0"),
    (lambda: kde_score([0.0, 1.0], [1e3], bandwidth=0.01), NumericError,
     "KDE density underflowed to zero at a query point"),
    (lambda: finite_diff_grad(lambda x: 0.0, X, h=0.0), ParameterError,
     "step size must be positive, got 0.0"),
    (lambda: finite_diff_grad(lambda x: math.inf, X), NumericError,
     "function returned non-finite value near coordinate 0"),
    (lambda: score_matching_equivalence_check(lambda x: x, lambda x: x, SPEC, 1,
                                              np.random.default_rng(0)),
     ParameterError, "need at least 2 samples"),
    (lambda: score_matching_equivalence_check(lambda x: x[:1], lambda x: x, SPEC, 4,
                                              np.random.default_rng(0)),
     ParameterError, "model score functions must be elementwise on the sample vector"),
    (lambda: dft_direct([]), ParameterError, "expected a non-empty 1-D array"),
    (lambda: pearson_direct([1.0, 2.0], [1.0]), ParameterError, PAIR),
    (lambda: pearson_direct([1.0, 1.0], [1.0, 2.0]), DataError,
     "correlation undefined for a constant vector"),
    (lambda: spearman_direct([1.0], [1.0]), ParameterError, PAIR),
], ids=["spec-non-finite", "spec-variance", "perturbed-alpha-bar", "ve-sigma", "kde-one-sample",
        "kde-no-spread", "kde-bandwidth", "kde-underflow", "fd-step", "fd-non-finite",
        "equivalence-one-sample", "equivalence-shape", "dft-empty", "pearson-shape",
        "pearson-constant", "spearman-shape"])
def test_each_oracle_guard_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()
