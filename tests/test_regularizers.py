"""Smoothing sweep, its exact gradient, and the spectral anchor."""
from __future__ import annotations

import math

import numpy as np
import pytest

from seriesdiff import (
    AntvConfig,
    BandSpec,
    ParameterError,
    antv_exact_grad,
    antv_loss,
    antv_step,
    antv_weight,
    band_pass,
    bp_grad_step,
    bp_loss,
    dft,
    idft,
)
from seriesdiff.oracles import finite_diff_grad
from seriesdiff.regularizers import band_mask


CFG = AntvConfig(window=1, sigma=1.0, rate=0.1)


def test_weight_is_a_gaussian_kernel():
    assert antv_weight(0.0, 0.0, 1.0) == 1.0
    assert antv_weight(0.0, 1.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert antv_weight(1.0, 0.0, 1.0) == antv_weight(0.0, 1.0, 1.0)  # symmetric
    assert antv_weight(0.0, 2.0, 2.0) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_loss_two_point_hand_value():
    # both ordered pairs contribute |1-0| * exp(-1/2)
    x = np.array([0.0, 1.0])
    assert antv_loss(x, CFG) == pytest.approx(2.0 * math.exp(-0.5), abs=1e-14)


def test_step_two_point_hand_trace():
    # x1 sees d=+1: moves up by 0.1*exp(-0.5); x2 then sees the moved x1
    x = antv_step(np.array([0.0, 1.0]), CFG)
    assert x[0] == pytest.approx(0.1 * math.exp(-0.5), abs=1e-12)
    d = x[0] - 1.0
    assert x[1] == pytest.approx(1.0 - 0.1 * math.exp(-(d * d) / 2.0), abs=1e-12)
    # the published endpoint of the same trace
    assert np.allclose(x, [0.06065307, 0.9356727166416], atol=1e-10)


def test_step_is_sequential_not_parallel():
    x0 = np.array([0.0, 1.0])
    seq = antv_step(x0, CFG)
    # a parallel sweep would move x2 by the same magnitude as x1
    parallel_x2 = 1.0 - 0.1 * math.exp(-0.5)
    assert seq[1] != pytest.approx(parallel_x2, abs=1e-6)


def test_step_fixed_point_on_constant_series():
    x = np.full(7, 3.25)
    assert np.array_equal(antv_step(x, CFG), x)  # sign(0) = 0 keeps it still


def test_step_preserves_input():
    x = np.array([0.0, 1.0, -2.0])
    _ = antv_step(x, CFG)
    assert np.array_equal(x, [0.0, 1.0, -2.0])


def test_exact_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    cfg = AntvConfig(window=2, sigma=0.8, rate=0.05)
    for _ in range(20):
        x = rng.standard_normal(8)
        got = antv_exact_grad(x, cfg)
        want = finite_diff_grad(lambda v: antv_loss(v, cfg), x)
        denom = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) / denom < 1e-6


def test_sweep_descends_on_rough_series():
    rng = np.random.default_rng(7)
    cfg = AntvConfig(window=3, sigma=1.0, rate=1e-3)
    wins = 0
    for _ in range(200):
        x = rng.standard_normal(24)
        if antv_loss(antv_step(x, cfg), cfg) < antv_loss(x, cfg):
            wins += 1
    assert wins >= 190


def test_antv_config_validation():
    with pytest.raises(ParameterError):
        AntvConfig(window=0, sigma=1.0, rate=0.1)
    with pytest.raises(ParameterError):
        AntvConfig(window=1, sigma=0.0, rate=0.1)
    with pytest.raises(ParameterError):
        AntvConfig(window=1, sigma=1.0, rate=-0.1)


def test_band_mask_is_symmetric_in_frequency():
    mask = band_mask(8, BandSpec(1, 2))
    # bins 1, 2 and their mirrors 6, 7 pass; 0 (DC), 3, 4, 5 are cut
    assert mask.tolist() == [False, True, True, False, False, False, True, True]


def test_band_pass_idempotent_and_zero_outside():
    rng = np.random.default_rng(0)
    spec = dft(rng.standard_normal(16))
    band = BandSpec(2, 5)
    once = band_pass(spec, band)
    assert np.array_equal(band_pass(once, band), once)
    assert np.all(once[~band_mask(16, band)] == 0.0)
    # a (rows, n) batch is transformed and masked row by row along its last axis
    xs = rng.standard_normal((3, 16))
    batch = idft(band_pass(dft(xs), band))
    for row, got in zip(xs, batch):
        assert np.array_equal(got, idft(band_pass(dft(row), band)))
    with pytest.raises(ParameterError):
        dft(np.float64(1.0))


def test_dft_round_trip_and_parseval():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(30)
    spec = dft(x)
    assert np.max(np.abs(idft(spec).real - x)) < 1e-12
    # sum |x|^2 == sum |X|^2 / n
    assert float(np.sum(x * x)) == pytest.approx(
        float(np.sum(np.abs(spec) ** 2)) / 30.0, rel=1e-12
    )


def test_bp_loss_zero_on_band_limited_match():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(20)
    band = BandSpec(1, 4)
    x = idft(band_pass(dft(ref), band)).real
    assert bp_loss(x, ref, band) == pytest.approx(0.0, abs=1e-20)
    assert bp_loss(ref, ref, band) > 0.0  # ref keeps its out-of-band energy


def test_bp_grad_step_matches_finite_differences():
    rng = np.random.default_rng(3)
    n = 12
    band = BandSpec(1, 3)
    ref = rng.standard_normal(n)
    x = rng.standard_normal(n)
    rate = 1e-3
    stepped = bp_grad_step(x, ref, band, rate)
    grad = (x - stepped) / rate
    want = finite_diff_grad(lambda v: bp_loss(v, ref, band), x)
    assert np.max(np.abs(grad - want)) < 1e-6


def test_bp_one_step_exact_minimizer():
    # at rate 1/(2n) a single step lands on the band-limited reference
    rng = np.random.default_rng(4)
    n = 24
    band = BandSpec(2, 6)
    ref = rng.standard_normal(n)
    x = rng.standard_normal(n)
    target = idft(band_pass(dft(ref), band)).real
    stepped = bp_grad_step(x, ref, band, 1.0 / (2.0 * n))
    assert np.max(np.abs(stepped - target)) < 1e-12


def test_band_spec_validation():
    with pytest.raises(ParameterError):
        BandSpec(-1, 3)
    with pytest.raises(ParameterError):
        BandSpec(3, 3)
    with pytest.raises(ParameterError):
        BandSpec(5, 2)


def test_batched_corrections_match_rows():
    rng = np.random.default_rng(5)
    x = 0.7 * rng.standard_normal((87, 60))
    ref = rng.standard_normal((87, 60))
    cfg = AntvConfig(window=3, sigma=1.0, rate=0.03)
    band = BandSpec(1, 10)
    smoothed = antv_step(x, cfg)
    anchored = bp_grad_step(x, ref, band, 0.005)
    for i in range(87):
        assert np.array_equal(smoothed[i], antv_step(x[i], cfg))
        assert np.array_equal(anchored[i], bp_grad_step(x[i], ref[i], band, 0.005))
    with pytest.raises(ParameterError):
        bp_grad_step(x, ref[:3], band, 0.005)
    with pytest.raises(ParameterError):
        antv_step(x[None], cfg)
