"""Noise schedule construction, derived vectors, and serialization."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriesdiff import (
    NoiseSchedule,
    ParameterError,
    SigmaLadder,
    forward_perturb,
    make_linear_schedule,
    make_sigma_ladder,
    schedule_from_dict,
)


def test_linear_ladder_endpoints_and_shape():
    sch = make_linear_schedule(400, 1e-4, 0.02)
    assert sch.T == 400
    assert sch.beta.shape == (400,)
    assert sch.beta[0] == pytest.approx(1e-4, abs=0)
    assert sch.beta[-1] == pytest.approx(0.02, abs=0)
    assert np.all(np.diff(sch.beta) >= 0)


def test_two_step_worked_example():
    # beta = (0.5, 0.5): abar = (0.5, 0.25), posterior var = (0, 1/3)
    sch = NoiseSchedule(T=2, beta=np.array([0.5, 0.5]))
    assert np.allclose(sch.alpha, [0.5, 0.5], atol=1e-15)
    assert np.allclose(sch.alpha_bar, [0.5, 0.25], atol=1e-15)
    assert sch.posterior_var[0] == 0.0
    assert sch.posterior_var[1] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_derived_vectors_match_naive_loops():
    sch = make_linear_schedule(50, 1e-3, 0.05)
    abar = 1.0
    for t in range(50):
        abar *= 1.0 - sch.beta[t]
        assert abs(sch.alpha_bar[t] - abar) < 1e-14
        prev = sch.alpha_bar[t - 1] if t > 0 else 1.0
        post = (1.0 - prev) * sch.beta[t] / (1.0 - sch.alpha_bar[t])
        assert abs(sch.posterior_var[t] - post) < 1e-14
    assert sch.posterior_var[0] == 0.0  # first reverse step adds no noise


def test_alpha_bar_at_convention():
    sch = make_linear_schedule(10, 1e-3, 0.02)
    assert sch.alpha_bar_at(0) == 1.0
    assert sch.alpha_bar_at(10) == sch.alpha_bar[-1]
    assert sch.alpha_bar_at(3) == sch.alpha_bar[2]
    with pytest.raises(ParameterError):
        sch.alpha_bar_at(11)
    with pytest.raises(ParameterError):
        sch.alpha_bar_at(-1)


@pytest.mark.parametrize(
    "beta",
    [
        np.array([0.0, 0.1]),          # zero
        np.array([0.1, 1.0]),          # one
        np.array([0.2, 0.1]),          # decreasing
        np.array([0.1, np.nan]),       # non-finite
        np.array([], dtype=float),     # empty
    ],
)
def test_bad_beta_rejected(beta):
    with pytest.raises(ParameterError):
        NoiseSchedule(T=len(beta), beta=beta)


def test_make_linear_schedule_validation():
    with pytest.raises(ParameterError):
        make_linear_schedule(0, 1e-4, 0.02)
    with pytest.raises(ParameterError):
        make_linear_schedule(10, 0.02, 1e-4)
    with pytest.raises(ParameterError):
        make_linear_schedule(10, 0.0, 0.02)
    with pytest.raises(ParameterError):
        make_linear_schedule(10, 1e-4, 1.0)


def test_serialization_round_trip():
    sch = make_linear_schedule(25, 1e-4, 0.03)
    again = schedule_from_dict(sch.to_dict())
    assert again.T == sch.T
    assert np.array_equal(again.beta, sch.beta)
    assert np.array_equal(again.alpha_bar, sch.alpha_bar)

    text = sch.to_json()
    third = schedule_from_dict(json.loads(text))
    assert np.array_equal(third.posterior_var, sch.posterior_var)
    # only T and beta are stored; derived vectors are recomputed
    assert set(json.loads(text)) == {"T", "beta"}


def test_from_dict_revalidates():
    with pytest.raises(ParameterError):
        schedule_from_dict({"T": 2, "beta": [0.5, 0.2]})
    with pytest.raises(ParameterError):
        schedule_from_dict({"T": 3, "beta": [0.5, 0.5]})  # length mismatch
    with pytest.raises(ParameterError, match="^malformed schedule object: 'T'$"):
        schedule_from_dict({})


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-5, max_value=0.4), min_size=1, max_size=40)
)
def test_schedule_invariants_hold_for_any_valid_ladder(raw):
    beta = np.sort(np.asarray(raw, dtype=np.float64))
    sch = NoiseSchedule(T=len(beta), beta=beta)
    assert np.all(sch.alpha_bar > 0)
    assert np.all(np.diff(sch.alpha_bar) <= 0)
    assert sch.posterior_var[0] == 0.0
    assert np.all(sch.posterior_var >= 0)
    assert np.all(sch.posterior_var <= sch.beta + 1e-15)


def test_forward_perturb_closed_form():
    sch = make_linear_schedule(30, 1e-3, 0.05)
    x0 = np.array([2.0, -1.0, 0.5])
    eps = np.array([1.0, 0.0, -2.0])
    t = 17
    got = forward_perturb(x0, t, eps, sch)
    ab = sch.alpha_bar[t - 1]
    want = math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps
    assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(ParameterError):
        forward_perturb(x0, 0, eps, sch)  # t must be in 1..T
    with pytest.raises(ParameterError):
        forward_perturb(x0, 31, eps, sch)


def test_sigma_ladder_geometric():
    lad = make_sigma_ladder(0.01, 1.0, 5)
    assert lad.levels == 5
    assert lad.sigma[0] == pytest.approx(0.01, rel=1e-12)
    assert lad.sigma[-1] == pytest.approx(1.0, rel=1e-12)
    ratios = lad.sigma[1:] / lad.sigma[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert np.all(np.diff(lad.sigma) > 0)


def test_sigma_ladder_validation():
    with pytest.raises(ParameterError):
        make_sigma_ladder(1.0, 0.01, 5)  # reversed
    with pytest.raises(ParameterError):
        make_sigma_ladder(0.0, 1.0, 5)
    with pytest.raises(ParameterError):
        SigmaLadder(sigma=np.array([0.2, 0.1]))
    with pytest.raises(ParameterError):
        SigmaLadder(sigma=np.array([0.1, np.inf]))
