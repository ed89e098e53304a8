"""The integer, real-number and array rules: an integer argument is a Python or numpy integer, and
a real argument a Python or numpy int or float, never a bool, finite and within its bounds; an array
argument is what numpy makes an integer or floating array, of the rank and shape its site needs;
anything else is a ParameterError that names the argument.  The number fields of the data records
follow the real and array rules, with a DataError that names the field."""
from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from seriesdiff import (AntvConfig, BandSpec, Board, DataError, NoiseSchedule, ParameterError,
                        PredictionPanel, SamplerConfig, ScoreNetConfig, ScoreNetworkParams,
                        SeriesWindow, SigmaLadder, StockRecord, TrainConfig, antv_exact_grad,
                        antv_loss, antv_step, band_mask, band_pass, bp_grad_step, bp_loss,
                        ddim_mean, ddpm_mean, ddpm_step, denormalize_window,
                        dft, drop_ipo_head, dsm_loss, forward_perturb,
                        guided_eps, idft, information_coefficient, init_params, jump_variance,
                        langevin_sample, make_linear_schedule, make_sigma_ladder,
                        make_subsequence, make_windows, normalize_window, predict_eps,
                        predict_eps_vjp, rank_ic, repair_suspensions, sample_rows,
                        schedule_from_dict, split_train_test, time_embedding,
                        topk_dropk_backtest, train)
from seriesdiff.errors import check_array, check_int, check_real
from conftest import trading_days

NET = ScoreNetConfig(input_len=4, width=4, blocks=1, time_dim=4, embed_dim=2, cond_hidden=3,
                     n_industries=4)
PARAMS = init_params(NET, np.random.default_rng(0))
DAYS = trading_days("2021-01-04", 12)


def _record(industry_id: int = 3, board: Board = Board.MAIN, **fields) -> StockRecord:
    return StockRecord("600000", DAYS, 10.0 + 0.01 * np.arange(12.0), industry_id, board, **fields)


def _window(**fields) -> SeriesWindow:
    return SeriesWindow(**{"ticker": "600000", "start_date": DAYS[0], "values": np.zeros(4),
                           "mean": 0.0, "scale": 1.0, "industry_id": 3, "board": Board.MAIN,
                           **fields})


PANEL = PredictionPanel(DAYS[:2], ["A", "B"], np.eye(2), np.eye(2))
LADDER = make_sigma_ladder(0.1, 1.0, 2)
SCH = make_linear_schedule(6)  # steps run 1..6; t = 0 is the clean level
X = np.zeros(4)

# name: (call with the value, integers just outside the bounds, an integer inside them)
CASES = {
    **{f"ScoreNetConfig.{f}": ((lambda v, f=f: ScoreNetConfig(**{"input_len": 4, f: v})), (0,), 4)
       for f in ("input_len", "width", "blocks", "time_dim", "embed_dim", "cond_hidden",
                 "n_industries", "n_boards")},
    "time_embedding.dim": (lambda v: time_embedding(1, v), (1,), 4),
    "predict_eps.industry_id": (lambda v: predict_eps(PARAMS, X, 1, (v, 0)), (-1, 4), 3),
    "predict_eps.board_id": (lambda v: predict_eps(PARAMS, X, 1, (0, v)), (-1, 5), 4),
    "TrainConfig.epochs": (lambda v: TrainConfig(epochs=v), (-1,), 0),
    "TrainConfig.batch_size": (lambda v: TrainConfig(epochs=1, batch_size=v), (0,), 1),
    "TrainConfig.seed": (lambda v: TrainConfig(epochs=1, seed=v), (-1,), 0),
    "make_subsequence.T": (lambda v: make_subsequence(v, 1), (0,), 10),
    "make_subsequence.n_steps": (lambda v: make_subsequence(10, v), (0, 11), 10),
    "langevin_sample.n_steps": (lambda v: langevin_sample(
        lambda x, s: -x, LADDER, 0.01, v, (2,), np.random.default_rng(0)), (0,), 1),
    "SamplerConfig.steps": (lambda v: SamplerConfig(steps=v), (0,), 1),
    "SamplerConfig.num_samples": (lambda v: SamplerConfig(num_samples=v), (0,), 1),
    "SamplerConfig.seed": (lambda v: SamplerConfig(seed=v), (-1,), 0),
    "SamplerConfig.antv_window": (lambda v: SamplerConfig(antv_window=v), (0,), 1),
    "SamplerConfig.band_low": (lambda v: SamplerConfig(band_low=v), (-1,), 0),
    "SamplerConfig.band_high": (lambda v: SamplerConfig(band_high=v), (1,), 2),
    "AntvConfig.window": (lambda v: AntvConfig(window=v, sigma=1.0, rate=0.1), (0,), 1),
    "BandSpec.low": (lambda v: BandSpec(v, 3), (-1,), 2),
    "BandSpec.high": (lambda v: BandSpec(1, v), (1,), 2),
    "band_mask.n": (lambda v: band_mask(v, BandSpec(0, 1)), (0,), 2),
    "NoiseSchedule.T": (lambda v: NoiseSchedule(T=v, beta=np.full(3, 0.1)), (0,), 3),
    "schedule_from_dict.T": (lambda v: schedule_from_dict({"T": v, "beta": [0.1] * 3}), (0,), 3),
    "make_linear_schedule.steps": (lambda v: make_linear_schedule(v), (0,), 1),
    "make_sigma_ladder.N": (lambda v: make_sigma_ladder(0.1, 1.0, v), (1,), 2),
    **{f"repair_suspensions.{f}": ((lambda v, f=f: repair_suspensions(_record(), **{f: v})),
                                   (low - 1,), low)
       for f, low in (("max_interp_gap", 1), ("max_long_gaps", 0), ("max_gap_days", 1))},
    "StockRecord.industry_id": (lambda v: _record(industry_id=v), (-1,), 0),
    "StockRecord.board": (lambda v: _record(board=v), (-1, len(Board)), 4),
    **{f"StockRecord.{f}": ((lambda v, f=f: _record(**{f: v})), (-1,), 0)
       for f in ("n_interpolated_gaps", "n_forward_filled_gaps")},
    "drop_ipo_head.n_days": (lambda v: drop_ipo_head(_record(), v), (-1,), 0),
    "make_windows.length": (lambda v: make_windows(_record(), length=v), (1,), 2),
    "make_windows.step": (lambda v: make_windows(_record(), length=4, step=v), (0,), 1),
    "SeriesWindow.industry_id": (lambda v: _window(industry_id=v), (-1,), 0),
    "SeriesWindow.board": (lambda v: _window(board=v), (-1, len(Board)), 4),
    "topk_dropk_backtest.top_k": (lambda v: topk_dropk_backtest(PANEL, v), (0,), 1),
    # the step index: its bounds come from the schedule's T, or t >= 1 for the network
    "alpha_bar_at.t": (lambda v: SCH.alpha_bar_at(v), (-1, 7), 6),
    "forward_perturb.t": (lambda v: forward_perturb(X, v, X, SCH), (0, 7), 6),
    "ddpm_mean.t": (lambda v: ddpm_mean(X, v, X, SCH), (0, 7), 6),
    "ddpm_step.t": (lambda v: ddpm_step(X, v, X, SCH, np.random.default_rng(0)), (0, 7), 6),
    "ddim_mean.t_cur": (lambda v: ddim_mean(X, v, 0, X, SCH), (0, 7), 6),
    "ddim_mean.t_prev": (lambda v: ddim_mean(X, 4, v, X, SCH), (-1, 4), 3),
    "jump_variance.t_cur": (lambda v: jump_variance(SCH, v, 0), (0, 7), 6),
    "jump_variance.t_prev": (lambda v: jump_variance(SCH, 4, v), (-1, 4), 3),
    "predict_eps.t": (lambda v: predict_eps(PARAMS, X, v), (0,), 6),
    "guided_eps.t": (lambda v: guided_eps(PARAMS, X, v, (3, 0), 0.5),
                     (0,), 6),
    "predict_eps_vjp.t": (lambda v: predict_eps_vjp(PARAMS, X, v, None, X), (0,), 6),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_integer_arguments_take_integers_in_their_bounds_and_nothing_else(case):
    call, outside, inside = CASES[case]
    name = case.split(".")[1]
    for bad in (2.5, True, np.True_, "3", *outside):
        with pytest.raises(ParameterError, match="^" + re.escape(f"{name} {bad!r} ")):
            call(bad)
    call(np.int64(inside))  # numpy integers are integers too
    call(inside)


BELOW_0 = math.nextafter(0.0, -1.0)  # the largest float below a closed bound at 0

# name: (call with the value, values just outside the bounds, a value inside them: an int
# wherever the bounds hold one)
REAL_CASES = {
    "guided_eps.omega": (lambda v: guided_eps(PARAMS, X, 6, (3, 0), v),
                         (), 2),
    "ddim_mean.sigma": (lambda v: ddim_mean(X, 4, 3, X, SCH, v), (BELOW_0,), 0),
    "SamplerConfig.eta": (lambda v: SamplerConfig(eta=v), (BELOW_0,), 1),
    "SamplerConfig.guidance": (lambda v: SamplerConfig(guidance=v), (), 7),
    "SamplerConfig.antv_sigma": (lambda v: SamplerConfig(antv_sigma=v), (0, 0.0), 1),
    "SamplerConfig.lambda_antv": (lambda v: SamplerConfig(lambda_antv=v), (BELOW_0,), 0),
    "SamplerConfig.lambda_bp": (lambda v: SamplerConfig(lambda_bp=v), (BELOW_0,), 0),
    "AntvConfig.sigma": (lambda v: AntvConfig(window=1, sigma=v, rate=0.1), (0.0,), 1),
    "AntvConfig.rate": (lambda v: AntvConfig(window=1, sigma=1.0, rate=v), (0.0,), 1),
    "bp_grad_step.rate": (lambda v: bp_grad_step(X, X, BandSpec(0, 1), v), (0.0,), 1),
    "dsm_loss.p_uncond": (lambda v: dsm_loss(
        PARAMS, [X, X], [None, (1, 2)], SCH, np.random.default_rng(0), p_uncond=v),
        (BELOW_0, 1.0), 0),
    "TrainConfig.learning_rate": (lambda v: TrainConfig(epochs=1, learning_rate=v), (0.0,), 1),
    "TrainConfig.p_uncond": (lambda v: TrainConfig(epochs=1, p_uncond=v), (BELOW_0, 1), 0),
    "make_linear_schedule.beta_start": (lambda v: make_linear_schedule(5, v, 0.5),
                                        (0.0, 1.0), 0.1),
    "make_linear_schedule.beta_end": (lambda v: make_linear_schedule(5, 0.1, v),
                                      (math.nextafter(0.1, 0.0), 1.0), 0.5),
    "make_sigma_ladder.sigma_min": (lambda v: make_sigma_ladder(v, 10.0, 2), (0.0,), 1),
    "make_sigma_ladder.sigma_max": (lambda v: make_sigma_ladder(1.0, v, 2), (1.0,), 2),
    "split_train_test.train_fraction": (lambda v: split_train_test([], v), (0.0, 1.0), 0.5),
    "langevin_sample.step_sizes": (lambda v: langevin_sample(
        lambda x, s: -x, LADDER, v, 1, (2,), np.random.default_rng(0)), (0.0,), 1),
}


@pytest.mark.parametrize("case", sorted(REAL_CASES))
def test_real_arguments_take_finite_numbers_in_their_bounds_and_nothing_else(case):
    call, outside, inside = REAL_CASES[case]
    name = case.split(".")[1]
    for bad in ("x", True, np.True_, math.nan, math.inf, -math.inf, 10**400, *outside):
        with pytest.raises(ParameterError, match="^" + re.escape(f"{name} {bad!r} ")):
            call(bad)
    call(np.float64(inside))
    call(inside)


def test_check_real_returns_a_python_float_and_names_the_bound():
    for value in (3, np.int64(3), np.float32(0.5), np.float64(0.5), 0.5):
        assert type(check_real(value, "x", 0, 4)) is float
    assert check_real(2**1023, "x") == 2.0**1023
    with pytest.raises(ParameterError, match=r"^x -1 outside \[0, inf\)$"):
        check_real(-1, "x", 0)
    with pytest.raises(ParameterError, match=r"^x 0.0 outside \(0, 1\)$"):
        check_real(0.0, "x", 0, 1, open_low=True)
    with pytest.raises(ParameterError, match=r"^x nan outside \(-inf, inf\)$"):
        check_real(math.nan, "x")
    with pytest.raises(ParameterError, match=r"^x '1' is not a real number$"):
        check_real("1", "x")


def test_check_int_returns_a_python_int_and_names_the_bound():
    for value in (3, np.int64(3), np.uint8(3), np.int32(3)):
        assert type(check_int(value, "x", 0, 4)) is int
    assert check_int(10**30, "x", 0) == 10**30
    with pytest.raises(ParameterError, match=r"^x -1 outside \[0, inf\) at row 2$"):
        check_int(-1, "x", 0, where=" at row 2")
    with pytest.raises(ParameterError, match=r"^x 4 outside \[0, 4\)$"):
        check_int(np.int64(4), "x", 0, 4)
    with pytest.raises(ParameterError, match=r"^x 3.0 is not an integer$"):
        check_int(3.0, "x", 0)


def test_integers_written_to_artifacts_are_python_ints():
    cfg = ScoreNetConfig(**{k: np.int64(v) for k, v in asdict(NET).items() if k != "activation"})
    assert cfg == NET and json.loads(json.dumps(asdict(cfg))) == asdict(NET)
    schedule = NoiseSchedule(T=np.int64(3), beta=np.full(3, 0.1))
    assert json.loads(schedule.to_json())["T"] == 3 and type(schedule.T) is int
    assert _window(board=np.int64(2), industry_id=np.int32(5)).condition == (5, 2)
    assert type(_window(board=2).board) is Board
    record = _record(industry_id=np.int32(5), board=np.int64(2))
    assert type(record.industry_id) is int and record.board is Board.STAR


def test_a_record_names_its_ticker_when_it_is_built():
    with pytest.raises(ParameterError, match=r"^industry_id 3\.9 is not an integer in record 600000$"):
        _record(industry_id=3.9)
    with pytest.raises(ParameterError, match=r"^board 5 outside \[0, 5\) in record 600000$"):
        _record(board=5)


def test_huge_integers_give_bounded_messages():
    # past 4,300 digits str() of an int raises a bare ValueError; below, it prints every digit
    for call in (lambda v: check_int(v, "x", 0, 4), lambda v: check_real(v, "x")):
        for value in (10**5000, -(10**5000), 10**4000):
            with pytest.raises(ParameterError, match="^x ") as err:
                call(value)
            assert len(str(err.value)) <= 70, str(err.value)
    with pytest.raises(ParameterError, match=r"^x <int of 16610 bits> outside \[0, 4\)$"):
        check_int(10**5000, "x", 0, 4)
    cut = re.escape("x 1" + "0" * 19 + "...<4001 characters> outside [0, 4)")
    with pytest.raises(ParameterError, match=f"^{cut}$"):
        check_int(10**4000, "x", 0, 4)
    with pytest.raises(ParameterError, match=r"^band_high 1 outside \[<int of 16610 bits>, inf\)"):
        SamplerConfig(band_low=10**5000, band_high=1)
    cut = re.escape("x '" + "x" * 19 + "...<5002 characters> is not an integer")
    with pytest.raises(ParameterError, match=f"^{cut}$"):
        check_int("x" * 5000, "x", 0)


L = NET.input_len
ROW = [1.0, 3.0, 2.0, 5.0]
PAIR = [[1.0, 3.0, 2.0, 5.0], [2.0, 1.0, 0.0, 4.0]]
ANTV = AntvConfig(window=1, sigma=1.0, rate=0.1)
BAND = BandSpec(0, 1)
NULL_DRAW = SamplerConfig(guidance=0.0, seed=3)
EMPTY = np.zeros(0)


def _langevin(step_sizes=0.01, score=lambda v: -v):
    return langevin_sample(lambda x, s: score(x), LADDER, step_sizes, 1, (2,),
                           np.random.default_rng(0))


# name: (call with the value, a valid value, values of a shape the site rejects: the wrong rank,
# empty where the site needs entries, the wrong last axis or a partner's other shape, and
# non-finite where the site checks finiteness); the part after the dot starts the message
ARRAY_CASES = {
    "antv_loss.x": (lambda v: antv_loss(v, ANTV), ROW, (PAIR, EMPTY)),
    "antv_step.x": (lambda v: antv_step(v, ANTV), PAIR, ([PAIR], EMPTY, np.zeros((2, 0)))),
    "antv_exact_grad.x": (lambda v: antv_exact_grad(v, ANTV), ROW, (PAIR, EMPTY)),
    "dft.x": (dft, PAIR, (np.float64(1.0), EMPTY)),
    "idft.spectrum": (idft, PAIR, (np.float64(1.0), EMPTY)),
    "band_pass.spectrum": (lambda v: band_pass(v, BAND), PAIR, (np.float64(1.0), EMPTY)),
    "bp_loss.x": (lambda v: bp_loss(v, ROW, BAND), ROW, (PAIR, EMPTY)),
    "bp_loss.reference": (lambda v: bp_loss(ROW, v, BAND), ROW, (ROW[:3], PAIR)),
    "bp_grad_step.x": (lambda v: bp_grad_step(v, PAIR, BAND, 0.1), PAIR, ([PAIR], EMPTY)),
    "bp_grad_step.reference": (lambda v: bp_grad_step(PAIR, v, BAND, 0.1), PAIR, (ROW,)),
    "ddpm_mean.x_t": (lambda v: ddpm_mean(v, 3, ROW, SCH), ROW, ()),  # any rank; eps_hat follows
    "ddpm_mean.eps_hat": (lambda v: ddpm_mean(ROW, 3, v, SCH), ROW, (ROW[:3], PAIR)),
    "ddpm_step.x_t": (lambda v: ddpm_step(v, 3, ROW, SCH, np.random.default_rng(0)), ROW, ()),
    "ddim_mean.x_t": (lambda v: ddim_mean(v, 4, 2, PAIR, SCH), PAIR, ()),
    "ddim_mean.eps_hat": (lambda v: ddim_mean(PAIR, 4, 2, v, SCH), PAIR, (ROW, [PAIR])),
    "forward_perturb.x0": (lambda v: forward_perturb(v, 2, ROW, SCH), ROW, ()),
    "forward_perturb.eps": (lambda v: forward_perturb(ROW, 2, v, SCH), ROW, (ROW[:3],)),
    "guided_eps.x_t": (lambda v: guided_eps(PARAMS, v, 2, None, 0.0), ROW, ([PAIR], ROW[:3])),
    "predict_eps.x_t": (lambda v: predict_eps(PARAMS, v, 2), ROW, ([PAIR], ROW[:3])),
    "predict_eps_vjp.x_t": (lambda v: predict_eps_vjp(PARAMS, v, 2, None, ROW), ROW,
                            (PAIR, ROW[:3])),
    "predict_eps_vjp.cotangent": (lambda v: predict_eps_vjp(PARAMS, ROW, 2, None, v), ROW,
                                  (PAIR, [ROW] * 9, ROW[:3])),
    "dsm_loss.windows": (lambda v: dsm_loss(PARAMS, v, [None, None], SCH,
                                            np.random.default_rng(0)), PAIR,
                         (ROW, [r[:3] for r in PAIR], [ROW, [1.0, np.nan, 0.0, 0.0]])),
    "train.windows": (lambda v: train(v, [None, None], SCH, TrainConfig(epochs=1, batch_size=1),
                                      NET).params.values, PAIR,
                      (ROW, np.zeros((0, L)), np.zeros((2, L - 1)),
                       [ROW, [1.0, np.inf, 0.0, 0.0]])),
    "ScoreNetworkParams.values": (lambda v: ScoreNetworkParams(NET, v).values,
                                  (np.arange(PARAMS.n_params) % 3).tolist(),
                                  (np.zeros((1, PARAMS.n_params)), np.zeros(PARAMS.n_params - 1))),
    "time_embedding.t": (lambda v: time_embedding(v, 4), [1.0, 2.0, 6.0], (PAIR,)),
    "NoiseSchedule.beta": (lambda v: NoiseSchedule(4, v).alpha_bar, [0.1, 0.2, 0.3, 0.4],
                           ([[0.1, 0.2]] * 2, EMPTY, [0.1, np.nan, 0.3, 0.4])),
    "schedule_from_dict.beta": (lambda v: schedule_from_dict({"T": 4, "beta": v}).alpha_bar,
                                [0.1, 0.2, 0.3, 0.4], ([[0.1, 0.2]] * 2, EMPTY)),
    "SigmaLadder.sigma": (lambda v: SigmaLadder(v).sigma, [1.0, 2.0, 4.0], ([[1.0, 2.0]], EMPTY)),
    "langevin_sample.step_sizes": (_langevin, [1.0, 2.0], ([[1.0, 2.0]], [1.0, 2.0, 3.0])),
    "langevin_sample.score_fn output": (lambda v: _langevin(score=lambda x: v), [1.0, 2.0],
                                        ([1.0, 2.0, 3.0],)),
    "sample_rows.donor stack": (lambda v: sample_rows(PARAMS, SCH, NULL_DRAW, [None], v), [ROW],
                                ([[ROW]], [ROW[:3]], PAIR, [[1.0, np.nan, 0.0, 0.0]])),
    "denormalize_window.values": (lambda v: denormalize_window(v, ([0.5, 1.0], [1.0, 2.0])),
                                  PAIR, ()),
    "denormalize_window.mean": (lambda v: denormalize_window(PAIR, (v, [1.0, 2.0])),
                                [0.5, 1.0], ()),
    "denormalize_window.scale": (lambda v: denormalize_window(PAIR, ([0.5, 1.0], v)),
                                 [1.0, 2.0], ()),
    "information_coefficient.predicted": (lambda v: information_coefficient(v, ROW), PAIR[1],
                                          (PAIR, EMPTY, ROW[:1])),
    "information_coefficient.realized": (lambda v: information_coefficient(ROW, v), PAIR[1],
                                         (ROW[:3], PAIR)),
    "rank_ic.predicted": (lambda v: rank_ic(v, ROW), PAIR[1], (PAIR, EMPTY)),
    "rank_ic.realized": (lambda v: rank_ic(ROW, v), PAIR[1], (ROW[:3],)),
}


def _not_numbers(good) -> list:
    """Values no array site takes: a string, a nest holding a string, a bool array, an object
    array holding None, and a ragged nest."""
    text, hole = np.array(good, dtype=object), np.array(good, dtype=object)
    text.flat[0], hole.flat[0] = "1.5", None
    return ["x", text.tolist(), np.ones(np.shape(good), dtype=bool), hole, [[1.0, 2.0], [3.0]]]


def _bits(result) -> list:
    """The result's arrays and floats as bytes, so two results compare bit for bit."""
    if isinstance(result, tuple):
        return [b for part in result for b in _bits(part)]
    result = np.asarray(result)
    return [result.dtype.str, result.shape, result.tobytes()]


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_array_arguments_take_numeric_arrays_of_their_shape_and_nothing_else(case):
    call, good, bad_shapes = ARRAY_CASES[case]
    name = case.split(".")[1]
    for bad in (*_not_numbers(good), *bad_shapes):
        with pytest.raises(ParameterError, match="^" + re.escape(f"{name} ")):
            call(bad)
    # a float list, an int64 array and a float32 array each give, bit for bit, what the site gives
    # on their float64 copy; a beta ladder has no integer form
    ints = [np.asarray(good, np.int64)] if np.all(np.mod(good, 1.0) == 0.0) else []
    for ok in (list(good), np.asarray(good, np.float32), *ints):
        assert _bits(call(ok)) == _bits(call(np.asarray(ok, dtype=np.float64)))


POSITIVE = [[1.0, 3.0, 2.0, 5.0], [2.0, 1.0, 4.0, 4.0]]

# name: (call with the value, a valid value) for each number field of a data record, which takes
# what the array or real rule takes and raises a DataError where that rule raises
DATA_CASES = {
    "SeriesWindow.values": (lambda v: _window(values=v).values, ROW),
    "SeriesWindow.mean": (lambda v: _window(mean=v).mean, 2.0),
    "SeriesWindow.scale": (lambda v: _window(scale=v).scale, 3.0),
    "StockRecord.close": (lambda v: StockRecord("600000", DAYS[:L], v, 3, Board.MAIN).close, ROW),
    "normalize_window.raw_closes": (normalize_window, POSITIVE),
    "PredictionPanel.scores": (lambda v: PredictionPanel(DAYS[:2], list("ABCD"), v, PAIR).scores,
                               PAIR),
    "PredictionPanel.returns": (lambda v: PredictionPanel(DAYS[:2], list("ABCD"), PAIR, v).returns,
                                PAIR),
}


@pytest.mark.parametrize("case", sorted(DATA_CASES))
def test_data_fields_take_numbers_and_nothing_else(case):
    call, good = DATA_CASES[case]
    name = case.split(".")[1]
    for bad in _not_numbers(good):
        with pytest.raises(DataError, match="^" + re.escape(f"{name} ")):
            call(bad)
    # a float list (a float for a scalar field), an int64 and a float32 form each give, bit for
    # bit, what the field gives on their float64 copy
    for ok in (np.asarray(good).tolist(), np.asarray(good, np.int64)[()],
               np.asarray(good, np.float32)[()]):
        assert _bits(call(ok)) == _bits(call(np.asarray(ok, dtype=np.float64)[()]))


def test_a_window_takes_str_text_fields_and_a_bool_flag():
    for field, bad, message in (("ticker", 5, "ticker of type int is not str"),
                                ("start_date", 20210104, "start_date of type int is not str"),
                                ("synthetic", 1, "synthetic of type int is not bool"),
                                ("synthetic", "false", "synthetic of type str is not bool")):
        with pytest.raises(DataError, match=f"^{message}$"):
            _window(**{field: bad})


def test_records_and_panels_take_str_text_fields():
    # a text field, or each entry of a list of them, must be a str; a str is not such a list;
    # a record's exclude flag must be a bool
    for call, message in (
        (lambda: StockRecord(600000, [1, 2, 3], [1.0, 2.0, 3.0], 3, Board.MAIN),
         "ticker of type int is not str"),
        (lambda: StockRecord("600000", [1, 2, 3], [1.0, 2.0, 3.0], 3, Board.MAIN),
         "dates[0] of type int is not str"),
        (lambda: StockRecord("600000", tuple(DAYS[:3]), [1.0, 2.0, 3.0], 3, Board.MAIN),
         "dates of type tuple is not list"),
        (lambda: _record(exclude="false"), "exclude of type str is not bool"),
        (lambda: _record(exclude=1), "exclude of type int is not bool"),
        (lambda: _record(notes="abc"), "notes of type str is not list"),
        (lambda: _record(notes=["repaired", 5]), "notes[1] of type int is not str"),
        (lambda: PredictionPanel("ab", "cd", np.eye(2), np.eye(2)),
         "dates of type str is not list"),
        (lambda: PredictionPanel(DAYS[:2], "cd", np.eye(2), np.eye(2)),
         "tickers of type str is not list"),
        (lambda: PredictionPanel(DAYS[:2], ["A", 5], np.eye(2), np.eye(2)),
         "tickers[1] of type int is not str"),
    ):
        with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
            call()


def test_array_messages_give_the_dtype_or_shape_and_never_the_values():
    real, spectral = "is not an array of real numbers", "is not an array of complex numbers"
    for call, message in (
        (lambda: ddpm_mean(ROW, 3, ROW[:3], SCH),
         "eps_hat of shape (3,) does not match x_t of shape (4,)"),
        (lambda: antv_step(["a", "b"], ANTV), f"x of dtype <U1 {real}"),
        (lambda: antv_step(["1.5", "2", "3"], ANTV), f"x of dtype <U3 {real}"),
        (lambda: antv_step([True, False, True], ANTV), f"x of dtype bool {real}"),
        (lambda: dft([None, 1]), f"x of dtype object {spectral}"),
        (lambda: band_pass(["a"], BAND), f"spectrum of dtype <U1 {spectral}"),
        (lambda: antv_loss([[1.0, 2.0], [3.0]], ANTV), "x is not a rectangular array"),
        (lambda: _langevin([1.0, 2.0, 3.0]),
         "step_sizes of shape (3,) does not end in an axis of length 2"),
        (lambda: antv_loss(np.zeros((2, 3)), ANTV), "x of shape (2, 3) is not of rank 1"),
        (lambda: antv_step(EMPTY, ANTV), "x of shape (0,) is a scalar or empty"),
        (lambda: dsm_loss(PARAMS, [ROW, [np.nan] * L], [None] * 2, SCH, np.random.default_rng(0)),
         "windows of shape (2, 4) has non-finite entries"),
    ):
        with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
            call()
    assert check_array([1, 2], "x").dtype == np.float64
    spectrum = check_array([1 + 2j, 3], "x", spectrum=True)
    assert spectrum.dtype == np.complex128 and np.array_equal(dft(spectrum), np.fft.fft(spectrum))
    exact = np.array([0.5, 1.5])
    assert check_array(exact, "x") is exact  # a float64 array is taken as it is, not copied
    assert predict_eps(PARAMS, np.zeros((0, L)), 2, []).shape == (0, L)  # an empty batch
    assert ddpm_mean(np.float64(1.0), 3, 0.5, SCH).shape == ()  # any rank, a scalar too


SRC = Path(__file__).resolve().parent.parent / "src" / "seriesdiff"


def _own_conversions(source: str) -> list[int]:
    """Lines of the source's ``np.asarray`` or ``np.array`` calls given the dtype ``np.float64``
    and of its ``.dtype`` reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.asarray", "np.array"):
            dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(ast.unparse(d) == "np.float64" for d in dtypes):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "dtype":
            found.append(node.lineno)
    return sorted(found)


def test_only_errors_and_the_oracles_convert_to_float64_or_read_a_dtype_kind():
    """One owner for the array rule: every other module converts an argument or a record field
    with ``check_array`` or ``check_real``."""
    planted = ("np.asarray(x, dtype=np.float64)\nnp.array(x, np.float64)\na.dtype.kind\n"
               "np.asarray(x)\nnp.zeros(2, dtype=np.float64)\nnp.issubdtype(x.dtype, np.integer)\n")
    assert _own_conversions(planted) == [1, 2, 3, 6]
    found = {path.name: _own_conversions(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name not in ("errors.py", "oracles.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
