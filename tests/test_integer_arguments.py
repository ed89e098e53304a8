"""The integer rule: an integer argument is a Python or numpy integer, never a bool, within its
bounds; anything else is a ParameterError that names the argument."""
from __future__ import annotations

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from seriesdiff import (AntvConfig, BandSpec, Board, NoiseSchedule, ParameterError,
                        PredictionPanel, SamplerConfig, ScoreNetConfig, SeriesWindow, StockRecord,
                        TrainConfig, band_mask, drop_ipo_head, encode_condition, init_params,
                        langevin_sample, make_linear_schedule, make_sigma_ladder,
                        make_subsequence, make_windows, repair_suspensions, schedule_from_dict,
                        time_embedding, topk_dropk_backtest)
from seriesdiff.errors import check_int
from conftest import trading_days

NET = ScoreNetConfig(input_len=4, width=4, blocks=1, time_dim=4, embed_dim=2, cond_hidden=3,
                     n_industries=4)
PARAMS = init_params(NET, np.random.default_rng(0))
DAYS = trading_days("2021-01-04", 12)


def _record(industry_id: int = 3, board: Board = Board.MAIN) -> StockRecord:
    return StockRecord("600000", DAYS, 10.0 + 0.01 * np.arange(12.0), industry_id, board)


def _window(**fields) -> SeriesWindow:
    return SeriesWindow(**{"ticker": "600000", "start_date": DAYS[0], "values": np.zeros(4),
                           "mean": 0.0, "scale": 1.0, "industry_id": 3, "board": Board.MAIN,
                           **fields})


PANEL = PredictionPanel(DAYS[:2], ["A", "B"], np.eye(2), np.eye(2))
LADDER = make_sigma_ladder(0.1, 1.0, 2)

# name: (call with the value, integers just outside the bounds, an integer inside them)
CASES = {
    **{f"ScoreNetConfig.{f}": ((lambda v, f=f: ScoreNetConfig(**{"input_len": 4, f: v})), (0,), 4)
       for f in ("input_len", "width", "blocks", "time_dim", "embed_dim", "cond_hidden",
                 "n_industries", "n_boards")},
    "time_embedding.dim": (lambda v: time_embedding(1, v), (1,), 4),
    "encode_condition.industry_id": (lambda v: encode_condition(v, 0, PARAMS), (-1, 4), 3),
    "encode_condition.board_id": (lambda v: encode_condition(0, v, PARAMS), (-1, 5), 4),
    "TrainConfig.epochs": (lambda v: TrainConfig(epochs=v), (-1,), 0),
    "TrainConfig.batch_size": (lambda v: TrainConfig(epochs=1, batch_size=v), (0,), 1),
    "TrainConfig.seed": (lambda v: TrainConfig(epochs=1, seed=v), (-1,), 0),
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
    "drop_ipo_head.n_days": (lambda v: drop_ipo_head(_record(), v), (-1,), 0),
    "make_windows.length": (lambda v: make_windows(_record(), length=v), (1,), 2),
    "make_windows.step": (lambda v: make_windows(_record(), length=4, step=v), (0,), 1),
    "SeriesWindow.industry_id": (lambda v: _window(industry_id=v), (-1,), 0),
    "SeriesWindow.board": (lambda v: _window(board=v), (-1, len(Board)), 4),
    "topk_dropk_backtest.k": (lambda v: topk_dropk_backtest(PANEL, v), (0,), 1),
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
