"""Correlation measures, panels, and the rotation backtest."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from seriesdiff import (
    DataError,
    ParameterError,
    PredictionPanel,
    information_coefficient,
    rank_ic,
    read_panel_csv,
    summarize_backtest,
    topk_dropk_backtest,
)
from seriesdiff.evaluate import _average_ranks, _corr_rows
from seriesdiff.oracles import (
    pearson_direct,
    reference_topk_backtest,
    spearman_direct,
)


def test_ic_matches_oracle_and_rejects_constants():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.standard_normal(30), rng.standard_normal(30)
        assert information_coefficient(a, b) == pytest.approx(
            pearson_direct(a, b), abs=1e-13
        )
    with pytest.raises(DataError):
        information_coefficient(np.ones(5), rng.standard_normal(5))
    with pytest.raises(DataError):  # np.std of these is 1.4e-17, not 0
        information_coefficient(np.full(7, 0.1), rng.standard_normal(7))
    with pytest.raises(ParameterError):
        information_coefficient(np.ones(5), np.ones(4))
    with pytest.raises(DataError, match="^inputs contain non-finite values$"):
        information_coefficient(np.array([1.0, np.nan, 2.0]), rng.standard_normal(3))


def test_average_ranks_with_ties():
    assert _average_ranks(np.array([10.0, 20.0, 20.0, 40.0])).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert _average_ranks(np.array([3.0, 3.0, 3.0])).tolist() == [2.0, 2.0, 2.0]
    assert _average_ranks(np.array([5.0, 1.0])).tolist() == [2.0, 1.0]


def test_rank_ic_matches_oracle_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = np.round(rng.standard_normal(25), 1)  # rounding forces ties
        b = np.round(rng.standard_normal(25), 1)
        if np.unique(a).size == 1 or np.unique(b).size == 1:
            continue
        assert rank_ic(a, b) == pytest.approx(spearman_direct(a, b), abs=1e-13)
    with pytest.raises(DataError):
        rank_ic(np.full(6, 2.0), rng.standard_normal(6))


def test_rank_ic_invariances():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(40), rng.standard_normal(40)
    base = rank_ic(a, b)
    # strictly monotone transforms leave ranks alone
    assert rank_ic(np.exp(a), b) == pytest.approx(base, abs=1e-12)
    assert rank_ic(a, 3.0 * b - 1.0) == pytest.approx(base, abs=1e-12)
    ic = information_coefficient(a, b)
    assert information_coefficient(2.0 * a + 5.0, b) == pytest.approx(ic, abs=1e-12)
    assert information_coefficient(a, -b) == pytest.approx(-ic, abs=1e-12)


def test_panel_validation():
    with pytest.raises(DataError):
        PredictionPanel(
            dates=["d1"], tickers=["A", "B"],
            scores=np.zeros((1, 3)), returns=np.zeros((1, 2)),
        )
    with pytest.raises(DataError):
        PredictionPanel(
            dates=["d1", "d1"], tickers=["A", "B"],
            scores=np.zeros((2, 2)), returns=np.zeros((2, 2)),
        )
    with pytest.raises(DataError):
        PredictionPanel(
            dates=["d1"], tickers=["A", "A"],
            scores=np.zeros((1, 2)), returns=np.zeros((1, 2)),
        )
    with pytest.raises(DataError, match="^panel needs at least one date and one ticker$"):
        PredictionPanel(dates=[], tickers=["A"], scores=np.zeros((0, 1)), returns=np.zeros((0, 1)))


def test_read_panel_csv(tmp_path, panel_csv):
    panel = read_panel_csv(panel_csv)
    assert len(panel.dates) == 6
    assert len(panel.tickers) == 8
    assert panel.scores.shape == (6, 8)

    p = tmp_path / "sparse.csv"
    p.write_text(
        "date,ticker,score,realized_return\n"
        "2022-01-01,A,0.5,0.01\n"
        "2022-01-02,A,0.2,0.02\n"
        "2022-01-01,B,0.1,0.00\n"
    )
    with pytest.raises(DataError, match=r"missing cell for \(2022-01-02, B\); the grid must"):
        read_panel_csv(p)

    p.write_text(
        "date,ticker,score,realized_return\n"
        "2022-01-02,A,0.2,0.02\n"
        "2022-01-01,B,0.1,0.00\n"
        "2022-01-02,B,0.3,-0.01\n"
        "2022-01-01,A,0.5,0.01\n"
    )
    panel = read_panel_csv(p)
    assert panel.scores.tolist() == [[0.5, 0.1], [0.2, 0.3]]
    assert panel.returns.tolist() == [[0.01, 0.00], [0.02, -0.01]]

    p.write_text(
        "date,ticker,score,realized_return\n"
        "2022-01-01,A,0.5,0.01\n"
        "2022-01-01,A,0.6,0.01\n"
    )
    with pytest.raises(DataError, match="duplicate"):
        read_panel_csv(p)


def test_read_panel_csv_names_the_line_of_a_bad_cell(tmp_path):
    p = tmp_path / "panel.csv"
    for row, reason in (
        ("2022-01-01,,0.1,0.0", "empty date or ticker"),
        (",B,0.1,0.0", "empty date or ticker"),
        ("2022-01-01,B,x,0.0", "finite numbers"),
        ("2022-01-01,B,nan,0.0", "finite numbers"),
        ("2022-01-01,B,0.1,1e400", "finite numbers"),
    ):
        p.write_text(f"date,ticker,score,realized_return\n2022-01-01,A,0.5,0.01\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:3: .*{reason}"):
            read_panel_csv(p)


def test_backtest_hand_example():
    panel = PredictionPanel(
        dates=["d1", "d2"],
        tickers=["AAA", "BBB", "CCC"],
        scores=np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 0.0]]),
        returns=np.array([[0.10, 0.00, -0.05], [0.02, 0.04, 0.00]]),
    )
    res = topk_dropk_backtest(panel, top_k=1)
    assert res.holdings == [["AAA"], ["AAA"]]
    assert np.allclose(res.daily_returns, [0.10, 0.02], atol=1e-15)
    assert res.cumulative[-1] == pytest.approx(1.10 * 1.02 - 1.0, abs=1e-15)
    assert res.turnover == 0.0  # same single name held both dates

    res2 = topk_dropk_backtest(panel, top_k=2)
    assert res2.holdings[0] == ["AAA", "CCC"]
    assert res2.holdings[1] == ["AAA", "BBB"]  # tie at 1.0 broken by ticker
    assert res2.turnover == 1.0  # CCC swapped out for BBB

    res3 = topk_dropk_backtest(panel, top_k=10)  # top_k larger than the universe
    assert res3.holdings[0] == ["AAA", "CCC", "BBB"]  # score order, ties by name


def test_backtest_matches_reference_on_randoms():
    rng = np.random.default_rng(3)
    for trial in range(80):
        nd, nt, k = 4, 7, (1, 3, 7, 9)[trial % 4]
        dates = [f"d{i}" for i in range(nd)]
        tickers = [f"T{j:02d}" for j in range(nt)]
        scores = np.round(rng.standard_normal((nd, nt)), 1)
        returns = 0.02 * rng.standard_normal((nd, nt))
        if trial >= 20:  # some score or return rows constant
            scores[rng.random(nd) < 0.3] = 0.1
            returns[rng.random(nd) < 0.3] = 0.01
        panel = PredictionPanel(dates=dates, tickers=tickers,
                                scores=scores, returns=returns)
        got = topk_dropk_backtest(panel, top_k=k)
        holdings, daily, cum = reference_topk_backtest(dates, tickers, scores, returns, k)
        assert got.holdings == holdings
        assert np.max(np.abs(np.asarray(got.daily_returns) - daily)) < 1e-12
        assert got.cumulative_return == pytest.approx(cum, abs=1e-12)
        assert got.turnover == sum(len(set(a) - set(b)) for a, b in zip(holdings, holdings[1:]))

        s = summarize_backtest(panel, top_k=k, result=got)
        kept = [d for d in range(nd) if np.ptp(scores[d]) > 0 and np.ptp(returns[d]) > 0]
        assert s["skipped_ic_dates"] == nd - len(kept)
        for key, oracle in (("mean_ic", pearson_direct), ("mean_rank_ic", spearman_direct)):
            if not kept:
                assert s[key] is None
                continue
            want = np.mean([oracle(scores[d], returns[d]) for d in kept])
            assert s[key] == pytest.approx(want, abs=1e-12)


def test_summarize_backtest_keys_and_skips():
    panel = PredictionPanel(
        dates=["d1", "d2"],
        tickers=["A", "B", "C"],
        scores=np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]),  # d2 constant
        returns=np.array([[0.01, 0.02, 0.03], [0.00, 0.01, 0.02]]),
    )
    s = summarize_backtest(panel, top_k=2)
    assert s["n_dates"] == 2
    assert s["skipped_ic_dates"] == 1
    assert s["mean_ic"] == pytest.approx(1.0, abs=1e-12)  # d1 is perfectly aligned
    assert s["top_k"] == 2
    assert "cumulative_rr" in s and "turnover" in s

    all_bad = PredictionPanel(
        dates=["d1"], tickers=["A", "B"],
        scores=np.array([[1.0, 1.0]]), returns=np.array([[0.01, 0.02]]),
    )
    s2 = summarize_backtest(all_bad, top_k=1)
    assert s2["mean_ic"] is None
    assert s2["mean_rank_ic"] is None

    # a 1-name universe skips every date, also with k above the universe
    one_name = PredictionPanel(
        dates=["d1", "d2", "d3"], tickers=["A"],
        scores=np.array([[1.0], [2.0], [3.0]]), returns=np.array([[0.01], [-0.02], [0.03]]),
    )
    s1 = summarize_backtest(one_name, top_k=5)
    assert (s1["mean_ic"], s1["mean_rank_ic"], s1["skipped_ic_dates"]) == (None, None, 3)
    assert (s1["turnover"], s1["top_k"]) == (0, 5)
    assert s1["mean_daily_return"] == pytest.approx(0.02 / 3, abs=1e-15)
    assert summarize_backtest(one_name, top_k=5, result=topk_dropk_backtest(one_name, 1)) == s1

    # a result over other dates, or holding another count of names, is not this panel's
    for top_k, other in ((1, topk_dropk_backtest(one_name, top_k=1)),
                         (1, topk_dropk_backtest(panel, top_k=2)),
                         (2, topk_dropk_backtest(panel, top_k=1))):
        with pytest.raises(ParameterError, match=re.escape(
                f"result is not topk_dropk_backtest(panel, top_k={top_k})")):
            summarize_backtest(panel, top_k, other)

    # a constant 0.1 row is skipped for IC and Rank IC alike, so neither
    # average keeps a value from it
    seven = np.arange(1.0, 8.0)
    constant_first = PredictionPanel(
        dates=["d1", "d2"], tickers=[f"T{j}" for j in range(7)],
        scores=np.stack([np.full(7, 0.1), seven]),
        returns=np.stack([0.01 * seven, -0.01 * seven]),
    )
    s3 = summarize_backtest(constant_first, top_k=2)
    assert s3["skipped_ic_dates"] == 1
    assert s3["mean_ic"] == pytest.approx(-1.0, abs=1e-12)
    assert s3["mean_rank_ic"] == pytest.approx(-1.0, abs=1e-12)


# Peak bytes summarize_backtest allocates per cell of a 750-date, 300-ticker panel, traced with
# tracemalloc.  Its passes run over blocks of dates of about 16k cells: 4.2 measured with numpy
# 2.4 on Python 3.11, where one (dates, 2, tickers) stack of the whole panel measured 55.6.
# Not to be raised.
SUMMARY_PEAK_BYTES_PER_CELL = 8


def test_summarize_backtest_runs_over_blocks_of_dates_as_over_one_stack():
    rng = np.random.default_rng(5)
    D, N = 750, 300
    scores, returns = rng.standard_normal((D, N)), 0.01 * rng.standard_normal((D, N))
    scores[::9] = np.round(scores[::9], 1)  # ties
    scores[::13], returns[::17] = 0.5, 0.0  # constant dates, skipped
    panel = PredictionPanel([f"d{i:03d}" for i in range(D)], [f"T{j:03d}" for j in range(N)],
                            scores, returns)
    result = topk_dropk_backtest(panel, top_k=20)
    summarize_backtest(panel, top_k=20, result=result)  # first-call allocations are not its own
    tracemalloc.start()
    try:
        got = summarize_backtest(panel, top_k=20, result=result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = np.stack([scores, returns], axis=1)  # the whole panel as one stack
    pairs = pairs[np.all(pairs.min(axis=-1) < pairs.max(axis=-1), axis=-1)]
    assert got["skipped_ic_dates"] == D - len(pairs) == 99
    assert got["mean_ic"] == float(np.mean(_corr_rows(pairs)))
    assert got["mean_rank_ic"] == float(np.mean(_corr_rows(_average_ranks(pairs))))
    assert peak / (D * N) <= SUMMARY_PEAK_BYTES_PER_CELL, f"{peak / (D * N):.1f} bytes per cell"
