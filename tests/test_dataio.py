"""Board rules, suspension repair, windowing, and the JSONL store."""
from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from seriesdiff import (
    Board,
    DataError,
    ParameterError,
    SeriesWindow,
    StockRecord,
    classify_board,
    denormalize_window,
    drop_ipo_head,
    make_windows,
    normalize_window,
    prepare_windows,
    read_close_csv,
    read_window_store,
    repair_suspensions,
    split_train_test,
    write_window_store,
)
from seriesdiff.dataio import STD_FLOOR
from conftest import FIXTURE_TICKERS, trading_days


@pytest.mark.parametrize(
    "ticker,board",
    [
        ("600519", Board.MAIN),
        ("601318", Board.MAIN),
        ("000001", Board.MAIN),
        ("002230", Board.MAIN),
        ("300750", Board.CHINEXT),
        ("688111", Board.STAR),
        ("830799", Board.BSE),
        ("870436", Board.BSE),
        ("889999", Board.BSE),
    ],
)
def test_classify_board_prefixes(ticker, board):
    assert classify_board(ticker) == board


def test_classify_board_rejects_unknowns():
    with pytest.raises(DataError):
        classify_board("123456")
    with pytest.raises(DataError):
        classify_board("AAPL")
    with pytest.raises(DataError):
        classify_board("")


def _record(closes, ticker="600000", industry=3, start="2021-01-04"):
    dates = trading_days(start, len(closes))
    return StockRecord(
        ticker=ticker,
        dates=dates,
        close=np.asarray(closes, dtype=np.float64),
        industry_id=industry,
        board=classify_board(ticker),
    )


def test_record_requires_increasing_dates():
    for dates in (["2021-01-05", "2021-01-04"], ["2021-01-04", "2021-01-04"]):
        with pytest.raises(DataError, match="dates must be strictly increasing"):
            StockRecord(
                ticker="600000",
                dates=dates,
                close=np.array([1.0, 2.0]),
                industry_id=0,
                board=Board.MAIN,
            )
    rec = _record([1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="dates must be strictly increasing"):
        replace(rec, dates=rec.dates[::-1])  # replace re-runs the check


def test_short_interior_gap_is_interpolated():
    closes = [10.0, np.nan, np.nan, 16.0, 17.0]
    rec = repair_suspensions(_record(closes), max_interp_gap=5)
    assert np.allclose(rec.close, [10.0, 12.0, 14.0, 16.0, 17.0], atol=1e-12)
    assert rec.n_interpolated_gaps == 1
    assert rec.n_forward_filled_gaps == 0
    assert not rec.exclude


def test_long_interior_gap_is_forward_filled():
    closes = [10.0] + [np.nan] * 7 + [20.0, 21.0]
    rec = repair_suspensions(_record(closes), max_interp_gap=5)
    assert np.allclose(rec.close[1:8], 10.0, atol=0)
    assert rec.n_forward_filled_gaps == 1
    assert not rec.exclude  # one long gap is tolerated by default


def test_leading_and_trailing_gaps():
    closes = [np.nan, np.nan, 10.0, 11.0, np.nan, np.nan, np.nan]
    rec = repair_suspensions(_record(closes))
    # leading rows are dropped, trailing run is forward-filled
    assert len(rec) == 5
    assert np.allclose(rec.close, [10.0, 11.0, 11.0, 11.0, 11.0], atol=0)
    assert rec.dates[0] == trading_days("2021-01-04", 7)[2]


def _runs_after_leading_rows(missing: list[bool]) -> int:
    """Brute-force count of the NaN runs left once the leading NaN rows are dropped."""
    runs, before = 0, False
    for m in missing[missing.index(False):]:
        runs += m and not before
        before = m
    return runs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=40).filter(lambda m: m.count(False) >= 2))
@example([True, True, False, False, True])  # leading and trailing gaps
@example([False, True, True, False, True, False])  # runs split by a single close
@example([False, True, True, True, False, False])  # a gap of exactly max_interp_gap
@example([False, True, True, True, True, False])  # one day longer
def test_every_gap_is_repaired_once_and_present_closes_stay(missing):
    closes = [math.nan if m else 10.0 + i for i, m in enumerate(missing)]
    rec = repair_suspensions(_record(closes), max_interp_gap=3)
    assert rec.n_interpolated_gaps + rec.n_forward_filled_gaps == _runs_after_leading_rows(missing)
    lead = missing.index(False)
    assert len(rec) == len(missing) - lead
    for i, m in enumerate(missing):
        if not m:
            assert rec.close[i - lead] == closes[i]
    assert np.all(np.isfinite(rec.close))


def test_too_many_long_gaps_excludes():
    closes = [10.0]
    for _ in range(4):  # four 6-day gaps with anchors between
        closes += [np.nan] * 6 + [10.0]
    rec = repair_suspensions(_record(closes), max_interp_gap=5, max_long_gaps=3)
    assert rec.exclude
    assert any("excluded" in n for n in rec.notes)


def test_single_enormous_gap_excludes():
    closes = [10.0] + [np.nan] * 61 + [12.0]
    rec = repair_suspensions(_record(closes), max_gap_days=60)
    assert rec.exclude


def test_sparse_record_is_rejected():
    # fewer than two present closes leaves nothing to anchor a repair on
    with pytest.raises(DataError):
        repair_suspensions(_record([np.nan, 3.0, np.nan]))


def test_drop_ipo_head():
    rec = _record([float(i + 1) for i in range(10)])
    trimmed = drop_ipo_head(rec, n_days=5)
    assert len(trimmed) == 5
    assert trimmed.close[0] == 6.0
    gone = drop_ipo_head(_record([1.0, 2.0, 3.0]), n_days=5)
    assert gone.exclude
    assert len(gone) == 0


def test_normalize_window_contract():
    raw = np.array([10.0, 11.0, 12.0, 14.0])
    values, (mu, scale) = normalize_window(raw)
    logs = np.log(raw)
    assert mu == pytest.approx(float(np.mean(logs)), abs=1e-15)
    assert float(np.mean(values)) == pytest.approx(0.0, abs=1e-12)
    assert float(np.std(values)) == pytest.approx(1.0, abs=1e-12)
    back = denormalize_window(values, (mu, scale))
    assert np.max(np.abs(back - raw)) < 1e-10


def test_normalize_constant_window_uses_floor():
    values, (mu, scale) = normalize_window(np.full(5, 7.0))
    assert scale == 1e-8  # zero variance hits the floor instead of dividing by 0
    assert np.allclose(values, 0.0, atol=1e-6)
    assert mu == pytest.approx(math.log(7.0), abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    length=st.integers(2, 300),
    step=st.integers(1, 61),
    n_windows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    flat=st.booleans(),
)
@example(length=2, step=1, n_windows=3, seed=0, flat=True)
@example(length=300, step=61, n_windows=6, seed=1, flat=True)
def test_batched_normalize_rows_equal_single_windows_bitwise(length, step, n_windows, seed, flat):
    rng = np.random.default_rng(seed)
    close = 50.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(length + (n_windows - 1) * step)))
    if flat:  # a constant first window, whose scale is the floor
        close[:length] = close[0]
    values, (mu, scale) = normalize_window(sliding_window_view(close, length)[::step])
    assert values.shape == (n_windows, length)
    assert mu.shape == scale.shape == (n_windows,)
    for i in range(n_windows):
        row, (row_mu, row_scale) = normalize_window(close[i * step : i * step + length])
        assert values[i].tobytes() == row.tobytes()
        assert mu[i].tobytes() == np.float64(row_mu).tobytes()
        assert scale[i].tobytes() == np.float64(row_scale).tobytes()
    assert not flat or scale[0] == STD_FLOOR


def test_normalize_requires_positive_closes():
    with pytest.raises(DataError):
        normalize_window(np.array([1.0, -2.0, 3.0]))
    with pytest.raises(DataError):
        normalize_window(np.array([1.0, 0.0]))


def test_make_windows_count_and_round_trip():
    n = 100
    rec = _record([100.0 * math.exp(0.01 * i) for i in range(n)])
    wins = make_windows(rec, length=60, step=20)
    assert len(wins) == (n - 60) // 20 + 1
    assert wins[0].start_date == rec.dates[0]
    assert wins[1].start_date == rec.dates[20]
    for w in wins:
        assert w.values.shape == (60,)
        assert not w.synthetic
        assert w.board == Board.MAIN
    # denormalizing recovers the raw closes of the matching slice
    seg = rec.close[20:80]
    back = denormalize_window(wins[1].values, (wins[1].mean, wins[1].scale))
    assert np.max(np.abs(back - seg) / seg) < 1e-10


def test_make_windows_too_short_raises():
    rec = _record([10.0, 11.0, 12.0])
    with pytest.raises(DataError):
        make_windows(rec, length=5, step=2)


def test_split_is_per_ticker_chronological():
    wins = []
    for ticker, n in (("600519", 5), ("000001", 3)):
        rec = _record([10.0 + i for i in range(n * 10 + 50)], ticker=ticker)
        wins.extend(make_windows(rec, length=50, step=10))
    train, test = split_train_test(wins, train_fraction=0.8)
    # ceil(0.8*6)=5 of 6 and ceil(0.8*4)=4 of 4... sizes derive from window counts
    by_ticker: dict[str, list] = {}
    for w in wins:
        by_ticker.setdefault(w.ticker, []).append(w)
    for ticker, group in by_ticker.items():
        k = math.ceil(0.8 * len(group))
        starts_train = [w.start_date for w in train if w.ticker == ticker]
        starts_test = [w.start_date for w in test if w.ticker == ticker]
        assert len(starts_train) == k
        assert len(starts_test) == len(group) - k
        if starts_test:
            assert max(starts_train) < min(starts_test)  # later windows go to test
    with pytest.raises(ParameterError):
        split_train_test(wins, train_fraction=0.0)
    with pytest.raises(ParameterError):
        split_train_test(wins, train_fraction=1.5)


def test_read_close_csv_parses_fixture(prices_csv):
    records = read_close_csv(prices_csv)
    assert len(records) == len(FIXTURE_TICKERS)
    by_ticker = {r.ticker: r for r in records}
    assert by_ticker["688111"].board == Board.STAR
    assert by_ticker["300750"].industry_id == 7
    # empty close cells arrive as NaN for the repair stage
    assert np.isnan(by_ticker["300750"].close[40])
    assert len(by_ticker["600519"]) == 180


def test_read_close_csv_line_numbered_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,ticker,close,industry_id\n2021-01-04,600000,-3.0,1\n")
    with pytest.raises(DataError, match=":2:"):
        read_close_csv(p)
    p.write_text("date,ticker,close\n2021-01-04,600000,3.0\n")
    with pytest.raises(DataError, match="header"):
        read_close_csv(p)
    p.write_text(
        "date,ticker,close,industry_id\n"
        "2021-01-04,600000,3.0,1\n2021-01-04,600000,3.1,1\n"
    )
    with pytest.raises(DataError, match="duplicate"):
        read_close_csv(p)
    p.write_text("date,ticker,close,industry_id\n2021-01-04,999999,3.0,1\n")
    with pytest.raises(DataError):
        read_close_csv(p)
    p.write_text("date,ticker,close,industry_id\n2021-01-04,600000,3.0,124\n")
    with pytest.raises(DataError, match="industry"):
        read_close_csv(p)
    for row in (",600000,3.0,1", "2021-01-04,,3.0,1"):
        p.write_text(f"date,ticker,close,industry_id\n{row}\n")
        with pytest.raises(DataError, match=":2: empty date or ticker"):
            read_close_csv(p)


def test_duplicate_date_error_is_bounded(tmp_path):
    days = trading_days("2021-01-04", 600)
    rows = [f"{d},600000,{10.0 + i % 7},1" for i, d in enumerate(days)]
    p = tmp_path / "dupes.csv"
    p.write_text("date,ticker,close,industry_id\n" + "\n".join(rows + rows) + "\n")
    with pytest.raises(DataError, match="600 duplicate dates") as info:
        read_close_csv(p)
    message = str(info.value)
    assert days[0] in message and days[-1] not in message
    assert len(message) < 200 + len(str(p))


def test_window_store_overwrite_is_atomic(tmp_path):
    rec = _record([50.0 * math.exp(0.005 * i) for i in range(90)], ticker="300750")
    windows = make_windows(rec, length=60, step=10)
    path = tmp_path / "windows.jsonl"
    write_window_store(windows, path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_window_store([windows[0], object()], path)
    assert path.read_bytes() == before
    assert len(read_window_store(path, 60, 124)) == len(windows)
    assert [p.name for p in tmp_path.iterdir()] == ["windows.jsonl"]


def test_prepare_windows_report(prices_csv):
    records = read_close_csv(prices_csv)
    windows, report = prepare_windows(records, length=60, step=20)
    assert report["n_records"] == 8
    assert report["n_skipped_records"] == 0
    assert report["n_windows"] == len(windows)
    # each ticker: 180 days - 5 IPO head = 175 -> (175-60)//20+1 = 6 windows
    assert report["n_windows"] == 8 * 6
    assert report["gaps"] == {"interpolated": 1, "forward_filled": 1}
    assert sum(report["windows_per_board"].values()) == len(windows)
    assert report["windows_per_board"]["MAIN"] == 4 * 6
    assert report["windows_per_board"]["BSE"] == 2 * 6


def test_prepare_windows_skips_short_records():
    good = _record([10.0 + 0.1 * i for i in range(80)], ticker="600519")
    short = _record([10.0 + 0.1 * i for i in range(30)], ticker="000001")
    windows, report = prepare_windows([good, short], length=60, step=20)
    assert report["n_skipped_records"] == 1
    assert report["skipped"][0]["ticker"] == "000001"
    assert all(w.ticker == "600519" for w in windows)


def test_window_store_round_trip(tmp_path):
    rec = _record([50.0 * math.exp(0.005 * i) for i in range(90)], ticker="300750")
    windows = make_windows(rec, length=60, step=10)
    windows.append(
        SeriesWindow(
            ticker="300750",
            start_date="2021-06-01",
            values=np.linspace(-1, 1, 60),
            mean=0.0,
            scale=1.0,
            industry_id=3,
            board=Board.CHINEXT,
            synthetic=True,
        )
    )
    path = tmp_path / "windows.jsonl"
    write_window_store(windows, path)
    back = read_window_store(path, 60, 124)
    assert len(back) == len(windows)
    for a, b in zip(windows, back):
        assert a.ticker == b.ticker
        assert a.start_date == b.start_date
        assert a.board == b.board
        assert a.synthetic == b.synthetic
        assert np.array_equal(a.values, b.values)
        assert (a.mean, a.scale) == (b.mean, b.scale)


def test_window_store_errors(tmp_path):
    path = tmp_path / "windows.jsonl"
    with pytest.raises(DataError):
        read_window_store(path, 3, 124)  # missing file
    path.write_text("")
    with pytest.raises(DataError):
        read_window_store(path, 3, 124)  # empty store
    path.write_text('{"ticker": "600000"}\n')
    with pytest.raises(DataError, match=":1:"):
        read_window_store(path, 3, 124)
    path.write_text("not json\n")
    with pytest.raises(DataError, match=":1:"):
        read_window_store(path, 3, 124)
    window = SeriesWindow("600000", "2021-01-04", np.zeros(3), 0.0, 1.0, 7, Board.MAIN)
    write_window_store([window], path)
    with pytest.raises(DataError, match=":1: window of length 3 "):
        read_window_store(path, 4, 124)  # a store cut for another window length
    with pytest.raises(DataError, match=":1: .* industry_id 7;"):
        read_window_store(path, 3, 7)  # an id the net has no embedding for
    line = path.read_text()
    path.write_text(line.replace('"industry_id": 7', '"industry_id": Infinity'))
    with pytest.raises(DataError, match=":1:"):
        read_window_store(path, 3, 124)  # an infinite id is not an integer
    for key, bad in (
        ("ticker", 5),
        ("start_date", 20200101),
        ("industry_id", 3.9),
        ("industry_id", True),
        ("mean", "0.5"),
        ("scale", False),
        ("synthetic", "false"),
        ("values", ["0", "0", "0"]),
        ("mean", math.inf),
        ("mean", math.nan),
    ):  # each a JSON value its field does not take
        path.write_text(json.dumps({**json.loads(line), key: bad}) + "\n")
        with pytest.raises(DataError, match=f":1: malformed window record: .*{key}"):
            read_window_store(path, 3, 124)
    path.write_bytes(line.encode() + b"\xff\n")
    with pytest.raises(DataError, match="window store"):
        read_window_store(path, 3, 124)  # not UTF-8
    with pytest.raises(DataError, match="window store"):
        read_window_store(tmp_path, 3, 124)  # a directory
