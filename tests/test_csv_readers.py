"""Both CSV readers against a row-at-a-time reference, and where their errors point."""
from __future__ import annotations

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriesdiff import DataError, StockRecord, classify_board, read_close_csv, read_panel_csv
from seriesdiff.evaluate import PredictionPanel
from conftest import trading_days

CLOSE_HEADER = ["date", "ticker", "close", "industry_id"]
PANEL_HEADER = ["date", "ticker", "score", "realized_return"]


# --- the reference: one row at a time, each rule checked in file order ----------------------

def _reference_rows(path, header):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: file is empty")
        if [h.strip() for h in first] != header:
            raise DataError(f"{path}: expected header {','.join(header)}")
        n_rows = 0
        for lineno, row in enumerate(reader, start=2):
            fields = [cell.strip() for cell in row]
            if not any(fields):
                continue
            if len(fields) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
            if not fields[0] or not fields[1]:
                raise DataError(f"{path}:{lineno}: empty date or ticker")
            n_rows += 1
            yield lineno, fields
    if not n_rows:
        raise DataError(f"{path}: no data rows")


def reference_close_csv(path, n_industries=124):
    rows: dict[str, list[tuple[str, float, int]]] = {}
    for lineno, (date, ticker, close_s, industry_s) in _reference_rows(path, CLOSE_HEADER):
        if close_s:
            try:
                close = float(close_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: close {close_s!r} is not a number") from None
            if not math.isfinite(close) or close <= 0.0:
                raise DataError(f"{path}:{lineno}: close must be positive, got {close_s}")
        else:
            close = math.nan
        try:
            industry = int(industry_s)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: industry_id {industry_s!r} is not an integer"
            ) from None
        if not 0 <= industry < n_industries:
            raise DataError(f"{path}:{lineno}: industry_id {industry} outside [0, {n_industries})")
        rows.setdefault(ticker, []).append((date, close, industry))
    records = []
    for ticker in sorted(rows):
        entries = sorted(rows[ticker], key=lambda e: e[0])
        dates = [e[0] for e in entries]
        dupes = sorted({d for i, d in enumerate(dates[:-1]) if d == dates[i + 1]})
        if dupes:
            raise DataError(
                f"{path}: ticker {ticker} has {len(dupes)} duplicate dates, "
                f"first {', '.join(dupes[:5])}"
            )
        close = np.array([e[1] for e in entries], dtype=np.float64)
        records.append(StockRecord(ticker, dates, close, entries[-1][2], classify_board(ticker)))
    return records


def reference_panel_csv(path):
    cells: dict[tuple[str, str], tuple[float, float]] = {}
    for lineno, (date, ticker, score_s, ret_s) in _reference_rows(path, PANEL_HEADER):
        try:
            score, ret = float(score_s), float(ret_s)
            if not (math.isfinite(score) and math.isfinite(ret)):
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lineno}: score and return must be finite numbers") from None
        if (date, ticker) in cells:
            raise DataError(f"{path}:{lineno}: duplicate cell ({date}, {ticker})")
        cells[(date, ticker)] = (score, ret)
    dates = sorted({d for d, _ in cells})
    tickers = sorted({t for _, t in cells})
    if len(cells) != len(dates) * len(tickers):
        d, t = next((d, t) for d in dates for t in tickers if (d, t) not in cells)
        raise DataError(f"{path}: missing cell for ({d}, {t}); the grid must be full")
    scores = np.array([[cells[(d, t)][0] for t in tickers] for d in dates])
    returns = np.array([[cells[(d, t)][1] for t in tickers] for d in dates])
    return PredictionPanel(dates, tickers, scores, returns)


def _record_key(r: StockRecord):
    return (r.ticker, r.dates, r.close.dtype.str, r.close.tobytes(), type(r.industry_id),
            r.industry_id, r.board, r.exclude, r.notes)


def _panel_key(p: PredictionPanel):
    return (p.dates, p.tickers, p.scores.shape, p.scores.tobytes(), p.returns.tobytes())


def _outcome(read, key, path):
    """What ``read`` makes of ``path``: its result's bytes, or its error's message."""
    try:
        result = read(path)
    except DataError as exc:
        return "error", str(exc)
    return "ok", [key(r) for r in result] if isinstance(result, list) else key(result)


# --- generated files: shuffled, padded, quoted, blank rows of every kind, CRLF ---------------

TICKERS = ["600000", "000001", "002230", "300750", "688111", "830799", "870436"]
DAYS = trading_days("2021-01-04", 8)
BLANKS = ["", "   ", "\t", ",,,", " , , , ", ", ,"]
NUMBERS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(repr)
# each injected fault is one cell, so both readers must name the same line and reason
CLOSE_FAULTS = ["x", "-3.0", "0", "nan", "inf", "1e400"]
INDUSTRY_FAULTS = ["1.5", "x", "-1", "124", "99999999999999999999"]
PANEL_FAULTS = ["x", "nan", "inf", "1e400", ""]


@st.composite
def _cell(draw, text: str) -> str:
    pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
    cell = pad + text + draw(st.sampled_from(["", " ", "\t "]))
    if draw(st.booleans()):  # a quoted cell: the quotes go, the padding inside them stays
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def _csv_text(draw, header: list[str], rows: list[list[str]]) -> str:
    rows = draw(st.permutations(rows))
    lines = [",".join(draw(_cell(h)) if draw(st.booleans()) else h for h in header)]
    for row in rows:
        lines.extend(draw(st.lists(st.sampled_from(BLANKS), max_size=2)))
        lines.append(",".join(draw(_cell(c)) for c in row))
    lines.extend(draw(st.lists(st.sampled_from(BLANKS), max_size=2)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@st.composite
def close_files(draw) -> str:
    tickers = draw(st.lists(st.sampled_from(TICKERS), min_size=1, max_size=4, unique=True))
    rows = []
    for ticker in tickers:
        for day in draw(st.lists(st.sampled_from(DAYS), min_size=1, max_size=6, unique=True)):
            price = draw(st.floats(min_value=1e-3, max_value=1e5).map(repr) | st.just(""))
            rows.append([day, ticker, price, str(draw(st.integers(0, 123)))])
    if draw(st.booleans()):  # one bad cell, or a repeated date
        i = draw(st.integers(0, len(rows) - 1))
        col = draw(st.sampled_from([0, 1, 2, 3, 4]))
        if col == 4:
            rows.append(list(rows[i]))
        else:
            faults = {0: [""], 1: [""], 2: CLOSE_FAULTS, 3: INDUSTRY_FAULTS}[col]
            rows[i][col] = draw(st.sampled_from(faults))
    return draw(_csv_text(CLOSE_HEADER, rows))


@st.composite
def panel_files(draw) -> str:
    tickers = draw(st.lists(st.sampled_from(TICKERS), min_size=1, max_size=4, unique=True))
    days = draw(st.lists(st.sampled_from(DAYS), min_size=1, max_size=5, unique=True))
    rows = [[d, t, draw(NUMBERS), draw(NUMBERS)] for d in days for t in tickers]
    fault = draw(st.sampled_from(["none", "cell", "duplicate", "missing"]))
    i = draw(st.integers(0, len(rows) - 1))
    if fault == "cell":
        rows[i][draw(st.sampled_from([0, 1, 2, 3]))] = draw(st.sampled_from(PANEL_FAULTS))
    elif fault == "duplicate":
        rows.append([*rows[i][:2], draw(NUMBERS), draw(NUMBERS)])
    elif fault == "missing" and len(rows) > 1:
        del rows[i]
    return draw(_csv_text(PANEL_HEADER, rows))


@settings(max_examples=150, deadline=None)
@given(text=close_files())
def test_read_close_csv_matches_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("close") / "prices.csv"
    path.write_bytes(text.encode())
    want = _outcome(reference_close_csv, _record_key, path)
    assert _outcome(read_close_csv, _record_key, path) == want


@settings(max_examples=150, deadline=None)
@given(text=panel_files())
def test_read_panel_csv_matches_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_bytes(text.encode())
    want = _outcome(reference_panel_csv, _panel_key, path)
    assert _outcome(read_panel_csv, _panel_key, path) == want


# --- the line each fault names, far into a file -----------------------------------------------

N_GOOD = 1200  # good rows before each fault, so the line is found past the start


def _close_rows(n: int = N_GOOD) -> list[str]:
    days = trading_days("2015-01-05", n // 4)
    return [f"{d},{t},{10.0 + i % 7},{i % 5}"
            for i, d in enumerate(days) for t in ("600000", "000001", "300750", "688111")]


def _panel_rows(n_days: int = N_GOOD // 4) -> list[str]:
    days = trading_days("2015-01-05", n_days)
    return [f"{d},{t},{(i * 7 + j) % 11 / 10},{j / 100}"
            for i, d in enumerate(days) for j, t in enumerate(("A", "B", "C", "D"))]


def _write(path, header: list[str], rows: list[str]) -> None:
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n")


def _error(read, path) -> str:
    """``read``'s error on ``path``, which must be the reference reader's error too."""
    reference, key = {read_close_csv: (reference_close_csv, _record_key),
                      read_panel_csv: (reference_panel_csv, _panel_key)}[read]
    with pytest.raises(DataError) as info:
        read(path)
    assert ("error", str(info.value)) == _outcome(reference, key, path)
    return str(info.value)


@pytest.mark.parametrize("row,reason", [
    ("2030-01-02,600000,abc,1", "close 'abc' is not a number"),
    ("2030-01-02,600000,-3.0,1", "close must be positive, got -3.0"),
    ("2030-01-02,600000,0,1", "close must be positive, got 0"),
    ("2030-01-02,600000,nan,1", "close must be positive, got nan"),
    ("2030-01-02,600000,1e400,1", "close must be positive, got 1e400"),
    ("2030-01-02,600000,3.0,x", "industry_id 'x' is not an integer"),
    ("2030-01-02,600000,3.0,2.0", "industry_id '2.0' is not an integer"),
    ("2030-01-02,600000,3.0,124", r"industry_id 124 outside \[0, 124\)"),
    ("2030-01-02,600000,3.0,-1", r"industry_id -1 outside \[0, 124\)"),
    ("2030-01-02,600000,3.0,99999999999999999999",
     r"industry_id 99999999999999999999 outside \[0, 124\)"),
    (",600000,3.0,1", "empty date or ticker"),
    ("2030-01-02, ,3.0,1", "empty date or ticker"),
    ("2030-01-02,600000,3.0", "expected 4 fields, got 3"),
    ("2030-01-02,600000,3.0,1,1", "expected 4 fields, got 5"),
])
def test_close_csv_names_the_line_of_a_fault_far_into_the_file(tmp_path, row, reason):
    rows = _close_rows()
    rows.insert(1000, row)
    p = tmp_path / "prices.csv"
    _write(p, CLOSE_HEADER, rows + ["2030-01-03,600000,4.0,1"])
    assert re.fullmatch(f"{re.escape(str(p))}:1002: {reason}", _error(read_close_csv, p))


@pytest.mark.parametrize("row,reason", [
    ("2030-01-02,A,x,0.0", "score and return must be finite numbers"),
    ("2030-01-02,A,0.1,nan", "score and return must be finite numbers"),
    ("2030-01-02,A,1e400,0.0", "score and return must be finite numbers"),
    ("2030-01-02,A,0.1,-inf", "score and return must be finite numbers"),
    ("2030-01-02,A,0.1,", "score and return must be finite numbers"),
    ("2030-01-02,,0.1,0.0", "empty date or ticker"),
    (" ,A,0.1,0.0", "empty date or ticker"),
    ("2030-01-02,A,0.1", "expected 4 fields, got 3"),
    ("2015-01-05,A,0.9,0.9", re.escape("duplicate cell (2015-01-05, A)")),
])
def test_panel_csv_names_the_line_of_a_fault_far_into_the_file(tmp_path, row, reason):
    rows = _panel_rows()
    rows.insert(1000, row)
    p = tmp_path / "panel.csv"
    _write(p, PANEL_HEADER, rows)
    assert re.fullmatch(f"{re.escape(str(p))}:1002: {reason}", _error(read_panel_csv, p))


def test_a_blank_row_keeps_the_lines_after_it_counted(tmp_path):
    rows = _panel_rows()
    rows[10:10] = ["", " , , , ", ",,,", "  "]
    rows.insert(1000, "2030-01-02,A,x,0.0")
    p = tmp_path / "panel.csv"
    _write(p, PANEL_HEADER, rows)
    assert _error(read_panel_csv, p).startswith(f"{p}:1002: ")


def test_a_missing_panel_cell_is_the_first_in_sorted_order(tmp_path):
    days = trading_days("2015-01-05", N_GOOD // 4)
    rows = _panel_rows()
    del rows[299 * 4 + 2], rows[100 * 4 + 3]  # (day 299, C) and (day 100, D)
    p = tmp_path / "panel.csv"
    _write(p, PANEL_HEADER, rows[::-1])  # the file order is the reverse of the sorted order
    want = f"{p}: missing cell for ({days[100]}, D); the grid must be full"
    assert _error(read_panel_csv, p) == want


def test_the_file_and_each_rows_shape_are_checked_before_any_cells_value(tmp_path):
    # The whole file is decoded, and every row's field count and keys checked, before the
    # cells' values: a later bad byte or row of the wrong shape is named before an earlier
    # bad number.
    p = tmp_path / "prices.csv"
    for shape, reason in (("2030-01-02,600000,3.0", "expected 4 fields, got 3"),
                          (",600000,3.0,1", "empty date or ticker")):
        rows = _close_rows()
        rows[500] = "2015-06-01,600000,abc,1"
        rows.insert(1000, shape)
        _write(p, CLOSE_HEADER, rows)
        assert str(pytest.raises(DataError, read_close_csv, p).value) == f"{p}:1002: {reason}"
    rows = _close_rows()
    rows[500] = "2015-06-01,600000,abc,1"
    _write(p, CLOSE_HEADER, rows)
    p.write_bytes(p.read_bytes() + b"2030-01-02,600000,\xff,1\n")
    message = str(pytest.raises(DataError, read_close_csv, p).value)
    assert message.startswith(f"cannot read close CSV {p}: ") and "decode" in message
    p = tmp_path / "panel.csv"
    rows = _panel_rows()
    rows[500] = rows[500].rsplit(",", 1)[0] + ",inf"
    rows.insert(1000, "2030-01-02,A,0.1")
    _write(p, PANEL_HEADER, rows)
    assert str(pytest.raises(DataError, read_panel_csv, p).value) == (
        f"{p}:1002: expected 4 fields, got 3"
    )
    # among rows of the right shape the first bad one in the file is named, as before
    rows = _panel_rows()
    rows[500] = rows[500].rsplit(",", 1)[0] + ",inf"
    rows.insert(1000, rows[0])
    _write(p, PANEL_HEADER, rows)
    assert _error(read_panel_csv, p) == f"{p}:502: score and return must be finite numbers"


def test_industry_comes_from_the_latest_dated_row_wherever_it_sits(tmp_path):
    p = tmp_path / "prices.csv"
    p.write_text(
        "date,ticker,close,industry_id\n"
        "2021-01-08,600000,3.3,42\n"  # the latest date, first in the file
        "2021-01-04,600000,3.0,7\n"
        "2021-01-06,600000,3.2,7\n"
        "2021-01-05,600000,3.1,9\n"
    )
    (record,) = read_close_csv(p)
    assert record.industry_id == 42
    assert record.dates == ["2021-01-04", "2021-01-05", "2021-01-06", "2021-01-08"]
    assert record.close.tolist() == [3.0, 3.1, 3.2, 3.3]
