"""Ingest, repair, windowing, normalization, and store formats for daily closes.

Input is a long-format CSV of daily closing prices (date, ticker, close,
industry_id) where an empty close marks a suspension day.  The pipeline per
ticker: classify its listing board from the ticker prefix, repair suspension
gaps (short ones by linear interpolation, long ones by forward fill, with the
record excluded from training when gaps are too frequent or too long), drop
the post-IPO head, cut sliding windows, and z-score each window's log prices.
Windows are stored as JSON lines together with the normalization statistics
needed to invert them.

Dates are ISO `YYYY-MM-DD` strings ordered lexicographically, which for ISO
dates is chronological order; the module never parses them into date objects.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import operator
import os
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParameterError, check_int

__all__ = [
    "Board",
    "classify_board",
    "StockRecord",
    "repair_suspensions",
    "drop_ipo_head",
    "SeriesWindow",
    "normalize_window",
    "denormalize_window",
    "make_windows",
    "split_train_test",
    "read_close_csv",
    "prepare_windows",
    "write_window_store",
    "read_window_store",
]

STD_FLOOR = 1e-8
_CHUNK = 16_384  # CSV rows whose number cells are parsed together before their text is dropped


class Board(enum.IntEnum):
    """Listing board; the integer value is the slot in the condition one-hot.

    The ST slot is reserved for specially-treated stocks, which are marked by
    exchange flags rather than ticker prefix, so ``classify_board`` never
    produces it; the slot exists so the one-hot width matches datasets where
    the flag is available.
    """

    MAIN = 0
    CHINEXT = 1
    STAR = 2
    BSE = 3
    ST = 4


# Longest prefixes first so e.g. "688..." is tested before any 2-digit rule.
_BOARD_PREFIXES: tuple[tuple[str, Board], ...] = (
    ("688", Board.STAR),
    ("002", Board.MAIN),
    ("000", Board.MAIN),
    ("30", Board.CHINEXT),
    ("60", Board.MAIN),
    ("83", Board.BSE),
    ("87", Board.BSE),
    ("88", Board.BSE),
)


def classify_board(ticker: str) -> Board:
    """Listing board from the ticker's numeric prefix; unknown prefixes are errors."""
    if not ticker or not ticker.isdigit():
        raise DataError(f"ticker {ticker!r} is not a numeric code")
    for prefix, board in _BOARD_PREFIXES:
        if ticker.startswith(prefix):
            return board
    raise DataError(f"ticker {ticker!r} has no known board prefix")


@dataclass
class StockRecord:
    """One ticker's daily closes; NaN entries mark suspension days.

    ``exclude`` flags a record that must not contribute training windows;
    ``notes`` records why, plus any repair actions taken.
    """

    ticker: str
    dates: list[str]
    close: np.ndarray
    industry_id: int
    board: Board
    exclude: bool = False
    notes: list[str] = field(default_factory=list)
    n_interpolated_gaps: int = 0
    n_forward_filled_gaps: int = 0

    def __post_init__(self) -> None:
        self.close = np.asarray(self.close, dtype=np.float64)
        if self.close.ndim != 1 or len(self.dates) != self.close.shape[0]:
            raise DataError(
                f"record {self.ticker}: dates and closes must be equal-length 1-D"
            )
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            raise DataError(f"record {self.ticker}: dates must be strictly increasing")
        where = f" in record {self.ticker}"
        self.industry_id = check_int(self.industry_id, "industry_id", 0, where=where)
        if type(self.board) is not Board:
            self.board = Board(check_int(self.board, "board", 0, len(Board), where=where))

    def __len__(self) -> int:
        return self.close.shape[0]


def _nan_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as half-open (start, stop) index pairs."""
    # with a False on each side, the mask flips at every start and every stop
    edges = np.flatnonzero(np.diff(np.pad(mask, 1))).tolist()
    return list(zip(edges[0::2], edges[1::2]))


def repair_suspensions(
    record: StockRecord,
    max_interp_gap: int = 5,
    max_long_gaps: int = 3,
    max_gap_days: int = 60,
) -> StockRecord:
    """Fill suspension gaps and flag records too broken to train on.

    Interior gaps of at most ``max_interp_gap`` days are linearly
    interpolated between the bracketing closes; longer interior gaps are
    forward-filled from the last close before the gap.  Rows before the first
    present close are dropped (there is nothing to fill from), and a trailing
    gap is forward-filled since it has no right bracket.  The record is
    marked exclude-from-training when more than ``max_long_gaps`` gaps
    exceeded ``max_interp_gap`` days or any gap exceeded ``max_gap_days``.
    Present closes are never altered.  Needs at least 2 present closes.
    """
    check_int(max_interp_gap, "max_interp_gap", 1)
    check_int(max_long_gaps, "max_long_gaps", 0)
    check_int(max_gap_days, "max_gap_days", 1)
    close = record.close.copy()
    missing = ~np.isfinite(close)
    if int(np.sum(~missing)) < 2:
        raise DataError(f"record {record.ticker}: fewer than 2 present closes")

    dates = list(record.dates)
    notes = list(record.notes)
    first_present = int(np.argmin(missing))  # first False
    if missing[0]:
        notes.append(f"dropped {first_present} leading rows with no close")
        close = close[first_present:]
        dates = dates[first_present:]
        missing = missing[first_present:]

    n_interp = record.n_interpolated_gaps
    n_ffill = record.n_forward_filled_gaps
    n_long = 0
    longest = 0
    for start, stop in _nan_runs(missing):
        gap = stop - start
        longest = max(longest, gap)
        if gap > max_interp_gap:
            n_long += 1
        # a trailing suspension has no right bracket: forward fill regardless of length
        trailing = "trailing " if stop == close.shape[0] else ""
        if gap <= max_interp_gap and not trailing:
            left = close[start - 1]
            right = close[stop]
            steps = np.arange(1, gap + 1, dtype=np.float64) / (gap + 1)
            close[start:stop] = left + steps * (right - left)
            n_interp += 1
            notes.append(f"interpolated gap of {gap} days at {dates[start]}")
        else:
            close[start:stop] = close[start - 1]
            n_ffill += 1
            notes.append(f"forward-filled {trailing}gap of {gap} days at {dates[start]}")

    exclude = record.exclude
    if n_long > max_long_gaps:
        exclude = True
        notes.append(f"excluded: {n_long} gaps longer than {max_interp_gap} days")
    if longest > max_gap_days:
        exclude = True
        notes.append(f"excluded: a gap of {longest} days exceeds {max_gap_days}")
    return replace(
        record,
        dates=dates,
        close=close,
        exclude=exclude,
        notes=notes,
        n_interpolated_gaps=n_interp,
        n_forward_filled_gaps=n_ffill,
    )


def drop_ipo_head(record: StockRecord, n_days: int = 5) -> StockRecord:
    """Remove the first ``n_days`` rows (the post-listing price-discovery period).

    A record with no rows left is returned empty and marked unusable.
    """
    check_int(n_days, "n_days", 0)
    if len(record) <= n_days:
        return replace(
            record,
            dates=[],
            close=np.empty(0, dtype=np.float64),
            exclude=True,
            notes=list(record.notes) + [f"unusable: {len(record)} rows <= ipo head {n_days}"],
        )
    return replace(record, dates=record.dates[n_days:], close=record.close[n_days:])


@dataclass
class SeriesWindow:
    """One normalized training window plus everything needed to invert it."""

    ticker: str
    start_date: str
    values: np.ndarray
    mean: float
    scale: float
    industry_id: int
    board: Board
    synthetic: bool = False

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise DataError("window values must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"window {self.ticker}@{self.start_date} has non-finite values")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DataError(f"window scale must be positive, got {self.scale}")
        if not math.isfinite(self.mean):
            raise DataError(f"window mean must be finite, got {self.mean}")
        self.industry_id = check_int(self.industry_id, "industry_id", 0)
        if type(self.board) is not Board:  # a Board member needs no check, and Board() is slow
            self.board = Board(check_int(self.board, "board", 0, len(Board)))

    @property
    def condition(self) -> tuple[int, int]:
        return self.industry_id, int(self.board)


def normalize_window(raw_closes: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Z-score the log prices of one (L,) window, or of each row of an (n, L) stack.

    Returns (values, (mean, scale)): the average log price and the population
    standard deviation floored at ``STD_FLOOR`` (a constant window maps to zeros),
    as floats for a window and as (n,) arrays, bit-equal to row calls, for a stack.
    """
    raw = np.asarray(raw_closes, dtype=np.float64)
    if raw.ndim not in (1, 2) or raw.size == 0:
        raise DataError("window must be a non-empty 1-D array")
    if not np.all(np.isfinite(raw)) or np.any(raw <= 0.0):
        raise DataError("window closes must be finite and positive")
    logs = np.log(raw)
    mu = logs.mean(axis=-1, keepdims=True)
    scale = np.maximum(logs.std(axis=-1, keepdims=True), STD_FLOOR)
    stats = (float(mu[0]), float(scale[0])) if raw.ndim == 1 else (mu[:, 0], scale[:, 0])
    return (logs - mu) / scale, stats


def denormalize_window(values: np.ndarray, stats: tuple) -> np.ndarray:
    """Invert ``normalize_window``: exp(values * scale + mean), per row for a stack."""
    values = np.asarray(values, dtype=np.float64)
    mu, scale = (np.asarray(s, dtype=np.float64) for s in stats)
    if mu.shape != scale.shape or mu.ndim and mu.shape != values.shape[:-1]:
        raise ParameterError(f"stats of shapes {mu.shape} and {scale.shape} do not fit "
                             f"windows of shape {values.shape}")
    bad = np.flatnonzero(~((scale > 0.0) & np.isfinite(scale) & np.isfinite(mu)))
    if bad.size:
        at = f" at row {bad[0]}" if mu.ndim else ""
        raise ParameterError(
            f"bad normalization stats ({mu.flat[bad[0]]}, {scale.flat[bad[0]]}){at}")
    if mu.ndim:  # one (mean, scale) pair per row of the stack
        mu, scale = mu[..., None], scale[..., None]
    return np.exp(values * scale + mu)


def make_windows(record: StockRecord, length: int = 60, step: int = 20) -> list[SeriesWindow]:
    """Sliding windows at a fixed stride; count = (n - length) // step + 1."""
    check_int(length, "length", 2)
    check_int(step, "step", 1)
    if len(record) < length:
        raise DataError(
            f"record {record.ticker}: {len(record)} rows are fewer than the window length {length}"
        )
    if not np.all(np.isfinite(record.close)):
        raise DataError(f"record {record.ticker}: unrepaired gaps remain")
    values, (mu, scale) = normalize_window(sliding_window_view(record.close, length)[::step])
    # zip stops at the last window; dates[::step] may run past it
    return [
        SeriesWindow(record.ticker, date, row, m, s, record.industry_id, record.board)
        for date, row, m, s in zip(record.dates[::step], values, mu.tolist(), scale.tolist())
    ]


def split_train_test(
    windows: list[SeriesWindow],
    train_fraction: float = 0.8,
) -> tuple[list[SeriesWindow], list[SeriesWindow]]:
    """Chronological per-ticker split: the earliest ceil(fraction * n) windows train.

    The test split is strictly later than the train split within each ticker,
    so no lookahead leaks across the boundary, and the split is deterministic.
    Output lists are ordered by (ticker, start_date).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    by_ticker: dict[str, list[SeriesWindow]] = {}
    for w in windows:
        by_ticker.setdefault(w.ticker, []).append(w)
    train: list[SeriesWindow] = []
    test: list[SeriesWindow] = []
    for ticker in sorted(by_ticker):
        group = sorted(by_ticker[ticker], key=lambda w: w.start_date)
        n_train = math.ceil(train_fraction * len(group))
        train.extend(group[:n_train])
        test.extend(group[n_train:])
    return train, test


def _numbers(convert, cells: list[str], dtype, reject) -> np.ndarray:
    """``convert`` of each cell as one array, ``reject`` where it raises."""
    try:
        return np.fromiter(map(convert, cells), dtype, len(cells))
    except (ValueError, OverflowError):  # a cell that does not parse: the chunk a cell at a time
        out = np.full(len(cells), reject, dtype)
        for i, cell in enumerate(cells):
            with suppress(ValueError, OverflowError):
                out[i] = convert(cell)
        return out


def _csv_columns(path: Path, header: list[str], what: str, parse) -> tuple:
    """One pass over a 4-column CSV: ``lines, (dates, codes), (tickers, codes), numbers, bad, held``.

    Dates and tickers are sorted distinct stripped values and each row's index into them.  The
    other two columns are parsed per ``_CHUNK`` rows as they stream in: ``parse(cells3, cells4)``
    gives a chunk's number arrays and a mask of the rows breaking a rule, which must flag a row
    with both cells empty.  Only flagged rows keep their text: ``held`` maps each one's line to
    its two cells.  Blank rows are skipped and ``lines`` numbers the rest.  Raises DataError for
    an unreadable or empty file, a header other than ``header``, no data rows, and the first row
    without 4 fields or with an empty date or ticker, naming its line, before any number rule.
    """
    keys: tuple[list[str], ...] = ([], [])
    memos: tuple[dict[str, str], ...] = ({}, {})  # one string per distinct date and ticker
    chunks, held, short = [], {}, None
    with _reading(path, what) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: file is empty")
        if [h.strip() for h in first] != header:
            raise DataError(f"{path}: expected header {','.join(header)}")
        add_d, add_t = (k.append for k in keys)
        key_d, key_t = (m.setdefault for m in memos)
        while short is None and len(keys[0]) == _CHUNK * len(chunks):  # until a short chunk
            add_x, add_y = (xs := []).append, (ys := []).append
            for row in islice(reader, _CHUNK):
                if len(row) != 4:
                    if "".join(row).strip():  # named once the keys of the rows before it pass
                        short = len(row)
                        break
                    row = ["", "", "", ""]  # a blank row keeps its place: index + 2 is the line
                d, t, x, y = row
                add_d(key_d(d, d)), add_t(key_t(t, t)), add_x(x), add_y(y)
            chunks.append(parse(xs, ys))
            line = len(keys[0]) - len(xs) + 2
            held.update((line + i, (xs[i], ys[i])) for i in np.flatnonzero(chunks[-1][-1]).tolist())
    codes = []
    for memo, col in zip(memos, keys):
        index = {name: i for i, name in enumerate(sorted({raw.strip() for raw in memo} - {""}))}
        lookup = {raw: index.get(raw.strip(), -1) for raw in memo}  # -1: an empty key
        codes.append((list(index), np.fromiter(map(lookup.__getitem__, col), np.intp, len(col))))
        col.clear()  # its strings go before the next column's codes are made
    (dates, d_code), (tickers, t_code) = codes
    for i in np.flatnonzero((d_code < 0) | (t_code < 0)).tolist():  # an unflagged row is not blank
        if d_code[i] >= 0 or t_code[i] >= 0 or "".join(held.get(i + 2, "?")).strip():
            raise DataError(f"{path}:{i + 2}: empty date or ticker")
    if short is not None:
        raise DataError(f"{path}:{len(d_code) + 2}: expected 4 fields, got {short}")
    keep = d_code >= 0  # every row with an empty key is blank by now
    lines = np.flatnonzero(keep) + 2
    if not lines.size:
        raise DataError(f"{path}: no data rows")
    *numbers, bad = (np.concatenate(c) for c in zip(*chunks))
    if not keep.all():  # drop the blank rows
        d_code, t_code, bad, *numbers = (a[keep] for a in (d_code, t_code, bad, *numbers))
    return lines, (dates, d_code), (tickers, t_code), numbers, bad, held


def read_close_csv(path: str | Path, n_industries: int = 124) -> list[StockRecord]:
    """Parse the long-format close CSV into per-ticker records.

    Rows may arrive in any order; they are grouped by ticker and sorted by date.  An empty
    close field marks a suspension day.  A ticker's industry is the one on its latest-dated
    row, wherever that row sits in the file (reclassifications apply retroactively).
    Malformed rows raise line-numbered errors.
    """
    path = Path(path)

    def parse(close_s: list[str], industry_s: list[str]) -> tuple:
        close = _numbers(float, [c or "nan" for c in close_s], np.float64, math.nan)
        industry = _numbers(int, industry_s, np.int64, -1)
        bad = (industry < 0) | (industry >= n_industries)
        for i in np.flatnonzero(~(np.isfinite(close) & (close > 0.0))).tolist():
            bad[i] |= bool(close_s[i].strip())  # an empty close marks a suspension day
        return close, industry, bad

    lines, (dates, d_code), (tickers, t_code), (close, industry), bad, held = _csv_columns(
        path, ["date", "ticker", "close", "industry_id"], "close CSV", parse
    )
    for i in np.flatnonzero(bad).tolist():  # stops at the first bad row
        at, (cell, ind) = f"{path}:{lines[i]}", map(str.strip, held[lines[i]])
        try:
            value = float(cell) if cell else 1.0
        except ValueError:
            raise DataError(f"{at}: close {cell!r} is not a number") from None
        if not (math.isfinite(value) and value > 0.0):
            raise DataError(f"{at}: close must be positive, got {cell}")
        try:
            industry_i = int(ind)
        except ValueError:
            raise DataError(f"{at}: industry_id {ind!r} is not an integer") from None
        if not 0 <= industry_i < n_industries:
            raise DataError(f"{at}: industry_id {industry_i} outside [0, {n_industries})")
    order = np.lexsort((d_code, t_code))
    d_code, t_code, close, industry = d_code[order], t_code[order], close[order], industry[order]
    repeat = np.r_[False, (d_code[1:] == d_code[:-1]) & (t_code[1:] == t_code[:-1])]
    bounds = np.searchsorted(t_code, np.arange(len(tickers) + 1)).tolist()
    day = np.array(dates, dtype=object)
    records: list[StockRecord] = []
    for ticker, a, b in zip(tickers, bounds, bounds[1:]):
        if repeat[a:b].any():  # name a few, so one bad ticker cannot flood the message
            dupes = day[np.unique(d_code[a:b][repeat[a:b]])].tolist()
            raise DataError(f"{path}: ticker {ticker} has {len(dupes)} duplicate dates, "
                            f"first {', '.join(dupes[:5])}")
        dates_j, industry_j = day[d_code[a:b]].tolist(), int(industry[b - 1])
        records.append(StockRecord(ticker, dates_j, close[a:b], industry_j, classify_board(ticker)))
    return records


def prepare_windows(
    records: list[StockRecord],
    length: int = 60,
    step: int = 20,
    ipo_head_days: int = 5,
    max_interp_gap: int = 5,
    max_long_gaps: int = 3,
    max_gap_days: int = 60,
) -> tuple[list[SeriesWindow], dict]:
    """Repair, trim, and window every record; returns (windows, report).

    Records flagged by the repair rules or too short to window are skipped
    and listed in the report with their reasons.
    """
    windows: list[SeriesWindow] = []
    skipped: list[dict] = []
    n_interp = n_ffill = 0
    for record in sorted(records, key=lambda r: r.ticker):
        repaired = repair_suspensions(
            record,
            max_interp_gap=max_interp_gap,
            max_long_gaps=max_long_gaps,
            max_gap_days=max_gap_days,
        )
        n_interp += repaired.n_interpolated_gaps
        n_ffill += repaired.n_forward_filled_gaps
        trimmed = drop_ipo_head(repaired, ipo_head_days)
        if trimmed.exclude:
            skipped.append({"ticker": record.ticker, "reasons": trimmed.notes})
            continue
        if len(trimmed) < length:
            skipped.append(
                {
                    "ticker": record.ticker,
                    "reasons": [f"too short: {len(trimmed)} rows < window length {length}"],
                }
            )
            continue
        windows.extend(make_windows(trimmed, length=length, step=step))

    report = {
        "n_records": len(records),
        "n_skipped_records": len(skipped),
        "skipped": skipped,
        "n_windows": len(windows),
        "windows_per_board": dict(Counter(w.board.name for w in windows)),
        "windows_per_industry": dict(Counter(str(w.industry_id) for w in windows)),
        "gaps": {"interpolated": n_interp, "forward_filled": n_ffill},
    }
    return windows, report


def _window_line(w: SeriesWindow) -> str:
    return json.dumps({
        "ticker": w.ticker,
        "start_date": w.start_date,
        "values": w.values.tolist(),
        "mean": float(w.mean),
        "scale": float(w.scale),
        "industry_id": int(w.industry_id),
        "board": w.board.name,
        "synthetic": bool(w.synthetic),
    }, sort_keys=True) + "\n"


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file opened on a sibling temporary that replaces ``path`` on success.

    The directory is made here, so it appears with its first file.  If the
    write fails the temporary and the directories made here are removed and
    ``path`` is left as it was, so a reader never sees a half-written file and
    a failed run leaves no new directory; an ``OSError`` is a DataError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]  # deepest first
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:  # a failed write's new directories go; after a success the first rmdir fails
        with suppress(OSError):
            for d in made:
                d.rmdir()


@contextmanager
def _reading(path: str | Path, what: str, errors: str = "strict") -> Iterator[TextIO]:
    """``path`` open for streaming; a failed open or decode, even mid-read, is a DataError."""
    try:
        with open(path, encoding="utf-8", errors=errors) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise DataError(f"cannot read {what} {path}: {reason}") from exc


def _read_json(path: str | Path, what: str) -> dict:
    """The JSON object stored at ``path``, or a DataError naming ``what`` and the path."""
    try:  # whole-file read, parsed after close; parsing inside _reading ran slower
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise DataError(f"cannot read {what} {path}: {reason}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{what} {path} does not hold a JSON object")
    return obj


def write_window_store(windows: list[SeriesWindow], path: str | Path) -> None:
    """Write windows as JSON lines, one object per window, in the given order.

    The store is replaced whole: a failed write leaves the old file intact.
    """
    with _replacing(path) as fh:
        for w in windows:
            fh.write(_window_line(w))


def _store_lines(path: str | Path, length: int, n_industries: int
                 ) -> Iterator[tuple[str, SeriesWindow]]:
    """Each non-blank store line, stripped, and its window, checked as they are read."""
    empty = True
    with _reading(path, "window store") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                ticker, start, iid = obj["ticker"], obj["start_date"], obj["industry_id"]
                values, synthetic = np.asarray(obj["values"]), obj.get("synthetic", False)
                if (
                    (type(ticker), type(start), type(synthetic)) != (str, str, bool)
                    or not {type(obj["mean"]), type(obj["scale"])} <= {int, float}
                    or values.dtype.kind not in "if"
                ):
                    raise TypeError("ticker and start_date must be strings, mean, scale and "
                                    "values numbers and synthetic true or false")
                mean, scale, board = float(obj["mean"]), float(obj["scale"]), Board[obj["board"]]
                w = SeriesWindow(ticker, start, values, mean, scale, iid, board, synthetic)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: malformed window record: {exc}") from exc
            if w.values.size != length or w.industry_id >= n_industries:  # SeriesWindow: id >= 0
                raise DataError(
                    f"{path}:{lineno}: window of length {w.values.size} and industry_id "
                    f"{w.industry_id}; expected {length} and an id in [0, {n_industries})"
                )
            yield line, w
            empty = False
    if empty:
        raise DataError(f"window store {path} is empty")


def read_window_store(path: str | Path, length: int, n_industries: int) -> list[SeriesWindow]:
    """Read a JSON-lines window store; malformed lines raise line-numbered errors,
    as do windows not ``length`` long or with an industry id outside ``[0, n_industries)``."""
    return [w for _, w in _store_lines(path, length, n_industries)]
