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

import copy
import csv
import enum
import json
import math
import operator
import os
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParameterError, _shown, check_array, check_int, check_real

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
        raise DataError(f"ticker {_shown(ticker, repr)} is not a numeric code")
    for prefix, board in _BOARD_PREFIXES:
        if ticker.startswith(prefix):
            return board
    raise DataError(f"ticker {_shown(ticker, repr)} has no known board prefix")


def _check_types(*fields: tuple[str, object, type]) -> None:
    """A DataError naming the first (name, value, kind) field whose value is not a ``kind``; the
    entries of a ``list`` field must be str, and the first that is not is named by its index."""
    for name, value, kind in fields:
        if not isinstance(value, kind):
            raise DataError(f"{name} of type {type(value).__name__} is not {kind.__name__}")
        if kind is list and not all(map(isinstance, value, repeat(str))):
            _check_types(*((f"{name}[{i}]", v, str) for i, v in enumerate(value)))


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
        _check_types(("ticker", self.ticker, str), ("dates", self.dates, list),
                     ("exclude", self.exclude, bool), ("notes", self.notes, list))
        self.close = check_array(self.close, "close", ndim=(1,), last=len(self.dates), error=DataError)
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            raise DataError(f"record {_shown(self.ticker)}: dates must be strictly increasing")
        where = f" in record {_shown(self.ticker)}"
        self.industry_id = check_int(self.industry_id, "industry_id", 0, where=where)
        for name in ("n_interpolated_gaps", "n_forward_filled_gaps"):
            setattr(self, name, check_int(getattr(self, name), name, 0, where=where))
        if type(self.board) is not Board:
            self.board = Board(check_int(self.board, "board", 0, len(Board), where=where))

    def __len__(self) -> int:
        return self.close.shape[0]


def _nan_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as half-open (start, stop) index pairs."""
    # with a False on each side, the mask flips at every start and every stop
    edges = np.flatnonzero(np.diff(np.pad(mask, 1))).tolist()
    return list(zip(edges[0::2], edges[1::2]))


def _derived(record: StockRecord, dates: list[str], close: np.ndarray) -> StockRecord:
    """A shallow copy of ``record`` owning its notes; a suffix of checked rows needs no check."""
    out = copy.copy(record)
    out.dates, out.close, out.notes = dates, close, list(record.notes)
    return out


def repair_suspensions(
    record: StockRecord,
    max_interp_gap: int = 5,
    max_long_gaps: int = 3,
    max_gap_days: int = 60,
) -> StockRecord:
    """Fill suspension gaps and flag records too broken to train on.

    Interior gaps of at most ``max_interp_gap`` days are linearly interpolated between the
    bracketing closes; longer interior gaps are forward-filled from the last close before the
    gap.  Rows before the first present close are dropped (there is nothing to fill from), and a
    trailing gap is forward-filled since it has no right bracket.  The record is marked
    exclude-from-training when more than ``max_long_gaps`` gaps exceeded ``max_interp_gap`` days
    or any gap exceeded ``max_gap_days``.  Needs at least 2 present closes.  Returns an edited
    copy: ``record`` and its present closes are never altered.
    """
    check_int(max_interp_gap, "max_interp_gap", 1)
    check_int(max_long_gaps, "max_long_gaps", 0)
    check_int(max_gap_days, "max_gap_days", 1)
    missing = ~np.isfinite(record.close)
    if int(np.sum(~missing)) < 2:
        raise DataError(f"record {_shown(record.ticker)}: fewer than 2 present closes")

    lead = int(np.argmin(missing))  # the first present close
    out = _derived(record, record.dates[lead:], record.close[lead:].copy())
    close, missing = out.close, missing[lead:]
    if lead:
        out.notes.append(f"dropped {lead} leading rows with no close")

    n_long = longest = 0
    for start, stop in _nan_runs(missing):
        gap = stop - start
        longest = max(longest, gap)
        n_long += gap > max_interp_gap
        # a trailing suspension has no right bracket: forward fill regardless of length
        trailing = "trailing " if stop == close.shape[0] else ""
        if gap <= max_interp_gap and not trailing:
            left, right = close[start - 1], close[stop]
            steps = np.arange(1, gap + 1, dtype=np.float64) / (gap + 1)
            close[start:stop] = left + steps * (right - left)
            out.n_interpolated_gaps += 1
            out.notes.append(f"interpolated gap of {gap} days at {out.dates[start]}")
        else:
            close[start:stop] = close[start - 1]
            out.n_forward_filled_gaps += 1
            out.notes.append(f"forward-filled {trailing}gap of {gap} days at {out.dates[start]}")

    if n_long > max_long_gaps:
        out.exclude = True
        out.notes.append(f"excluded: {n_long} gaps longer than {max_interp_gap} days")
    if longest > max_gap_days:
        out.exclude = True
        out.notes.append(f"excluded: a gap of {longest} days exceeds {max_gap_days}")
    return out


def drop_ipo_head(record: StockRecord, n_days: int = 5) -> StockRecord:
    """Remove the first ``n_days`` rows (the post-listing price-discovery period).

    Returns a copy whose closes view the rest of ``record``'s and whose notes are its own.
    A record with no rows left is returned empty and marked unusable.
    """
    check_int(n_days, "n_days", 0)
    out = _derived(record, record.dates[n_days:], record.close[n_days:])
    if not len(out):
        out.exclude = True
        out.notes.append(f"unusable: {len(record)} rows <= ipo head {n_days}")
    return out


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
        _check_types(("ticker", self.ticker, str), ("start_date", self.start_date, str),
                     ("synthetic", self.synthetic, bool))
        self.values = check_array(self.values, "values", ndim=(1,), nonempty=True, error=DataError)
        if not np.isfinite(self.values).all():  # ndarray.all(): np.all() takes about 1 us more
            raise DataError(f"window {_shown(self.ticker)}@{_shown(self.start_date)} has "
                            "non-finite values")
        self.mean = check_real(self.mean, "mean", error=DataError)
        self.scale = check_real(self.scale, "scale", 0, open_low=True, error=DataError)
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
    raw = check_array(raw_closes, "raw_closes", ndim=(1, 2), nonempty=True, error=DataError)
    if not np.all(np.isfinite(raw)) or np.any(raw <= 0.0):
        raise DataError("window closes must be finite and positive")
    logs = np.log(raw)
    mu = logs.mean(axis=-1, keepdims=True)
    scale = np.maximum(logs.std(axis=-1, keepdims=True), STD_FLOOR)
    stats = (float(mu[0]), float(scale[0])) if raw.ndim == 1 else (mu[:, 0], scale[:, 0])
    return (logs - mu) / scale, stats


def denormalize_window(values: np.ndarray, stats: tuple) -> np.ndarray:
    """Invert ``normalize_window``: exp(values * scale + mean), per row for a stack."""
    values = check_array(values, "values")
    try:
        mu, scale = stats
    except (TypeError, ValueError):
        raise ParameterError(f"stats {_shown(stats, repr)} is not a (mean, scale) pair") from None
    mu, scale = check_array(mu, "mean"), check_array(scale, "scale")
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
        raise DataError(f"record {_shown(record.ticker)}: {len(record)} rows are fewer than "
                        f"the window length {length}")
    if not np.all(np.isfinite(record.close)):
        raise DataError(f"record {_shown(record.ticker)}: unrepaired gaps remain")
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
    train_fraction = check_real(train_fraction, "train_fraction", 0, 1, open_low=True)
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
    chunks, held, short, first = [], {}, None, None
    with _reading(path, what) as fh:
        reader = csv.reader(fh)
        try:
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
                at = len(keys[0]) - len(xs) + 2  # the line of the chunk's first row
                held.update((at + i, (xs[i], ys[i])) for i in np.flatnonzero(chunks[-1][-1]).tolist())
        except csv.Error as exc:  # a field past the size limit, or a NUL byte on Python 3.10
            raise DataError(f"{path}:{1 if first is None else len(keys[0]) + 2}: {exc}") from exc
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
            raise DataError(f"{at}: close {_shown(cell, repr)} is not a number") from None
        if not (math.isfinite(value) and value > 0.0):
            raise DataError(f"{at}: close must be positive, got {_shown(cell)}")
        try:
            industry_i = int(ind)
        except ValueError:
            raise DataError(f"{at}: industry_id {_shown(ind, repr)} is not an integer") from None
        if not 0 <= industry_i < n_industries:
            raise DataError(f"{at}: industry_id {_shown(industry_i)} outside [0, {n_industries})")
    order = np.lexsort((d_code, t_code))
    d_code, t_code, close, industry = d_code[order], t_code[order], close[order], industry[order]
    repeat = np.r_[False, (d_code[1:] == d_code[:-1]) & (t_code[1:] == t_code[:-1])]
    bounds = np.searchsorted(t_code, np.arange(len(tickers) + 1)).tolist()
    day = np.array(dates, dtype=object)
    records: list[StockRecord] = []
    for ticker, a, b in zip(tickers, bounds, bounds[1:]):
        if repeat[a:b].any():  # name a few, so one bad ticker cannot flood the message
            dupes = day[np.unique(d_code[a:b][repeat[a:b]])].tolist()
            raise DataError(f"{path}: ticker {_shown(ticker)} has {len(dupes)} duplicate dates, "
                            f"first {_shown(', '.join(dupes[:5]))}")
        dates_j, industry_j = day[d_code[a:b]].tolist(), int(industry[b - 1])
        records.append(StockRecord(ticker, dates_j, close[a:b], industry_j, classify_board(ticker)))
    return records


def prepare_windows(
    records: list[StockRecord],
    window: int = 60,
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
        if len(trimmed) < window:
            skipped.append(
                {
                    "ticker": record.ticker,
                    "reasons": [f"too short: {len(trimmed)} rows < window length {window}"],
                }
            )
            continue
        windows.extend(make_windows(trimmed, length=window, step=step))

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
    with _reading(path, what) as fh:  # read whole, parsed after close: parsing inside ran slower
        text = fh.read()
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, a deep nest
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
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
                if (board := Board.__members__.get(obj["board"])) is None:
                    raise ValueError(f"unknown board {_shown(obj['board'], repr)}")
                w = SeriesWindow(obj["ticker"], obj["start_date"], obj["values"], obj["mean"],
                                 obj["scale"], obj["industry_id"], board, obj.get("synthetic", False))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                why = f"missing field {exc}" if isinstance(exc, KeyError) else _shown(exc)
                raise DataError(f"{path}:{lineno}: malformed window record: {why}") from exc
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
