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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParameterError

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
    if max_interp_gap < 1 or max_long_gaps < 0 or max_gap_days < 1:
        raise ParameterError("repair thresholds must be positive")
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
    if n_days < 0:
        raise ParameterError(f"n_days must be >= 0, got {n_days}")
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


def denormalize_window(values: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    """Invert ``normalize_window``: exp(values * scale + mean)."""
    mu, scale = stats
    if not (scale > 0.0 and math.isfinite(scale) and math.isfinite(mu)):
        raise ParameterError(f"bad normalization stats ({mu}, {scale})")
    values = np.asarray(values, dtype=np.float64)
    return np.exp(values * scale + mu)


def make_windows(record: StockRecord, length: int = 60, step: int = 20) -> list[SeriesWindow]:
    """Sliding windows at a fixed stride; count = (n - length) // step + 1."""
    if length < 2:
        raise ParameterError(f"window length must be >= 2, got {length}")
    if step < 1:
        raise ParameterError(f"step must be >= 1, got {step}")
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


_CSV_HEADER = ["date", "ticker", "close", "industry_id"]


def _csv_rows(path: Path, header: list[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, stripped fields) of each non-blank row of a 4-column CSV.

    Raises DataError for an unreadable (``what`` names the kind) or empty file, a
    header other than ``header`` (both start ``date,ticker``), a row without exactly 4
    fields or with an empty date or ticker (naming its line), and no data rows.
    """
    with _reading(path, what) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
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


def read_close_csv(path: str | Path, n_industries: int = 124) -> list[StockRecord]:
    """Parse the long-format close CSV into per-ticker records.

    Rows may arrive in any order; they are grouped by ticker and sorted by
    date.  An empty close field marks a suspension day.  If a ticker's
    industry changes across rows, the latest row wins (reclassifications
    apply retroactively).  Malformed rows raise line-numbered errors.
    """
    path = Path(path)
    rows: dict[str, list[tuple[str, float, int]]] = {}
    for lineno, (date, ticker, close_s, industry_s) in _csv_rows(path, _CSV_HEADER, "close CSV"):
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
            raise DataError(
                f"{path}:{lineno}: industry_id {industry} outside [0, {n_industries})"
            )
        rows.setdefault(ticker, []).append((date, close, industry))

    records: list[StockRecord] = []
    for ticker in sorted(rows):
        entries = sorted(rows[ticker], key=lambda e: e[0])
        dates = [e[0] for e in entries]
        dupes = sorted({d for i, d in enumerate(dates[:-1]) if d == dates[i + 1]})
        if dupes:  # name a few, so one bad ticker cannot flood the message
            raise DataError(
                f"{path}: ticker {ticker} has {len(dupes)} duplicate dates, "
                f"first {', '.join(dupes[:5])}"
            )
        close = np.array([e[1] for e in entries], dtype=np.float64)
        industry = entries[-1][2]
        records.append(
            StockRecord(
                ticker=ticker,
                dates=dates,
                close=close,
                industry_id=industry,
                board=classify_board(ticker),
            )
        )
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
    n_interp = 0
    n_ffill = 0
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


def _window_to_obj(w: SeriesWindow) -> dict:
    return {
        "ticker": w.ticker,
        "start_date": w.start_date,
        "values": w.values.tolist(),
        "mean": float(w.mean),
        "scale": float(w.scale),
        "industry_id": int(w.industry_id),
        "board": w.board.name,
        "synthetic": bool(w.synthetic),
    }


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file opened on a sibling temporary that replaces ``path`` on success.

    The directory is made here, so it appears with its first file.  If the
    write fails the temporary is removed and ``path`` is left as it was, so a
    reader never sees a half-written file; an ``OSError`` is a DataError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("w") as fh:
                yield fh
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def _reading(path: str | Path, what: str, errors: str = "strict") -> Iterator[TextIO]:
    """``path`` open for streaming; a failed open or decode, even mid-read, is a DataError."""
    try:
        with open(path, errors=errors) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise DataError(f"cannot read {what} {path}: {reason}") from exc


def _read_json(path: str | Path, what: str) -> dict:
    """The JSON object stored at ``path``, or a DataError naming ``what`` and the path."""
    try:  # whole-file read, parsed after close; parsing inside _reading ran slower
        obj = json.loads(Path(path).read_text())
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
            fh.write(json.dumps(_window_to_obj(w), sort_keys=True) + "\n")


def read_window_store(path: str | Path, length: int, n_industries: int) -> list[SeriesWindow]:
    """Read a JSON-lines window store; malformed lines raise line-numbered errors,
    as do windows not ``length`` long or with an industry id outside ``[0, n_industries)``."""
    windows: list[SeriesWindow] = []
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
                    (type(ticker), type(start), type(iid), type(synthetic)) != (str, str, int, bool)
                    or not {type(obj["mean"]), type(obj["scale"])} <= {int, float}
                    or values.dtype.kind not in "if"
                ):
                    raise TypeError(
                        "ticker and start_date must be strings, mean, scale and values numbers, "
                        "industry_id an integer and synthetic true or false"
                    )
                mean, scale, board = float(obj["mean"]), float(obj["scale"]), Board[obj["board"]]
                w = SeriesWindow(ticker, start, values, mean, scale, iid, board, synthetic)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: malformed window record: {exc}") from exc
            if w.values.size != length or not 0 <= w.industry_id < n_industries:
                raise DataError(
                    f"{path}:{lineno}: window of length {w.values.size} and industry_id "
                    f"{w.industry_id}; expected {length} and an id in [0, {n_industries})"
                )
            windows.append(w)
    if not windows:
        raise DataError(f"window store {path} is empty")
    return windows
