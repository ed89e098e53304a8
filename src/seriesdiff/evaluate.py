"""Return metrics, cross-sectional correlations, and a top-k rotation backtest.

The evaluation contract is a prediction panel: a full date x ticker grid of
model scores and realized forward returns.  Each date the backtest ranks the
universe by score, holds the top k names equal-weighted (dropping whatever
fell out of the top k the day before), earns their mean realized return, and
compounds.  Predictive power is measured by the per-date Pearson correlation
between scores and realized returns (IC) and its rank version (Rank IC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import StockRecord, _csv_columns
from .errors import DataError, ParameterError

__all__ = [
    "return_ratio",
    "log_return",
    "information_coefficient",
    "rank_ic",
    "PredictionPanel",
    "read_panel_csv",
    "BacktestResult",
    "topk_dropk_backtest",
    "summarize_backtest",
    "momentum_panel",
]


def _check_closes(closes: np.ndarray, horizon: int) -> np.ndarray:
    closes = np.asarray(closes, dtype=np.float64)
    if closes.ndim != 1 or closes.size < 2:
        raise ParameterError("need a 1-D series of at least 2 closes")
    if not 1 <= horizon < closes.size:
        raise ParameterError(f"horizon {horizon} outside [1, {closes.size - 1}]")
    if not np.all(np.isfinite(closes)) or np.any(closes <= 0.0):
        raise DataError("closes must be finite and positive")
    return closes


def return_ratio(closes: np.ndarray, horizon: int) -> float:
    """Simple forward return over ``horizon`` days from the first close:
    (C_h - C_0) / C_0."""
    closes = _check_closes(closes, horizon)
    return float((closes[horizon] - closes[0]) / closes[0])


def log_return(closes: np.ndarray, horizon: int) -> float:
    """Log forward return ln(C_h / C_0); additive across adjacent horizons."""
    closes = _check_closes(closes, horizon)
    return float(math.log(closes[horizon] / closes[0]))


def _check_pair(predicted: np.ndarray, realized: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predicted, dtype=np.float64)
    r = np.asarray(realized, dtype=np.float64)
    if p.ndim != 1 or p.shape != r.shape:
        raise ParameterError("predicted and realized must be equal-length 1-D vectors")
    if p.size < 2:
        raise ParameterError("need at least 2 entries")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r))):
        raise DataError("inputs contain non-finite values")
    return p, r


def information_coefficient(predicted: np.ndarray, realized: np.ndarray) -> float:
    """Pearson correlation between scores and realized returns."""
    p, r = _check_pair(predicted, realized)
    if p.min() == p.max() or r.min() == r.max():  # exact: np.std of equal floats can be 1e-17
        raise DataError("correlation undefined: a vector is constant")
    return float(np.corrcoef(p, r)[0, 1])


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    # a tie group ending at 1-based position c with n members averages to c - (n - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def rank_ic(predicted: np.ndarray, realized: np.ndarray) -> float:
    """Spearman correlation: Pearson on average ranks, so ties are handled exactly.

    Without ties this agrees with the classic 1 - 6 sum(d^2) / (n(n^2-1))
    shortcut; with ties the rank-correlation definition used here is the one
    that stays correct.
    """
    p, r = _check_pair(predicted, realized)
    rp = _average_ranks(p)
    rr = _average_ranks(r)
    if np.std(rp) == 0.0 or np.std(rr) == 0.0:
        raise DataError("rank correlation undefined: a vector is fully tied")
    return float(np.corrcoef(rp, rr)[0, 1])


@dataclass(frozen=True)
class PredictionPanel:
    """Full grid of per-date, per-ticker scores and realized returns.

    dates : D strings, strictly increasing.
    tickers : N unique names.
    scores, returns : (D, N) float arrays, finite.
    """

    dates: list[str]
    tickers: list[str]
    scores: np.ndarray
    returns: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        returns = np.asarray(self.returns, dtype=np.float64)
        D, N = len(self.dates), len(self.tickers)
        if D < 1 or N < 1:
            raise DataError("panel needs at least one date and one ticker")
        if len(set(self.tickers)) != N:
            raise DataError("panel tickers must be unique")
        if any(self.dates[i] >= self.dates[i + 1] for i in range(D - 1)):
            raise DataError("panel dates must be strictly increasing")
        if scores.shape != (D, N) or returns.shape != (D, N):
            raise DataError(
                f"panel arrays must be shaped ({D}, {N}); "
                f"got scores {scores.shape}, returns {returns.shape}"
            )
        if not (np.all(np.isfinite(scores)) and np.all(np.isfinite(returns))):
            raise DataError("panel contains non-finite values")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "returns", returns)


def read_panel_csv(path: str | Path) -> PredictionPanel:
    """Load a panel from long-format CSV (date, ticker, score, realized_return).

    The grid must be complete: every date needs a row for every ticker.
    """
    path = Path(path)
    lines, (dates, d_code), (tickers, t_code), score_s, ret_s = _csv_columns(
        path, ["date", "ticker", "score", "realized_return"], "panel CSV"
    )
    n, D, N = len(score_s), len(dates), len(tickers)
    cell = d_code * N + t_code
    counts = np.bincount(cell, minlength=D * N)
    try:
        scores = np.fromiter(map(float, score_s), np.float64, n)
        returns = np.fromiter(map(float, ret_s), np.float64, n)
        bad = (counts[cell] > 1) | ~(np.isfinite(scores) & np.isfinite(returns))
    except ValueError:  # a cell that is no number: check every row in order
        bad = np.ones(n, dtype=bool)
    held: set[int] = set()
    for i in np.flatnonzero(bad).tolist():  # stops at the first bad row, also when parsing failed
        try:
            if not (math.isfinite(float(score_s[i])) and math.isfinite(float(ret_s[i]))):
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lines[i]}: score and return must be finite numbers") from None
        if cell[i] in held:
            d, t = dates[d_code[i]], tickers[t_code[i]]
            raise DataError(f"{path}:{lines[i]}: duplicate cell ({d}, {t})")
        held.add(cell[i])
    if n != D * N:  # cells are unique, so the grid is full exactly when it holds D * N rows
        d, t = divmod(int(np.argmin(counts)), N)
        raise DataError(f"{path}: missing cell for ({dates[d]}, {tickers[t]}); "
                        "the grid must be full")
    grid = np.empty((2, D * N))
    grid[:, cell] = scores, returns
    return PredictionPanel(dates, tickers, *grid.reshape(2, D, N))


@dataclass(frozen=True)
class BacktestResult:
    """Per-date holdings and returns of the top-k rotation.

    daily_returns[d] is the equal-weighted mean realized return of the names
    held on date d; cumulative[d] compounds those through date d.  turnover
    counts every name dropped at a rebalance (the day-over-day top-k exits).
    """

    dates: list[str]
    holdings: list[list[str]]
    daily_returns: np.ndarray
    cumulative: np.ndarray
    turnover: int

    @property
    def cumulative_return(self) -> float:
        return float(self.cumulative[-1])


def topk_dropk_backtest(panel: PredictionPanel, k: int = 20) -> BacktestResult:
    """Hold the top min(k, universe) names by score each date, equal-weighted.

    Ranking sorts by score descending with ties broken by ticker so results
    are deterministic.  Universes smaller than k hold everything.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    tickers = np.asarray(panel.tickers)
    n_hold = min(k, len(panel.tickers))
    holdings: list[list[str]] = []
    daily = np.empty(len(panel.dates), dtype=np.float64)
    for d in range(len(panel.dates)):
        # lexsort's last key is primary: score descending, then ticker ascending.
        order = np.lexsort((tickers, -panel.scores[d]))
        held_idx = order[:n_hold]
        holdings.append([str(t) for t in tickers[held_idx]])
        daily[d] = float(np.mean(panel.returns[d, held_idx]))
    cumulative = np.cumprod(1.0 + daily) - 1.0
    turnover = 0
    for d in range(1, len(holdings)):
        turnover += len(set(holdings[d - 1]) - set(holdings[d]))
    return BacktestResult(
        dates=list(panel.dates),
        holdings=holdings,
        daily_returns=daily,
        cumulative=cumulative,
        turnover=turnover,
    )


def summarize_backtest(
    panel: PredictionPanel, k: int = 20, result: BacktestResult | None = None
) -> dict:
    """Backtest plus per-date IC / Rank IC averages, as one flat summary dict.

    ``result`` is ``topk_dropk_backtest(panel, k)`` when the caller already
    holds it; otherwise the backtest runs here.  Dates where a correlation is
    undefined (constant scores or returns for IC, fully tied vectors for
    Rank IC) are skipped and counted instead of poisoning the averages; with
    a 1-name universe every date is skipped and the averages are reported as
    None.
    """
    if result is None:
        result = topk_dropk_backtest(panel, k=k)
    ics: list[float] = []
    rank_ics: list[float] = []
    skipped = 0
    for d in range(len(panel.dates)):
        try:
            ic = information_coefficient(panel.scores[d], panel.returns[d])
            rank_ics.append(rank_ic(panel.scores[d], panel.returns[d]))
        except (DataError, ParameterError):
            skipped += 1
        else:
            ics.append(ic)
    return {
        "n_dates": len(panel.dates),
        "n_tickers": len(panel.tickers),
        "top_k": k,
        "cumulative_rr": result.cumulative_return,
        "mean_daily_return": float(np.mean(result.daily_returns)),
        "mean_ic": float(np.mean(ics)) if ics else None,
        "mean_rank_ic": float(np.mean(rank_ics)) if rank_ics else None,
        "turnover": result.turnover,
        "skipped_ic_dates": skipped,
    }


def momentum_panel(
    records: list[StockRecord], lookback: int = 20, horizon: int = 5
) -> PredictionPanel:
    """Panel from a trivial momentum signal, to exercise the backtest end to end.

    Score = trailing ``lookback``-day simple return; realized = forward
    ``horizon``-day simple return.  Only dates shared by every record enter
    the grid.  This is a harness fixture, not a serious predictor.
    """
    if lookback < 1 or horizon < 1:
        raise ParameterError("lookback and horizon must be >= 1")
    if not records:
        raise DataError("no records given")
    lookups = []
    for rec in records:
        if not np.all(np.isfinite(rec.close)):
            raise DataError(f"record {rec.ticker}: unrepaired gaps remain")
        lookups.append(dict(zip(rec.dates, rec.close.tolist())))
    dates = sorted(set.intersection(*map(set, lookups)))
    usable = dates[lookback : len(dates) - horizon]
    if not usable:
        raise DataError(
            f"only {len(dates)} shared dates; need more than lookback+horizon={lookback + horizon}"
        )
    tickers = [rec.ticker for rec in records]
    if len(set(tickers)) != len(tickers):
        raise DataError("duplicate tickers across records")
    order = np.argsort(tickers, kind="stable")
    grid = np.array([[lookups[j][d] for j in order] for d in dates])  # shared dates x tickers
    past, now, future = grid[:-lookback - horizon], grid[lookback:-horizon], grid[lookback + horizon:]
    return PredictionPanel(usable, sorted(tickers), (now - past) / past, (future - now) / now)
