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

from .dataio import StockRecord, _csv_rows
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
    cells: dict[tuple[str, str], tuple[float, float]] = {}
    header = ["date", "ticker", "score", "realized_return"]
    for lineno, (date, ticker, score_s, ret_s) in _csv_rows(path, header, "panel CSV"):
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
    D, N = len(dates), len(tickers)
    # cells are unique, so the grid is full exactly when there are D * N of them
    if len(cells) != D * N:
        d, t = next((d, t) for d in dates for t in tickers if (d, t) not in cells)
        raise DataError(f"{path}: missing cell for ({d}, {t}); the grid must be full")
    row = {d: i for i, d in enumerate(dates)}
    col = {t: j for j, t in enumerate(tickers)}
    scores, returns = np.empty((2, D, N))
    for (d, t), (score, ret) in cells.items():
        i, j = row[d], col[t]
        scores[i, j], returns[i, j] = score, ret
    return PredictionPanel(dates=dates, tickers=tickers, scores=scores, returns=returns)


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
    by_date: list[dict[str, float]] = []
    shared: set[str] | None = None
    for rec in records:
        if not np.all(np.isfinite(rec.close)):
            raise DataError(f"record {rec.ticker}: unrepaired gaps remain")
        lookup = dict(zip(rec.dates, rec.close.tolist()))
        by_date.append(lookup)
        shared = set(lookup) if shared is None else shared & set(lookup)
    dates = sorted(shared or set())
    usable = dates[lookback : len(dates) - horizon]
    if not usable:
        raise DataError(
            f"only {len(dates)} shared dates; need more than lookback+horizon={lookback + horizon}"
        )
    tickers = [rec.ticker for rec in records]
    if len(set(tickers)) != len(tickers):
        raise DataError("duplicate tickers across records")
    scores = np.empty((len(usable), len(records)))
    returns = np.empty((len(usable), len(records)))
    for i, date in enumerate(usable):
        di = lookback + i
        for j, lookup in enumerate(by_date):
            now = lookup[date]
            past = lookup[dates[di - lookback]]
            future = lookup[dates[di + horizon]]
            scores[i, j] = (now - past) / past
            returns[i, j] = (future - now) / now
    order = np.argsort(tickers, kind="stable")
    return PredictionPanel(
        dates=usable,
        tickers=[tickers[j] for j in order],
        scores=scores[:, order],
        returns=returns[:, order],
    )
