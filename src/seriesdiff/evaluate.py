"""Cross-sectional correlations, prediction panels, and a top-k rotation backtest.

The evaluation contract is a prediction panel: a full date x ticker grid of
model scores and realized forward returns.  Each date the backtest ranks the
universe by score, holds the top k names equal-weighted (dropping whatever
fell out of the top k the day before), earns their mean realized return, and
compounds.  Predictive power is measured by the per-date Pearson correlation
between scores and realized returns (IC) and its rank version (Rank IC).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import _csv_columns, _numbers
from .errors import DataError, NumericError, ParameterError, check_int

__all__ = [
    "information_coefficient",
    "rank_ic",
    "PredictionPanel",
    "read_panel_csv",
    "BacktestResult",
    "topk_dropk_backtest",
    "summarize_backtest",
]


def _pair(predicted: np.ndarray, realized: np.ndarray, undefined: str) -> np.ndarray:
    """The checked pair as one (2, N) stack; ``undefined`` is the error for a constant vector."""
    p, r = (np.asarray(v, dtype=np.float64) for v in (predicted, realized))
    if p.ndim != 1 or p.shape != r.shape:
        raise ParameterError("predicted and realized must be equal-length 1-D vectors")
    if p.size < 2:
        raise ParameterError("need at least 2 entries")
    pair = np.stack([p, r])
    if not np.all(np.isfinite(pair)):
        raise DataError("inputs contain non-finite values")
    if np.any(pair.min(axis=1) == pair.max(axis=1)):  # exact: np.std of equal floats can be 1e-17
        raise DataError(undefined)
    return pair


def _corr_rows(pairs: np.ndarray) -> np.ndarray:
    """Pearson correlation of each (2, N) pair of the (..., 2, N) stack ``pairs``, computed
    as np.corrcoef computes one pair; N >= 2 unless the stack is empty."""
    x = pairs - pairs.mean(axis=-1, keepdims=True)
    c = x @ x.swapaxes(-1, -2) * (1.0 / max(x.shape[-1] - 1, 1))
    s = np.sqrt(c[..., [0, 1], [0, 1]])
    r = np.clip(c[..., 0, 1] / s[..., 0] / s[..., 1], -1.0, 1.0)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r))):  # an infinite variance gives r = 0
        raise NumericError("a correlation is non-finite: its values overflow or underflow float64")
    return r


def information_coefficient(predicted: np.ndarray, realized: np.ndarray) -> float:
    """Pearson correlation between scores and realized returns."""
    pair = _pair(predicted, realized, "correlation undefined: a vector is constant")
    return float(_corr_rows(pair))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, ties sharing the average of their positions."""
    # a stable sort places a tie group's members in order, the sort of the reversed row in
    # reverse order, so each member's two positions sum to twice the group's mean position
    twice = np.argsort(np.argsort(v, axis=-1, kind="stable"), axis=-1)
    twice += np.argsort(np.argsort(v[..., ::-1], axis=-1, kind="stable"), axis=-1)[..., ::-1]
    return twice / 2.0 + 1.0


def rank_ic(predicted: np.ndarray, realized: np.ndarray) -> float:
    """Spearman correlation: Pearson on average ranks, so ties are handled exactly.

    Without ties this agrees with the classic 1 - 6 sum(d^2) / (n(n^2-1))
    shortcut; with ties the rank-correlation definition used here is the one
    that stays correct.
    """
    pair = _pair(predicted, realized, "rank correlation undefined: a vector is fully tied")
    return float(_corr_rows(_average_ranks(pair)))


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


def _panel_cells(score_s: list[str], ret_s: list[str]) -> tuple:
    """A chunk's scores and returns, and a mask of the rows where one is not a finite number."""
    scores, returns = (_numbers(float, c, np.float64, np.nan) for c in (score_s, ret_s))
    return scores, returns, ~(np.isfinite(scores) & np.isfinite(returns))


def read_panel_csv(path: str | Path) -> PredictionPanel:
    """Load a panel from long-format CSV (date, ticker, score, realized_return).

    The grid must be complete: every date needs a row for every ticker.
    """
    path = Path(path)
    lines, (dates, d_code), (tickers, t_code), (scores, returns), bad, _ = _csv_columns(
        path, ["date", "ticker", "score", "realized_return"], "panel CSV", _panel_cells
    )
    n, D, N = len(scores), len(dates), len(tickers)
    cell = d_code * N + t_code
    counts = np.bincount(cell, minlength=D * N)
    held: set[int] = set()
    for i in np.flatnonzero(bad | (counts > 1)[cell]).tolist():  # stops at the first bad row
        if bad[i]:
            raise DataError(f"{path}:{lines[i]}: score and return must be finite numbers")
        if cell[i] in held:
            d, t = dates[d_code[i]], tickers[t_code[i]]
            raise DataError(f"{path}:{lines[i]}: duplicate cell ({d}, {t})")
        held.add(cell[i])
    if n != D * N:  # cells are unique, so the grid is full exactly when it holds D * N rows
        d, t = divmod(int(np.argmin(counts)), N)
        raise DataError(f"{path}: missing cell for ({dates[d]}, {tickers[t]}); the grid must be full")
    grid = np.empty((2, D * N))
    grid[0, cell], grid[1, cell] = scores, returns  # no (2, n) stack of the two first
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
    check_int(k, "k", 1)
    tickers = np.asarray(panel.tickers)
    # lexsort's last key is primary: score descending, then ticker ascending, on every date
    held = np.lexsort((np.broadcast_to(tickers, panel.scores.shape), -panel.scores))[:, :k]
    daily = np.take_along_axis(panel.returns, held, axis=-1).mean(axis=-1)
    cumulative = np.cumprod(1.0 + daily) - 1.0
    bad = np.flatnonzero(~np.isfinite(cumulative))
    if bad.size:
        raise NumericError(f"compounded return is non-finite from {panel.dates[bad[0]]} on")
    in_top = np.zeros(panel.scores.shape, dtype=bool)
    np.put_along_axis(in_top, held, True, axis=-1)
    return BacktestResult(
        dates=list(panel.dates),
        holdings=tickers[held].tolist(),
        daily_returns=daily,
        cumulative=cumulative,
        turnover=int(np.count_nonzero(in_top[:-1] & ~in_top[1:])),
    )


def summarize_backtest(
    panel: PredictionPanel, k: int = 20, result: BacktestResult | None = None
) -> dict:
    """Backtest plus per-date IC / Rank IC averages, as one flat summary dict.

    ``result`` is ``topk_dropk_backtest(panel, k)`` when the caller already
    holds it; otherwise the backtest runs here.  A date whose scores or
    returns are constant, where both correlations are undefined, is skipped
    and counted instead of poisoning the averages; with a 1-name universe
    every date is skipped and the averages are reported as None.
    """
    if result is None:
        result = topk_dropk_backtest(panel, k=k)
    step = max(1, 16_384 // len(panel.tickers))  # dates per block of ~16k cells, not one stack

    def correlations(a: int) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.stack([panel.scores[a:a + step], panel.returns[a:a + step]], axis=1)
        pairs = pairs[np.all(pairs.min(axis=-1) < pairs.max(axis=-1), axis=-1)]
        return _corr_rows(pairs), _corr_rows(_average_ranks(pairs))

    ics, rank_ics = map(np.concatenate, zip(*map(correlations, range(0, len(panel.dates), step))))
    return {
        "n_dates": len(panel.dates),
        "n_tickers": len(panel.tickers),
        "top_k": k,
        "cumulative_rr": result.cumulative_return,
        "mean_daily_return": float(np.mean(result.daily_returns)),
        "mean_ic": float(np.mean(ics)) if ics.size else None,
        "mean_rank_ic": float(np.mean(rank_ics)) if rank_ics.size else None,
        "turnover": result.turnover,
        "skipped_ic_dates": len(panel.dates) - len(ics),
    }
