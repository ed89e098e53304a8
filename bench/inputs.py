"""Seeded input generator for the benchmark.

``make_plan`` draws everything random up front (tickers, industries, price
walks, suspension gaps, panel scores) from one generator seeded with the
workload seed; ``write_prices_csv`` and ``write_panel_csv`` only format it.
The same seed and size therefore give byte-identical files, and the plan
also states what a correct ``ingest`` must report about them: which tickers
the gap rules exclude, how many gaps of each repair kind there are, and how
many windows each board yields.

The amount of work does not depend on the seed: board sizes, the number of
excluded tickers, the number of gaps and the panel shape are fixed by the
size, so runs at different seeds are comparable.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

# Ticker prefixes per board; every prefix classifies to the named board.
BOARD_PREFIXES = {
    "MAIN": ("600", "601", "000", "002"),
    "CHINEXT": ("300",),
    "STAR": ("688",),
    "BSE": ("83", "87", "88"),
}


@dataclass(frozen=True)
class Size:
    """Shape of the generated close CSV and panel.

    boards : ticker count per board, excluded tickers included.
    n_excluded_long / n_excluded_wide : tickers (never on STAR) given more
        long gaps than ``max_long_gaps`` / one gap wider than ``max_gap_days``.
    interp_gaps / ffill_gaps : interior gaps of at most ``max_interp_gap`` days
        (interpolated) and of more (forward-filled) spread over kept tickers;
        no kept ticker gets more than ``max_long_gaps`` forward-filled gaps.
    """

    n_days: int
    boards: dict[str, int]
    n_excluded_long: int
    n_excluded_wide: int
    interp_gaps: int
    ffill_gaps: int
    window: int = 60
    step: int = 20
    ipo_head_days: int = 5
    max_interp_gap: int = 5
    max_long_gaps: int = 3
    max_gap_days: int = 60

    @property
    def n_tickers(self) -> int:
        return sum(self.boards.values())

    @property
    def windows_per_ticker(self) -> int:
        return (self.n_days - self.ipo_head_days - self.window) // self.step + 1


@dataclass
class Plan:
    """Everything random about one generated input set, plus what ingest must report."""

    size: Size
    dates: list[str]
    tickers: list[str]
    boards: dict[str, str]
    industries: dict[str, int]
    closes: np.ndarray  # (n_days, n_tickers), NaN on suspension days
    excluded: list[str]
    n_interp: int
    n_ffill: int
    scores: np.ndarray = field(repr=False)  # (n_days, n_tickers)
    returns: np.ndarray = field(repr=False)

    @property
    def kept_windows_per_board(self) -> dict[str, int]:
        per = self.size.windows_per_ticker
        out: dict[str, int] = {}
        for t in self.tickers:
            if t not in self.excluded:
                out[self.boards[t]] = out.get(self.boards[t], 0) + per
        return out

    @property
    def n_windows(self) -> int:
        return sum(self.kept_windows_per_board.values())


def trading_days(start: str, n: int) -> list[str]:
    """n weekday date strings from the first weekday on or after ``start``."""
    day = dt.date.fromisoformat(start)
    out: list[str] = []
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += dt.timedelta(days=1)
    return out


def _draw_tickers(rng: np.random.Generator, boards: dict[str, int]) -> dict[str, str]:
    out: dict[str, str] = {}
    for board, count in boards.items():
        prefixes = BOARD_PREFIXES[board]
        codes: list[str] = []
        for j, prefix in enumerate(prefixes):
            share = count // len(prefixes) + (1 if j < count % len(prefixes) else 0)
            digits = 6 - len(prefix)
            picks = rng.choice(10**digits, size=share, replace=False)
            codes += [f"{prefix}{int(p):0{digits}d}" for p in sorted(picks)]
        for code in codes:
            out[code] = board
    return out


def _slots(size: Size) -> list[int]:
    """Start days of disjoint 20-day slots that keep every gap strictly interior."""
    return list(range(10, size.n_days - 30, 20))


def make_plan(seed: int, size: Size) -> Plan:
    """Draw one input set; every draw comes from a generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    boards = _draw_tickers(rng, size.boards)
    tickers = sorted(boards)
    n_t, n_d = len(tickers), size.n_days
    industries = {t: int(rng.integers(0, 124)) for t in tickers}
    drift = 0.0008 * rng.standard_normal(n_t)
    vol = 0.01 + 0.02 * rng.random(n_t)
    base = 5.0 + 75.0 * rng.random(n_t)
    steps = drift + vol * rng.standard_normal((n_d, n_t))
    closes = base * np.exp(np.cumsum(steps, axis=0))

    slots = _slots(size)
    if slots[1] + size.max_gap_days + 10 > n_d - 10 or len(slots) <= size.max_long_gaps:
        raise ValueError(f"{n_d} days leave no room for the gap plan")
    not_star = [t for t in tickers if boards[t] != "STAR"]
    n_excl = size.n_excluded_long + size.n_excluded_wide
    excluded = sorted(rng.choice(not_star, size=n_excl, replace=False).tolist())
    excl_order = rng.permutation(excluded).tolist()
    wide = set(excl_order[: size.n_excluded_wide])
    n_interp = n_ffill = 0
    for t in excluded:
        col = tickers.index(t)
        if t in wide:
            # One gap wider than max_gap_days, spanning slots 1..4.
            gap = size.max_gap_days + 1 + int(rng.integers(0, 10))
            closes[slots[1] : slots[1] + gap, col] = np.nan
            n_ffill += 1
        else:
            # One more forward-filled gap than max_long_gaps allows.
            for s in rng.choice(len(slots), size=size.max_long_gaps + 1, replace=False):
                gap = size.max_interp_gap + 1 + int(rng.integers(0, 10))
                closes[slots[s] : slots[s] + gap, tickers.index(t)] = np.nan
                n_ffill += 1

    kept = [t for t in tickers if t not in excluded]
    # Each gap takes a free (ticker, slot) cell; forward-filled gaps go first so
    # the per-ticker cap on long gaps can be honoured.
    free = {t: list(rng.permutation(len(slots))) for t in kept}
    long_used = {t: 0 for t in kept}
    for kind, count in (("ffill", size.ffill_gaps), ("interp", size.interp_gaps)):
        placed = 0
        while placed < count:
            t = kept[int(rng.integers(0, len(kept)))]
            if not free[t] or (kind == "ffill" and long_used[t] == size.max_long_gaps):
                continue
            s = int(free[t].pop())
            if kind == "ffill":
                gap = size.max_interp_gap + 1 + int(rng.integers(0, 10))
                long_used[t] += 1
                n_ffill += 1
            else:
                gap = 1 + int(rng.integers(0, size.max_interp_gap))
                n_interp += 1
            closes[slots[s] : slots[s] + gap, tickers.index(t)] = np.nan
            placed += 1

    scores = rng.standard_normal((n_d, n_t))
    returns = 0.01 * (0.05 * scores + rng.standard_normal((n_d, n_t)))
    return Plan(
        size=size,
        dates=trading_days("2020-01-02", n_d),
        tickers=tickers,
        boards=boards,
        industries=industries,
        closes=closes,
        excluded=excluded,
        n_interp=n_interp,
        n_ffill=n_ffill,
        scores=scores,
        returns=returns,
    )


def write_prices_csv(plan: Plan, path) -> None:
    """Long-format close CSV in date-major order; empty close on suspension days."""
    lines = ["date,ticker,close,industry_id"]
    for d, date in enumerate(plan.dates):
        row = plan.closes[d]
        for j, t in enumerate(plan.tickers):
            c = row[j]
            close = "" if c != c else f"{c:.4f}"
            lines.append(f"{date},{t},{close},{plan.industries[t]}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_panel_csv(plan: Plan, path) -> None:
    """Full date-by-ticker grid of scores and realized returns."""
    lines = ["date,ticker,score,realized_return"]
    for d, date in enumerate(plan.dates):
        for j, t in enumerate(plan.tickers):
            lines.append(f"{date},{t},{plan.scores[d, j]:.6f},{plan.returns[d, j]:.6f}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
