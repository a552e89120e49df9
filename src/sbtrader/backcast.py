"""Deterministic backcast: replay day feeds through the engine and account results.

Orders fill at their intended prices (so the ask-bid spread cost is realized)
and per-day transactions, P&L, and Sharpe-ratio inputs are reported. The
correlation matrix for each day is the normalized average of up to the last
`corr_window` days' correlation factors from that run's own one-second samples.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import ORDER_LOG_HEADER, EngineConfig, Fill, LONG, Order, TradingEngine
from .feed import MarketSession, replay
from .strategy import CorrelationMatrix, Universe, correlation_matrix, day_sigma_matrix

__all__ = [
    "FillModel",
    "SharpeStats",
    "DayRow",
    "BackcastReport",
    "sharpe",
    "transaction_amount",
    "replay_day_sigma",
    "run_backcast",
]

logger = logging.getLogger(__name__)

TRADING_DAYS_PER_YEAR = 252


class FillModel:
    """Backcast execution model: fill at the intended price.

    Commission is charged per day in the accounting, at
    `EngineConfig.commission_rate`.
    """

    def fill(self, order: Order) -> Fill:
        return Fill(order_id=order.order_id, ts=order.ts, price=order.intended_price)


@dataclass(frozen=True)
class SharpeStats:
    sharpe: float
    ann_return: float
    ann_risk: float


def sharpe(daily_returns: np.ndarray) -> SharpeStats:
    """Mean/std ratio of daily returns (sample std, n-1), annualized over TRADING_DAYS_PER_YEAR.

    Zero standard deviation leaves the ratio undefined; it is reported as NaN
    rather than raised.
    """
    r = np.asarray(daily_returns, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least 2 daily returns")
    ann_return = float(r.mean()) * TRADING_DAYS_PER_YEAR
    if np.ptp(r) == 0.0:  # exactly constant; float std may still be ~1e-17
        return SharpeStats(sharpe=math.nan, ann_return=ann_return, ann_risk=0.0)
    ann_risk = float(r.std(ddof=1)) * math.sqrt(TRADING_DAYS_PER_YEAR)
    ratio = ann_return / ann_risk if ann_risk > 0 else math.nan
    return SharpeStats(sharpe=ratio, ann_return=ann_return, ann_risk=ann_risk)


def transaction_amount(price: float, lots: int, min_lot: int) -> float:
    """Notional of one executed leg: price * lots * shares-per-lot."""
    return float(price) * int(lots) * int(min_lot)


@dataclass
class DayRow:
    date: str
    transactions: float
    pnl: float
    n_trades: int


@dataclass
class BackcastReport:
    days: list[DayRow] = field(default_factory=list)
    order_rows: list[tuple[int, str, str, int, float, str]] = field(default_factory=list)
    capital: float = 0.0
    stats: SharpeStats | None = None

    def cumulative(self) -> tuple[np.ndarray, np.ndarray]:
        tx = np.cumsum([d.transactions for d in self.days]) if self.days else np.array([])
        pnl = np.cumsum([d.pnl for d in self.days]) if self.days else np.array([])
        return tx, pnl

    def total_pnl(self) -> float:
        return float(sum(d.pnl for d in self.days))

    def total_transactions(self) -> float:
        return float(sum(d.transactions for d in self.days))

    def finalize_stats(self) -> None:
        if len(self.days) >= 2 and self.capital > 0:
            returns = np.array([d.pnl for d in self.days]) / self.capital
            self.stats = sharpe(returns)
        else:
            self.stats = SharpeStats(math.nan, math.nan, math.nan)

    # -- report files ---------------------------------------------------------

    def write(self, out_dir) -> None:
        """Write report.csv, cumulative.csv, orders.csv, and summary.txt."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.csv", "w") as fh:
            fh.write("date,transaction_amount,pnl,n_trades\n")
            for d in self.days:
                fh.write(f"{d.date},{d.transactions!r},{d.pnl!r},{d.n_trades}\n")
        tx, pnl = self.cumulative()
        with open(out / "cumulative.csv", "w") as fh:
            fh.write("date,cum_transactions,cum_pnl\n")
            for d, t, p in zip(self.days, tx, pnl):
                fh.write(f"{d.date},{float(t)!r},{float(p)!r}\n")
        with open(out / "orders.csv", "w") as fh:
            fh.write(ORDER_LOG_HEADER + "\n")
            for ts, code, side, lots, price, action in self.order_rows:
                fh.write(f"{ts},{code},{side},{lots},{price!r},{action}\n")
        if self.stats is None:
            self.finalize_stats()
        with open(out / "summary.txt", "w") as fh:
            fh.write(f"days={len(self.days)}\n")
            fh.write(f"total_transactions={self.total_transactions()!r}\n")
            fh.write(f"total_pnl={self.total_pnl()!r}\n")
            fh.write(f"capital={self.capital!r}\n")
            fh.write(f"sharpe={self.stats.sharpe!r}\n")
            fh.write(f"ann_return={self.stats.ann_return!r}\n")
            fh.write(f"ann_risk={self.stats.ann_risk!r}\n")


def _account_day(engine: TradingEngine, universe: Universe, commission_rate: float) -> tuple[float, float, int]:
    transactions = 0.0
    commissions = 0.0
    for order, fill in engine.fills:
        leg = transaction_amount(fill.price, order.lots, universe.stocks[universe.index(order.code)].min_lot)
        transactions += leg
        commissions += commission_rate * leg
    pnl = 0.0
    for pos in engine.positions:
        shares = pos.lots * universe.stocks[universe.index(pos.code)].min_lot
        direction = 1.0 if pos.side == LONG else -1.0
        pnl += direction * (pos.close_price - pos.open_price) * shares
    return transactions, pnl - commissions, len(engine.fills)


def replay_day_sigma(universe: Universe, path) -> np.ndarray:
    """Replay one day feed into a fresh session; return its one-day correlation factors."""
    session = MarketSession(universe)
    for e in replay(path):
        session.advance(e.ts)
        session.apply(e)
    _log_day(path, session)
    return day_sigma_matrix(session.samples.matrix())


def _log_day(path, session: MarketSession, skipped_events: int = 0) -> None:
    """One line per replayed day: a warning if it dropped or skipped anything."""
    counts = (session.buffer.rejected, session.accumulator.rejected, skipped_events)
    level = logging.WARNING if any(counts) else logging.INFO
    logger.log(level, "%s: rejected quotes=%d trades=%d; skipped events=%d (solver diverged)", path, *counts)


def run_backcast(
    day_feeds: list[tuple[str, str]],
    universe: Universe,
    config: EngineConfig,
    seed: int = 0,
    corr_override: CorrelationMatrix | None = None,
) -> BackcastReport:
    """Replay (date, feed path) pairs in order and build the report.

    Without `corr_override`, the first `warmup_days` days only accumulate
    correlation history and never trade; afterwards each day trades against
    the average of the last `corr_window` days' factors, the only ones kept.
    With an override every day trades against it and no day matrix is built.
    """
    if seed < 0:  # checked before the warm-up days, which draw no stream
        raise ValueError(f"seed must be >= 0, got {seed}")
    report = BackcastReport(capital=config.strategy.a_trans * config.strategy.p_max)
    history: deque[np.ndarray] = deque(maxlen=config.corr_window)
    fill_model = FillModel()
    for day_index, (date, path) in enumerate(day_feeds):
        if corr_override is None and day_index < config.warmup_days:
            history.append(replay_day_sigma(universe, path))
            report.days.append(DayRow(date=date, transactions=0.0, pnl=0.0, n_trades=0))
            continue
        corr = corr_override
        if corr is None:
            corr = correlation_matrix(list(history))
        engine = TradingEngine(universe, corr, config, seed=seed, day_key=day_index, fill_handler=fill_model.fill)
        last_ts = 0
        for e in replay(path):
            engine.process(e)
            last_ts = e.ts
        engine.finalize(last_ts)
        _log_day(path, engine.session, engine.skipped_events)
        if corr_override is None:
            history.append(day_sigma_matrix(engine.session.samples.matrix()))
        transactions, pnl, n_trades = _account_day(engine, universe, config.commission_rate)
        report.days.append(DayRow(date=date, transactions=transactions, pnl=pnl, n_trades=n_trades))
        for order, fill in engine.fills:
            report.order_rows.append((fill.ts, order.code, order.side, order.lots, fill.price, order.action))
    report.finalize_stats()
    return report
