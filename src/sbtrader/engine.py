"""Event-driven decision loop: quote changes trigger tick updates, solves, and judgment.

The engine owns one day's market state. A quote change with room in the open
list for n_s more stocks rebuilds the deviation vector, whose mask is the one
gate on which stocks may join a group. If `group_possible` holds, `decide`, the
one decision rule, replaces the O(N) tick side of the day split from that
deviation and picks a group, which opens if it was accepted. `split` stays the
day split built with the engine. So at most one group opens per quote change;
with p_max >= 2 n_s a second group waits for the next one.
Closing is driven by the deviation sign crossing zero (taking the convergence
profit) and by a forced unwind window before session close. A held stock's
deviation depends only on its ask and bid, the published VWAP and whether the
window is open, and a new position is not crossed at the inputs it opened on
(entry and exit share `strategy.deviation`). So `process` runs `close_policy`
only on an event after which one of those may differ from the last check; on
any other event the check would issue nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .feed import MarketSession, TickEvent
from .sb import SbParams, SbSolution, SplitProblem, expand, pick_best, restrict, substream, update_tick
from .sb import run_batch as sb_run
from .strategy import (
    CandidateEvaluation,
    CorrelationMatrix,
    DeviationVector,
    StrategyParams,
    Universe,
    build_split,
    compute_deviation,
    deviation,
    evaluate_candidate,
    group_possible,
    lot_size,
)

__all__ = [
    "LONG",
    "SHORT",
    "Order",
    "Fill",
    "Position",
    "EngineConfig",
    "TradingEngine",
    "decide",
    "ORDER_LOG_HEADER",
]

LONG = "long"
SHORT = "short"
OPEN_ACTION = "open"
CLOSE_ACTION = "close"

PENDING_OPEN = "pending_open"
OPEN = "open"
PENDING_CLOSE = "pending_close"
CLOSED = "closed"
_NEXT_STATE = {PENDING_OPEN: OPEN, OPEN: PENDING_CLOSE, PENDING_CLOSE: CLOSED}

ORDER_LOG_HEADER = "ts_us,code,side,lots,price,action"


@dataclass(frozen=True)
class Order:
    order_id: int
    ts: int
    code: str
    side: str
    action: str
    lots: int
    intended_price: float


@dataclass(frozen=True)
class Fill:
    order_id: int
    ts: int
    price: float


@dataclass
class Position:
    code: str
    side: str
    lots: int
    state: str = PENDING_OPEN
    open_price: float | None = None
    close_price: float | None = None
    index: int | None = None  # the stock's universe index; the engine records it at opening

    def advance_state(self, new_state: str) -> None:
        if _NEXT_STATE.get(self.state) != new_state:
            raise ValueError(f"illegal position transition {self.state} -> {new_state}")
        self.state = new_state


@dataclass
class EngineConfig:
    """Strategy parameters, session timing, and the solver's restarts and c0 (defaults: `SbParams`; no schedule)."""

    strategy: StrategyParams = field(default_factory=StrategyParams)
    session_close_us: int = field(default=9_000_000_000, metadata={"kv_seconds": "session_close_s"})
    t_force_us: int = field(default=60_000_000, metadata={"kv_seconds": "t_force_s"})
    restarts: int = SbParams.restarts
    c0: float | None = SbParams.c0
    commission_rate: float = 0.0
    corr_window: int = 5
    warmup_days: int = 5

    def __post_init__(self) -> None:
        self.sb_params()  # SbParams checks c0 and restarts
        if not self.session_close_us > 0:
            raise ValueError("session_close_us must be positive")
        if not 0 <= self.t_force_us < self.session_close_us:
            raise ValueError("t_force_us must be >= 0 and below session_close_us")
        if not 0 <= self.commission_rate < np.inf:
            raise ValueError("commission_rate must be >= 0 and finite")
        if not self.corr_window >= 1:
            raise ValueError("corr_window must be >= 1")
        if not self.warmup_days >= 0:
            raise ValueError("warmup_days must be >= 0")

    def sb_params(self) -> SbParams:
        return SbParams(c0=self.c0, restarts=self.restarts)


def decide(
    split: SplitProblem, dev: DeviationVector, corr: CorrelationMatrix, strategy: StrategyParams, params: SbParams, rng
) -> tuple[SbSolution, CandidateEvaluation] | None:
    """The one decision rule: the group that dev selects, as a length-N row with its verdict; None if a row diverged.

    The split's tick side is replaced from dev (`update_tick` copies; split is not written). One batch of runs
    0..restarts-1, one (restarts, k) draw from rng, solves the k >= 1 unmasked stocks alone (`restrict` fixes each
    masked spin at -1, which keeps every group `check_constraints` accepts and its energy). Each distinct spin
    vector is written back to length N (`expand`) and evaluated once. The row is the lowest-energy accepted one
    (`pick_best` in row order) or, with none accepted, the lowest-energy row. The callees are module globals, looked
    up at call time, so patching `engine.update_tick`, `engine.sb_run` or `engine.evaluate_candidate` sees every call.
    """
    keep = np.flatnonzero(~dev.mask)
    rows = sb_run(restrict(update_tick(split, dev.sgn(), np.abs(dev.dp)), keep), params, rng)
    if None in rows:
        return None
    verdicts: dict[bytes, CandidateEvaluation] = {}  # a verdict depends on the spins alone
    for sol in rows:
        key = sol.spins.tobytes()
        if key not in verdicts:
            verdicts[key] = evaluate_candidate(expand(sol, keep, dev.n), dev, corr, strategy)
    best = pick_best([sol for sol in rows if verdicts[sol.spins.tobytes()].accepted] or rows)
    return expand(best, keep, dev.n), verdicts[best.spins.tobytes()]


class TradingEngine:
    """One day's event loop over a totally ordered feed.

    `fill_handler` maps an issued Order to a Fill (the backcast uses
    fill-at-intended-price); fills are applied synchronously so backcast runs
    are strictly sequential and deterministic.
    """

    def __init__(
        self,
        universe: Universe,
        corr: CorrelationMatrix,
        config: EngineConfig,
        seed: int = 0,
        day_key: int = 0,
        fill_handler=None,
    ) -> None:
        if corr.n != universe.n:
            raise ValueError("correlation matrix size must match the universe")
        self.universe = universe
        self.corr = corr
        self.config = config
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self.day_key = int(day_key)
        self.fill_handler = fill_handler
        self._lots = []
        for stock in universe.stocks:
            try:
                self._lots.append(lot_size(config.strategy.a_trans, stock.min_lot, stock.base_price))
            except ValueError as exc:
                raise ValueError(f"{stock.code}: {exc}") from None
        self._priced_out = np.array(self._lots) < 1
        self.session = MarketSession(universe)
        empty = DeviationVector(dp=np.zeros(universe.n), mask=np.zeros(universe.n, dtype=bool))
        self.split = build_split(empty, corr, config.strategy)
        self.positions: list[Position] = []
        self._open = np.zeros(universe.n, dtype=bool)  # a position not yet closed, by stock
        self.fills: list[tuple[Order, Fill]] = []
        self.event_index = 0
        self.skipped_events = 0
        self._outstanding: dict[int, tuple[Order, Position]] = {}
        self._next_order_id = 0
        self._params = config.sb_params()
        self._force_us = config.session_close_us - config.t_force_us
        self._checked_vwap: np.ndarray | None = None  # the vwap_pub that close_policy last read
        self._opened = False  # an open fill arrived after the last close_policy

    # -- event flow ---------------------------------------------------------

    def process(self, e: TickEvent) -> None:
        """Advance the session, apply the event, check the open positions, then decide on a quote change.

        `close_policy` runs only when its inputs may have changed since it last
        ran: `vwap_pub` was republished (the session assigns a new array on each
        publish), this event changed the quote of an open stock, a fill opened a
        position (it may arrive between events when there is no fill handler),
        or the event is inside the forced-unwind window.
        """
        session = self.session
        session.advance(e.ts)
        changed = session.apply(e)
        if (
            session.vwap_pub is not self._checked_vwap
            or self._opened
            or (changed and self._open[self.universe.index(e.code)])
            or e.ts >= self._force_us
        ):
            self.close_policy(e.ts)
        if changed:
            self.on_quote_change(e.ts, e.code)
        self.event_index += 1

    def finalize(self, ts: int) -> None:
        """Force-close everything still open at the last known quotes."""
        for pos in self.positions:
            if pos.state == OPEN:
                self._issue_close(pos, ts)
        still_open = [p.code for p in self.positions if p.state not in (CLOSED,)]
        if still_open:
            raise RuntimeError(f"positions not closed at session end: {still_open}")

    # -- opening ------------------------------------------------------------

    def on_quote_change(self, ts: int, code: str | None = None) -> list[Order]:
        """Let `decide` pick a group from the decision's (seed, day, event) stream; returns any orders issued.

        Each kind of call does only its own work: inside the forced-unwind window or with no room for n_s more
        stocks it computes nothing, a one-sided one (`group_possible` fails) only the deviation, and only a solving
        one lets `decide` derive a tick side from it; `self.split`, the day split, is never rebound. A call that stops
        builds no stream and runs no batch, which moves no other decision, since each draws from its own stream. Only
        a decision whose batch diverged counts in `skipped_events`; an accepted group goes to `judge_open`.
        """
        if ts >= self._force_us:
            return []  # inside the forced-unwind window; judgment would reject
        n_s, p_max = self.config.strategy.n_s, self.config.strategy.p_max
        if np.count_nonzero(self._open) + n_s > p_max:
            return []  # the room is full: no group of n_s more stocks fits
        dev = self._deviation()
        if not group_possible(dev, n_s):
            return []  # a side of VWAP is short of n_s/2 unmasked stocks
        rng = substream(self.seed, self.day_key, self.event_index)
        decided = decide(self.split, dev, self.corr, self.config.strategy, self._params, rng)
        if decided is None:
            self.skipped_events += 1
            return []
        row, verdict = decided
        return self.judge_open(np.flatnonzero(row.spins > 0), dev, ts) if verdict.accepted else []

    def judge_open(self, selected: np.ndarray, dev: DeviationVector, ts: int) -> list[Order]:
        """Open the whole group; register each position before issuing its order.

        The group passed `check_constraints`, so no stock in it is masked: none is
        open or priced out, and each dp is nonzero, its sign giving the side.
        `on_quote_change` decides only when the open list has room for a group,
        so the room is not checked again here.
        """
        orders = []
        for i in map(int, selected):
            side = LONG if dev.dp[i] < 0 else SHORT
            price = float(self.session.buffer.ask[i] if side == LONG else self.session.buffer.bid[i])
            pos = Position(code=self.universe.codes[i], side=side, lots=self._lots[i], index=i)
            self.positions.append(pos)
            self._open[i] = True
            orders.append(self._issue(pos, OPEN_ACTION, ts, price))
        return orders

    # -- closing ------------------------------------------------------------

    def close_policy(self, now: int) -> list[Order]:
        """Close on deviation sign-cross (convergence take-profit) or forced unwind.

        A position opens only on an unmasked stock, so its quote stays valid for
        the day and the published VWAP has a finite entry for it. Each call
        checks every open position and records the `vwap_pub` it read, which is
        how `process` knows when the next call can be skipped.
        """
        forced = now >= self._force_us
        b = self.session.buffer
        vwap = self._checked_vwap = self.session.vwap_pub
        self._opened = False
        base = self.universe.base_prices()
        orders = []
        for pos in self.positions:
            if pos.state != OPEN:
                continue
            i = pos.index
            dp = deviation(b.ask[i], b.bid[i], vwap[i], base[i])
            crossed = dp >= 0.0 if pos.side == LONG else dp <= 0.0
            if forced or crossed:
                orders.append(self._issue_close(pos, now))
        return orders

    def _issue_close(self, pos: Position, ts: int) -> Order:
        i = pos.index
        price = float(self.session.buffer.bid[i] if pos.side == LONG else self.session.buffer.ask[i])
        return self._issue(pos, CLOSE_ACTION, ts, price)

    # -- order/fill plumbing --------------------------------------------------

    def _issue(self, pos: Position, action: str, ts: int, price: float) -> Order:
        order = Order(
            order_id=self._next_order_id,
            ts=ts,
            code=pos.code,
            side=pos.side,
            action=action,
            lots=pos.lots,
            intended_price=price,
        )
        self._next_order_id += 1
        if action == CLOSE_ACTION:
            pos.advance_state(PENDING_CLOSE)
        self._outstanding[order.order_id] = (order, pos)
        if self.fill_handler is not None:
            fill = self.fill_handler(order)
            if fill is not None:
                self.on_fill(fill)
        return order

    def on_fill(self, fill: Fill) -> None:
        try:
            order, pos = self._outstanding.pop(fill.order_id)
        except KeyError:
            raise ValueError(f"fill for unknown order {fill.order_id}") from None
        if order.action == OPEN_ACTION:
            pos.advance_state(OPEN)
            pos.open_price = fill.price
            self._opened = True
        else:
            pos.advance_state(CLOSED)
            pos.close_price = fill.price
            self._open[pos.index] = False
        self.fills.append((order, fill))

    @property
    def open_codes(self) -> frozenset[str]:
        """Codes of the positions not yet closed, derived from the open mask."""
        return frozenset(self.universe.codes[i] for i in np.flatnonzero(self._open).tolist())

    # -- helpers --------------------------------------------------------------

    def _deviation(self) -> DeviationVector:
        excluded = self._priced_out | self._open
        b = self.session.buffer
        return compute_deviation(self.universe, b.ask, b.bid, b.valid, self.session.vwap_pub, excluded)
