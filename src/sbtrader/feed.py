"""Tick feed schema, deterministic replay, VWAP accumulation, and synthetic feeds.

Feed files are line-based CSV `ts_us,code,kind,p1,p2` where a quote carries
(ask, bid) and a trade carries (price, volume). Timestamps are integer
microseconds since session open and must be nondecreasing.

`TickEvent` is an immutable named tuple whose kind is checked on every
construction path (call, `_make`, `_replace`, copy and pickle).

`replay` owns the format: a bad header, field count, number, kind or timestamp
order is a corrupt file and raises with the line number. `MarketSession` owns
every per-event market rule: it routes events, takes the one-second samples
and publishes the VWAP. A bad price or volume, or a code outside the universe,
is dropped and counted in `PriceBuffer.rejected` or `VwapAccumulator.rejected`;
the backcast logs these counts once per replayed day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .strategy import Universe

__all__ = [
    "TickEvent",
    "PriceBuffer",
    "VwapAccumulator",
    "SampledSeries",
    "MarketSession",
    "SynthSpec",
    "replay",
    "write_feed",
    "synth_generate",
]

FEED_HEADER = "ts_us,code,kind,p1,p2"
QUOTE = "quote"
TRADE = "trade"
PUBLISH_INTERVAL_US = 1_000_000
SAMPLE_INTERVAL_US = 1_000_000


class _TickFields(NamedTuple):
    ts: int
    code: str
    kind: str
    p1: float
    p2: float


class TickEvent(_TickFields):
    """One feed event; a quote carries (ask, bid) and a trade (price, volume)."""

    __slots__ = ()

    def __new__(cls, ts: int, code: str, kind: str, p1: float, p2: float) -> TickEvent:
        if kind not in (QUOTE, TRADE):
            raise ValueError(f"unknown event kind {kind!r}")
        # not super().__new__: that is one more Python call per feed line
        return tuple.__new__(cls, (ts, code, kind, p1, p2))

    @classmethod
    def _make(cls, iterable) -> TickEvent:
        # namedtuple's own _make, which _replace calls, bypasses __new__
        return cls(*iterable)

    ask = price = _TickFields.p1
    bid = volume = _TickFields.p2


class PriceBuffer:
    """Latest best ask/bid per stock; invalid until the first accepted quote."""

    def __init__(self, n: int) -> None:
        self.ask = np.full(n, np.nan)
        self.bid = np.full(n, np.nan)
        self.valid = np.zeros(n, dtype=bool)
        self.rejected = 0

    def update_quote(self, idx: int | None, ask: float, bid: float) -> bool:
        """Apply a quote; returns True iff ask or bid actually changed.

        A quote for no stock (idx None) or a crossed, nonpositive or non-finite
        one (NaN fails the chained comparison) is rejected: counted, not raised.
        So is one whose mid would overflow (ask + bid is inf).
        """
        if idx is None or not (0 < bid <= ask and ask + bid < np.inf):
            self.rejected += 1
            return False
        changed = not self.valid[idx] or self.ask[idx] != ask or self.bid[idx] != bid
        self.ask[idx] = ask
        self.bid[idx] = bid
        self.valid[idx] = True
        return bool(changed)

    def mid(self) -> np.ndarray:
        return (self.ask + self.bid) / 2.0


class VwapAccumulator:
    """Cumulative sum(price*volume) / sum(volume) per stock, session to date."""

    def __init__(self, n: int) -> None:
        self.value_sum = np.zeros(n)
        self.volume_sum = np.zeros(n)
        self.rejected = 0

    def add_trade(self, idx: int | None, price: float, volume: float) -> None:
        """Accumulate a trade; one for no stock (idx None) or with a price or volume
        outside (0, inf), NaN too, is counted, not added."""
        if idx is None or not (0 < price < np.inf and 0 < volume < np.inf):
            self.rejected += 1
            return
        self.value_sum[idx] += price * volume
        self.volume_sum[idx] += volume

    def vwap(self) -> np.ndarray:
        """Instantaneous VWAP; NaN where no volume has traded."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.volume_sum > 0, self.value_sum / self.volume_sum, np.nan)


@dataclass
class SampledSeries:
    """One-second (mid - VWAP) samples for the daily correlation factors."""

    n: int
    rows: list[np.ndarray] = field(default_factory=list)

    def append(self, sample: np.ndarray) -> None:
        self.rows.append(np.asarray(sample, dtype=np.float64))

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.empty((0, self.n))
        return np.vstack(self.rows)


class MarketSession:
    """Per-day market state; the one owner of the per-event market rules.

    `apply(e)` returns True only for a quote that changed the stock's ask or
    bid. Trades feed the VWAP and never trigger a decision; they reach the
    solver at the next publish. An unknown code passes no index, so the buffer
    or the accumulator drops and counts the event.

    `advance(ts)` runs on the pre-event state. It takes one (mid - VWAP)
    sample per whole second up to ts, NaN for a stock without a valid quote
    or a VWAP, then publishes `vwap_pub` at the first event and at most once
    per second after it. Each publish assigns a new array, so a caller can tell
    a republished VWAP by identity. Until a stock trades, from construction on,
    `vwap_pub` holds its base price as a placeholder. The samples and the
    publish of one call share one `accumulator.vwap()`, computed only when a
    sample or a publish is due: `advance` changes no trade sums.
    """

    def __init__(self, universe: Universe) -> None:
        self.universe = universe
        self.buffer = PriceBuffer(universe.n)
        self.accumulator = VwapAccumulator(universe.n)
        self.samples = SampledSeries(universe.n)
        self.vwap_pub = universe.base_prices()
        self._last_publish_us: int | None = None
        self._next_sample_us = 0

    def advance(self, ts: int) -> None:
        vwap = None  # nothing here changes the accumulator, so its VWAP is read at most once
        while self._next_sample_us <= ts:
            if vwap is None:
                vwap = self.accumulator.vwap()
            ok = self.buffer.valid & np.isfinite(vwap)
            self.samples.append(np.where(ok, self.buffer.mid() - vwap, np.nan))
            self._next_sample_us += SAMPLE_INTERVAL_US
        if self._last_publish_us is None or ts - self._last_publish_us >= PUBLISH_INTERVAL_US:
            if vwap is None:
                vwap = self.accumulator.vwap()
            self.vwap_pub = np.where(np.isfinite(vwap), vwap, self.universe.base_prices())
            self._last_publish_us = ts

    def apply(self, e: TickEvent) -> bool:
        try:
            idx = self.universe.index(e.code)
        except KeyError:
            idx = None
        if e.kind == QUOTE:
            return self.buffer.update_quote(idx, e.ask, e.bid)
        self.accumulator.add_trade(idx, e.price, e.volume)
        return False


def _fmt(v: float) -> str:
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def write_feed(path, events: list[TickEvent]) -> None:
    with open(path, "w") as fh:
        fh.write(FEED_HEADER + "\n")
        for e in events:
            fh.write(f"{e.ts},{e.code},{e.kind},{_fmt(e.p1)},{_fmt(e.p2)}\n")


def replay(path) -> Iterator[TickEvent]:
    """Stream events from a feed file in order, enforcing nondecreasing timestamps.

    Line 1 must be the header; an empty file yields nothing. Blank lines after
    it are skipped.
    """
    with open(path) as fh:
        header = next(fh, None)
        if header is None:
            return
        if header.strip() != FEED_HEADER:
            raise ValueError(f"{path}:1: expected header {FEED_HEADER!r}")
        last_ts = -math.inf
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields")
            try:
                ts = int(parts[0])
                e = TickEvent(ts, parts[1], parts[2], float(parts[3]), float(parts[4]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if ts < last_ts:
                raise ValueError(f"{path}:{lineno}: timestamp regression {ts} < {last_ts}")
            last_ts = ts
            yield e


@dataclass
class SynthSpec:
    """Synthetic feed shape: Poisson event arrivals, mean-reverting mids.

    Rates are per stock per second; `reversion` of 0 gives a pure random walk
    and `spread_ticks` of 0 gives a locked (ask == bid) market.
    """

    duration_s: float = 300.0
    quote_rate: float = 1.0
    trade_rate: float = 0.2
    spread_ticks: int = 2
    tick: float = 1.0
    vol: float = 0.001
    reversion: float = 0.02
    volume_lots: int = 5

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN; each message names its field
        for ok, message in (
            (0 < self.duration_s < math.inf, "duration_s must be positive and finite"),
            (0 <= self.quote_rate < math.inf, "quote_rate must be >= 0 and finite"),
            (0 <= self.trade_rate < math.inf, "trade_rate must be >= 0 and finite"),
            (self.spread_ticks >= 0, "spread_ticks must be >= 0"),
            (0 < self.tick < math.inf, "tick must be positive and finite"),
            (0 <= self.vol < math.inf, "vol must be >= 0 and finite"),
            (0 <= self.reversion < math.inf, "reversion must be >= 0 and finite"),
            (self.volume_lots >= 1, "volume_lots must be >= 1"),
        ):
            if not ok:
                raise ValueError(message)


def synth_generate(universe: Universe, spec: SynthSpec, seed: int, path) -> int:
    """Write a deterministic synthetic feed; returns the event count.

    Each stock's mid follows an OU walk around its base price, evaluated at
    Poisson event times; quotes straddle the quantized mid and trades print
    at it with lot-sized volumes.
    """
    rng = np.random.default_rng([int(seed)])
    duration_us = int(spec.duration_s * 1_000_000)
    half_hi = (spec.spread_ticks + 1) // 2
    half_lo = spec.spread_ticks // 2
    events: list[TickEvent] = []
    for stock in universe.stocks:
        n_quotes = int(rng.poisson(spec.quote_rate * spec.duration_s))
        n_trades = int(rng.poisson(spec.trade_rate * spec.duration_s))
        times = rng.integers(0, duration_us, n_quotes + n_trades)
        kinds = [QUOTE] * n_quotes + [TRADE] * n_trades
        order = np.argsort(times, kind="stable")
        mid = float(stock.base_price)
        floor = spec.tick * (spec.spread_ticks + 1)
        last_us = 0
        for k in order:
            ts = int(times[k])
            dt_s = max(ts - last_us, 0) / 1e6
            last_us = ts
            drift = spec.reversion * (stock.base_price - mid) * dt_s
            shock = spec.vol * stock.base_price * np.sqrt(dt_s) * rng.standard_normal()
            mid = max(mid + drift + shock, floor)
            ticks = float(mid) / spec.tick  # a Python division overflows to inf without a warning
            if not math.isfinite(ticks):  # an extreme but finite vol or tick
                raise ValueError(f"stock {stock.code}: mid {mid} / tick {spec.tick} overflows; lower vol or raise tick")
            px = round(ticks) * spec.tick
            if kinds[k] == QUOTE:
                events.append(
                    TickEvent(ts=ts, code=stock.code, kind=QUOTE, p1=px + half_hi * spec.tick, p2=px - half_lo * spec.tick)
                )
            else:
                volume = stock.min_lot * int(rng.integers(1, spec.volume_lots + 1))
                events.append(TickEvent(ts=ts, code=stock.code, kind=TRADE, p1=px, p2=volume))
    events.sort(key=lambda e: (e.ts, e.code, e.kind))
    write_feed(path, events)
    return len(events)
