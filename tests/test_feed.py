"""Tests for feed parsing/replay, VWAP accumulation, and the synthetic generator."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sbtrader.feed import (
    PUBLISH_INTERVAL_US,
    SAMPLE_INTERVAL_US,
    MarketSession,
    SynthSpec,
    TickEvent,
    VwapAccumulator,
    replay,
    synth_generate,
    write_feed,
)
from sbtrader.strategy import Stock, Universe, config_from_kv

import helpers


def uni(n=3, base=1000.0):
    return Universe([Stock(f"90{i:02d}", base, 100) for i in range(1, n + 1)])


class TestTickEvent:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            TickEvent(0, "9001", "order", 1.0, 2.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TickEvent(ts=0, code="9001", kind="order", p1=1.0, p2=2.0),
            lambda: TickEvent._make((0, "9001", "order", 1.0, 2.0)),
            lambda: TickEvent(0, "9001", "quote", 1.0, 2.0)._replace(kind="order"),
            lambda: pickle.loads(pickle.dumps(TickEvent(0, "9001", "quote", 1.0, 2.0)).replace(b"quote", b"quota")),
            lambda: copy.copy(tuple.__new__(TickEvent, (0, "9001", "order", 1.0, 2.0))),
        ],
        ids=["keyword", "_make", "_replace", "pickle", "copy"],
    )
    def test_kind_checked_on_every_construction_path(self, build):
        # positional construction is test_bad_kind
        with pytest.raises(ValueError, match="unknown event kind"):
            build()

    def test_immutable_record(self):
        e = TickEvent(1, "9001", "quote", 101.0, 99.0)
        assert repr(e) == "TickEvent(ts=1, code='9001', kind='quote', p1=101.0, p2=99.0)"
        assert e == TickEvent(ts=1, code="9001", kind="quote", p1=101.0, p2=99.0) != e._replace(ts=2)
        assert pickle.loads(pickle.dumps(e)) == copy.copy(e) == e
        for name in ("ts", "p1", "ask", "volume", "other"):
            with pytest.raises(AttributeError):
                setattr(e, name, 0)

    def test_trade_volume_positive(self):
        # a volume <= 0 constructs; the session drops it, counts it and leaves the VWAP alone
        s = MarketSession(uni())
        s.apply(TickEvent(0, "9001", "trade", 100.0, 10.0))
        for volume in (0.0, -5.0):
            assert not s.apply(TickEvent(1, "9001", "trade", 101.0, volume))
        acc = s.accumulator
        assert acc.rejected == 2 and acc.vwap()[0] == 100.0 and acc.volume_sum[0] == 10.0

    def test_accessors(self):
        q = TickEvent(1, "9001", "quote", 101.0, 99.0)
        t = TickEvent(2, "9001", "trade", 100.0, 10.0)
        assert q.ask == 101.0 and q.bid == 99.0
        assert t.price == 100.0 and t.volume == 10.0


class TestApplyEvent:
    """`MarketSession.apply`: routing by code and the quote and trade value rules."""

    def test_quote_change_flag(self):
        s = MarketSession(uni())
        first = s.apply(TickEvent(0, "9001", "quote", 101, 99))
        repeat = s.apply(TickEvent(1, "9001", "quote", 101, 99))
        moved = s.apply(TickEvent(2, "9001", "quote", 102, 99))
        assert first and not repeat and moved

    def test_trades_never_trigger(self):
        s = MarketSession(uni())
        assert not s.apply(TickEvent(0, "9001", "trade", 100, 10))
        assert not s.buffer.valid[0]
        assert s.accumulator.vwap()[0] == 100.0

    def test_vwap_weighted_mean(self):
        s = MarketSession(uni())
        s.apply(TickEvent(0, "9001", "trade", 100, 10))
        s.apply(TickEvent(1, "9001", "trade", 102, 30))
        assert s.accumulator.vwap()[0] == pytest.approx(101.5)

    def test_unknown_code(self):
        # dropped and counted by the quote or trade rule; the market state is unchanged
        s = MarketSession(uni())
        assert not s.apply(TickEvent(0, "zzz", "quote", 101, 99))
        assert not s.apply(TickEvent(1, "zzz", "trade", 100, 10))
        buf, acc = s.buffer, s.accumulator
        assert buf.rejected == 1 and acc.rejected == 1
        assert not buf.valid.any() and np.isnan(buf.ask).all() and np.isnan(buf.bid).all()
        assert not acc.value_sum.any() and not acc.volume_sum.any()

    def test_crossed_quote_rejected_with_count(self):
        s = MarketSession(uni())
        changed = s.apply(TickEvent(0, "9001", "quote", 99, 101))
        assert not changed and s.buffer.rejected == 1 and not s.buffer.valid[0]

    @pytest.mark.parametrize("ask, bid", [(np.nan, 99.0), (np.inf, 99.0), (101.0, np.nan), (1e308, 1e308)])
    def test_non_finite_quote_rejected_with_count(self, ask, bid):  # 1e308: the mid would overflow
        s = MarketSession(uni())
        changed = s.apply(TickEvent(0, "9001", "quote", ask, bid))
        assert not changed and s.buffer.rejected == 1 and not s.buffer.valid[0]

    def test_non_finite_trades_rejected_with_count(self):
        # one NaN-price and one inf-volume trade must not poison the stock's VWAP for the day
        s, finite = MarketSession(uni()), VwapAccumulator(3)
        trades = [(100.0, 10.0), (np.nan, 10.0), (102.0, 30.0), (101.0, np.inf), (99.0, 5.0)]
        for k, (price, volume) in enumerate(trades):
            s.apply(TickEvent(k, "9002", "trade", price, volume))
            if np.isfinite(price) and np.isfinite(volume):
                finite.add_trade(1, price, volume)
        assert s.accumulator.rejected == 2 and finite.rejected == 0
        assert s.accumulator.vwap()[1] == finite.vwap()[1] == pytest.approx((1000 + 3060 + 495) / 45)
        s.advance(5)
        assert s.vwap_pub[1] == finite.vwap()[1]

    @given(
        hs.integers(min_value=1, max_value=10_000),
        hs.integers(min_value=1, max_value=1_000),
        hs.integers(min_value=1, max_value=999),
    )
    def test_vwap_invariant_under_trade_split(self, price, volume, cut_seed):
        # same total value and volume in one trade or two
        u = uni()
        one = VwapAccumulator(u.n)
        two = VwapAccumulator(u.n)
        one.add_trade(0, float(price), float(2 * volume))
        cut = cut_seed % (2 * volume - 1) + 1 if 2 * volume > 1 else 1
        two.add_trade(0, float(price), float(cut))
        two.add_trade(0, float(price), float(2 * volume - cut))
        assert one.vwap()[0] == pytest.approx(two.vwap()[0])


class TestPublish:
    """`MarketSession.advance`: the publish cadence and the one-second samples."""

    def test_cadence(self):
        u = uni()
        s = MarketSession(u)
        assert np.array_equal(s.vwap_pub, u.base_prices())  # the placeholder until the first publish
        s.advance(0)
        first = s.vwap_pub
        s.apply(TickEvent(0, "9001", "trade", 100, 10))
        s.advance(500_000)
        assert s.vwap_pub is first  # not due: the trade waits for the next publish
        s.advance(1_000_000)
        assert s.vwap_pub is not first and s.vwap_pub[0] == 100.0

    def test_placeholder_base_prices(self):
        u = uni()
        s = MarketSession(u)
        s.advance(0)
        assert np.array_equal(s.vwap_pub, u.base_prices())

    def test_constant_trade_price(self):
        s = MarketSession(uni())
        for k in range(5):
            s.apply(TickEvent(k, "9002", "trade", 250.0, 10.0))
        s.advance(5)
        assert s.vwap_pub[1] == 250.0

    def test_sample_vector_requires_quote_and_vwap(self):
        s = MarketSession(uni())
        s.apply(TickEvent(0, "9001", "quote", 101, 99))
        s.apply(TickEvent(0, "9001", "trade", 99, 5))
        s.apply(TickEvent(0, "9002", "trade", 50, 5))  # no quote
        s.apply(TickEvent(0, "9003", "quote", 51, 49))  # no VWAP
        s.advance(0)
        (row,) = s.samples.rows
        assert row[0] == pytest.approx(1.0)  # mid 100 - vwap 99
        assert np.isnan(row[1]) and np.isnan(row[2])


class TestSharedVwap:
    """`advance` reads the accumulator's VWAP at most once, with the samples and publish of a read per use."""

    class PerUseSession(MarketSession):
        """The rule with one `accumulator.vwap()` per sample and per publish."""

        def advance(self, ts):
            while self._next_sample_us <= ts:
                vwap = self.accumulator.vwap()
                ok = self.buffer.valid & np.isfinite(vwap)
                self.samples.append(np.where(ok, self.buffer.mid() - vwap, np.nan))
                self._next_sample_us += SAMPLE_INTERVAL_US
            if self._last_publish_us is None or ts - self._last_publish_us >= PUBLISH_INTERVAL_US:
                vwap = self.accumulator.vwap()
                self.vwap_pub = np.where(np.isfinite(vwap), vwap, self.universe.base_prices())
                self._last_publish_us = ts

    @staticmethod
    def gap_feed():
        """Quotes and trades on three stocks with a 4.5-second gap; stock 9003 never trades."""
        return [
            TickEvent(0, "9001", "quote", 101.0, 99.0),
            TickEvent(10, "9001", "trade", 100.5, 30.0),
            TickEvent(20, "9003", "quote", 52.0, 50.0),
            TickEvent(600_000, "9002", "trade", 49.25, 7.0),
            TickEvent(1_200_000, "9002", "quote", 50.5, 49.5),
            TickEvent(1_300_000, "9001", "trade", 101.75, 11.0),
            TickEvent(5_800_000, "9001", "quote", 103.0, 101.0),  # samples at 2-5 s and a publish in one call
            TickEvent(5_900_000, "9002", "trade", 50.125, 3.0),
            TickEvent(7_000_000, "9003", "quote", 53.0, 51.0),
        ]

    def test_samples_and_publish_equal_the_per_use_rule(self):
        u = uni(3)
        shared, per_use = MarketSession(u), self.PerUseSession(u)
        for e in self.gap_feed():
            for s in (shared, per_use):
                s.advance(e.ts)
                s.apply(e)
            assert np.array_equal(shared.vwap_pub, per_use.vwap_pub)
        rows = shared.samples.matrix()
        assert rows.shape == (8, 3) and np.isfinite(rows).any()
        assert np.array_equal(rows, per_use.samples.matrix(), equal_nan=True)

    def test_vwap_read_at_most_once_per_advance(self, monkeypatch):
        reads = []
        vwap = VwapAccumulator.vwap
        monkeypatch.setattr(VwapAccumulator, "vwap", lambda self: reads.append(1) or vwap(self))
        s = MarketSession(uni(3))
        per_call = []
        for e in self.gap_feed():
            reads.clear()
            s.advance(e.ts)
            per_call.append(len(reads))
            s.apply(e)
        # a read where a sample or a publish is due (0 s, 1.2 s, 5.8 s and 7 s), none elsewhere
        assert per_call == [1, 0, 0, 0, 1, 0, 1, 0, 1]


class TestReplay:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        assert list(replay(path)) == []

    def test_round_trip_order_and_count(self, tmp_path):
        events = [
            TickEvent(0, "9001", "quote", 101, 99),
            TickEvent(5, "9002", "trade", 55, 10),
            TickEvent(5, "9003", "quote", 201, 199),
        ]
        path = tmp_path / "f.csv"
        write_feed(path, events)
        back = list(replay(path))
        assert back == events

    def test_timestamp_regression(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("ts_us,code,kind,p1,p2\n10,9001,quote,101,99\n5,9001,quote,101,99\n")
        with pytest.raises(ValueError, match="regression"):
            list(replay(path))

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("ts_us,code,kind,p1,p2\n10,9001,quote,101\n")
        with pytest.raises(ValueError, match=":2"):
            list(replay(path))

    def test_header_required(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("10,9001,quote,101,99\n")
        with pytest.raises(ValueError, match="header"):
            list(replay(path))

    @pytest.mark.parametrize("text", ["\n10,9001,quote,101,99\n", "\nts_us,code,kind,p1,p2\n10,9001,quote,101,99\n"])
    def test_header_must_be_line_1(self, tmp_path, text):
        # the reference parser skips a blank line 1, so neither file's header is checked there
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:1: expected header")):
            list(replay(path))


def outcome(parse, path):
    """The events with the type of every field, or the error message."""
    try:
        events = list(parse(path))
    except ValueError as exc:
        return str(exc)
    return events, [tuple(map(type, e)) for e in events]


HEADER = "ts_us,code,kind,p1,p2\n"


class TestReplayMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spread_ticks", [0, 2])
    def test_synthetic_feeds(self, tmp_path, seed, spread_ticks):
        path = tmp_path / "f.csv"
        synth_generate(uni(4), SynthSpec(duration_s=20.0, trade_rate=0.5, spread_ticks=spread_ticks), seed, path)
        events, types = outcome(replay, path)
        assert {e.kind for e in events} == {"quote", "trade"}
        assert set(types) == {(int, str, str, float, float)}
        assert outcome(helpers.reference_replay, path) == (events, types)

    @pytest.mark.parametrize(
        "text",
        [
            HEADER + "10,9001,quote,101\n",
            HEADER + "10,9001,quote,101,99,1\n",
            HEADER + "10,9001,quote,101,99\n1.5,9001,quote,101,99\n",
            HEADER + "10,9001,quote,abc,99\n",
            HEADER + "10,9001,trade,100, 5x \n",
            HEADER + "10,9001,order,101,99\n",
            HEADER + "10,9001,quote,101,99\n5,9001,quote,101,99\n",
            HEADER + "10,9001,quote,101,99\n\n\n11,9002,trade,100,5\n\n12,9001,quote,101\n",
            HEADER + " \t \n 10,9001,quote,101,99 \n   \n5,9001,quote,101,99\n",
            (HEADER + "10,9001,quote,101,99\n11,9001,trade,100,5\n9,9001,quote,1,2\n").replace("\n", "\r\n"),
            HEADER.replace("\n", " \n") + "10,9001,quote,101,99\n",
            HEADER,
            "ts,code,kind,p1,p2\n10,9001,quote,101,99\n",
        ],
        ids=[
            "short-line",
            "six-fields",
            "non-integer-ts",
            "non-numeric-price",
            "non-numeric-volume",
            "unknown-kind",
            "ts-regression",
            "blank-lines",
            "whitespace-lines",
            "crlf",
            "padded-header",
            "header-only",
            "wrong-header",
        ],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        assert outcome(replay, path) == outcome(helpers.reference_replay, path)


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        u = uni(4)
        spec = SynthSpec(duration_s=30.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        synth_generate(u, spec, 7, a)
        synth_generate(u, spec, 7, b)
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        synth_generate(u, spec, 8, c)
        assert a.read_bytes() != c.read_bytes()

    def test_round_trips_through_replay(self, tmp_path):
        u = uni(3)
        path = tmp_path / "f.csv"
        count = synth_generate(u, SynthSpec(duration_s=20.0), 3, path)
        events = list(replay(path))
        assert len(events) == count
        ts = [e.ts for e in events]
        assert ts == sorted(ts)

    def test_event_count_poisson_concentration(self, tmp_path):
        u = uni(5)
        spec = SynthSpec(duration_s=120.0, quote_rate=2.0, trade_rate=1.0)
        expected = u.n * (spec.quote_rate + spec.trade_rate) * spec.duration_s
        path = tmp_path / "f.csv"
        count = synth_generate(u, spec, 11, path)
        assert abs(count - expected) <= 5 * np.sqrt(expected)

    def test_prices_positive_and_quotes_sane(self, tmp_path):
        u = uni(2, base=50.0)
        path = tmp_path / "f.csv"
        synth_generate(u, SynthSpec(duration_s=60.0, vol=0.05, spread_ticks=3), 5, path)
        for e in replay(path):
            if e.kind == "quote":
                assert e.ask >= e.bid > 0
            else:
                assert e.price > 0 and e.volume > 0

    def test_locked_market_mode(self, tmp_path):
        u = uni(2)
        path = tmp_path / "f.csv"
        synth_generate(u, SynthSpec(duration_s=20.0, spread_ticks=0), 9, path)
        quotes = [e for e in replay(path) if e.kind == "quote"]
        assert quotes and all(e.ask == e.bid for e in quotes)

    def test_spec_from_kv_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key: bogus"):
            config_from_kv(SynthSpec, {"duration_s": "10", "bogus": "1"})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(duration_s=-1.0)

    @pytest.mark.parametrize("key", ["duration_s", "vol", "quote_rate", "trade_rate", "tick", "reversion"])
    def test_spec_nan_rejected_at_load_with_key(self, key):
        # +-inf too: an infinite duration, vol or tick used to crash synth_generate
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match=rf"\b{key}\b"):
                config_from_kv(SynthSpec, {key: value})


    @pytest.mark.parametrize("spec", [SynthSpec(duration_s=5.0, vol=1e306), SynthSpec(duration_s=5.0, tick=1e-320)])
    def test_extreme_finite_spec_raises_value_error_naming_stock(self, tmp_path, spec):
        # the mid, or the mid in ticks, overflows to inf: round() used to raise OverflowError
        with pytest.raises(ValueError, match="stock 9001: .* overflows"):
            synth_generate(uni(1), spec, 0, tmp_path / "f.csv")


class TestMarketSession:
    def test_buffer_reflects_last_quote(self, tmp_path):
        u = uni(2)
        events = [
            TickEvent(0, "9001", "quote", 101, 99),
            TickEvent(10, "9001", "quote", 105, 103),
            TickEvent(20, "9002", "quote", 51, 49),
        ]
        path = tmp_path / "f.csv"
        write_feed(path, events)
        session = MarketSession(u)
        for e in replay(path):
            session.advance(e.ts)
            session.apply(e)
        assert session.buffer.ask[0] == 105 and session.buffer.bid[0] == 103
        assert session.buffer.ask[1] == 51

    def test_sample_rows_cover_whole_seconds(self):
        u = uni(1)
        session = MarketSession(u)
        session.advance(0)
        session.apply(TickEvent(0, "9001", "quote", 101, 99))
        session.apply(TickEvent(0, "9001", "trade", 100, 5))
        session.advance(3_000_000)
        # samples at t=0,1,2,3 seconds
        assert session.samples.matrix().shape == (4, 1)

    def test_replay_twice_identical_state(self, tmp_path):
        u = uni(3)
        path = tmp_path / "f.csv"
        synth_generate(u, SynthSpec(duration_s=15.0), 2, path)

        def run_once():
            s = MarketSession(u)
            for e in replay(path):
                s.advance(e.ts)
                s.apply(e)
            return s.buffer.ask.copy(), s.buffer.bid.copy(), s.accumulator.vwap().copy()

        a = run_once()
        b = run_once()
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)
