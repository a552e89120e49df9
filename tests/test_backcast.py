"""Tests for backcast accounting, Sharpe statistics, and report determinism."""

import logging
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import helpers
from sbtrader import backcast as bc
from sbtrader.backcast import BackcastReport, FillModel, run_backcast, sharpe, transaction_amount
from sbtrader.engine import EngineConfig, TradingEngine
from sbtrader.feed import MarketSession, SynthSpec, TickEvent, replay, synth_generate, write_feed
from sbtrader.strategy import StrategyParams, config_from_kv, correlation_matrix, load_correlation, load_universe, read_kv


class TestSharpe:
    def exact_series(self, mean, std, n=252, seed=0):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 1, n)
        z = (z - z.mean()) / z.std(ddof=1)
        return mean + std * z

    def test_paper_consistent_ratio(self):
        r = self.exact_series(0.036 / 252, 0.029 / math.sqrt(252))
        stats = sharpe(r)
        assert stats.ann_return == pytest.approx(0.036, rel=1e-9)
        assert stats.ann_risk == pytest.approx(0.029, rel=1e-9)
        assert stats.sharpe == pytest.approx(0.036 / 0.029, rel=1e-9)
        assert abs(stats.sharpe - 1.23) < 0.02

    def test_zero_mean(self):
        stats = sharpe(np.array([0.01, -0.01]))
        assert stats.sharpe == pytest.approx(0.0)

    def test_constant_returns_undefined(self):
        stats = sharpe(np.full(10, 0.01))
        assert math.isnan(stats.sharpe)
        assert stats.ann_risk == 0.0

    def test_too_few_returns(self):
        with pytest.raises(ValueError):
            sharpe(np.array([0.01]))


class TestTransactionAmount:
    def test_reference_leg(self):
        assert transaction_amount(5_000, 8, 100) == 4_000_000

    def test_zero_trades(self):
        assert transaction_amount(5_000, 0, 100) == 0.0


class TestFillModel:
    def test_intended_price(self):
        from sbtrader.engine import Order

        order = Order(order_id=1, ts=5, code="x", side="long", action="open", lots=2, intended_price=123.0)
        fill = FillModel().fill(order)
        assert fill.price == 123.0 and fill.order_id == 1 and fill.ts == 5

    def test_negative_commission(self):
        # the commission rate is an EngineConfig setting; FillModel has none
        with pytest.raises(ValueError, match="commission_rate"):
            EngineConfig(commission_rate=-0.1)


def scenario_feeds(tmp_path):
    uni = helpers.make_universe()
    path = tmp_path / "day.csv"
    write_feed(path, helpers.convergence_events(uni.codes))
    return uni, [("2023-02-24", str(path))]


def replayed_session(uni, path):
    session = MarketSession(uni)
    for e in replay(path):
        session.advance(e.ts)
        session.apply(e)
    return session


class TestRunBackcast:
    def test_engineered_scenario_matches_hand_accounting(self, tmp_path):
        uni, feeds = scenario_feeds(tmp_path)
        config = helpers.convergence_params(commission_rate=0.0005)
        report = run_backcast(feeds, uni, config, seed=3, corr_override=helpers.convergence_corr())
        expected_tx, expected_pnl = helpers.convergence_expected(commission_rate=0.0005)
        assert len(report.days) == 1
        assert report.days[0].transactions == pytest.approx(expected_tx, abs=1e-6)
        assert report.days[0].pnl == pytest.approx(expected_pnl, abs=1e-6)
        assert report.days[0].n_trades == 8

    def test_nan_ask_rejected_and_counted(self, tmp_path):
        uni, feeds = scenario_feeds(tmp_path)
        events = helpers.convergence_events(uni.codes)
        events.append(TickEvent(3_000_000, uni.codes[4], "quote", math.nan, helpers.BASE - 1))
        events.sort(key=lambda e: (e.ts, e.code, e.kind))
        path = tmp_path / "nan.csv"
        write_feed(path, events)
        config = helpers.convergence_params(commission_rate=0.0005)
        clean = run_backcast(feeds, uni, config, seed=3, corr_override=helpers.convergence_corr())
        report = run_backcast(
            [("2023-02-24", str(path))], uni, config, seed=3, corr_override=helpers.convergence_corr()
        )
        assert report.days == clean.days
        session = MarketSession(uni)
        for e in replay(path):
            session.advance(e.ts)
            session.apply(e)
        assert session.buffer.rejected == 1

    def test_bad_trades_and_unknown_codes_dropped_and_counted(self, tmp_path, caplog):
        # a zero- or negative-volume print and events for a code outside the universe
        # are dropped and counted; the run completes with the report of the clean feed
        uni, feeds = scenario_feeds(tmp_path)
        events = helpers.convergence_events(uni.codes)
        events += [
            TickEvent(200_000, uni.codes[0], "trade", helpers.BASE, 0),
            TickEvent(2_500_050, "9999", "quote", helpers.BASE + 1, helpers.BASE - 1),
            TickEvent(3_000_000, uni.codes[1], "trade", helpers.BASE, -5),
            TickEvent(50_000_000, "9999", "trade", helpers.BASE, 100),
        ]
        events.sort(key=lambda e: (e.ts, e.code, e.kind))
        path = tmp_path / "bad.csv"
        write_feed(path, events)
        config = helpers.convergence_params(commission_rate=0.0005)
        with caplog.at_level(logging.INFO, logger="sbtrader"):
            clean = run_backcast(feeds, uni, config, seed=3, corr_override=helpers.convergence_corr())
            report = run_backcast(
                [("2023-02-24", str(path))], uni, config, seed=3, corr_override=helpers.convergence_corr()
            )
        # one line per day, a warning only for the day that dropped events
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, f"{feeds[0][1]}: rejected quotes=0 trades=0; skipped events=0 (solver diverged)"),
            (logging.WARNING, f"{path}: rejected quotes=1 trades=3; skipped events=0 (solver diverged)"),
        ]
        assert report.days == clean.days and report.days[0].n_trades == 8
        clean.write(tmp_path / "clean")
        report.write(tmp_path / "bad")
        for name in ("report.csv", "cumulative.csv", "orders.csv", "summary.txt"):
            assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
        session = replayed_session(uni, path)
        assert session.buffer.rejected == 1
        assert session.accumulator.rejected == 3

    def test_empty_feed_day_zero_row(self, tmp_path):
        uni = helpers.make_universe()
        path = tmp_path / "empty.csv"
        path.write_text("")
        config = helpers.convergence_params()
        report = run_backcast([("d0", str(path))], uni, config, corr_override=helpers.convergence_corr())
        assert report.days[0].transactions == 0.0
        assert report.days[0].pnl == 0.0
        assert report.days[0].n_trades == 0

    def test_no_signal_means_zero_trades(self, tmp_path):
        uni = helpers.make_universe()
        events = [helpers.TickEvent(100 + i, c, "trade", helpers.BASE, 100) for i, c in enumerate(uni.codes)]
        events += [
            helpers.TickEvent(2_000_000 + i, c, "quote", helpers.BASE + 1, helpers.BASE - 1)
            for i, c in enumerate(uni.codes)
        ]
        path = tmp_path / "flat.csv"
        write_feed(path, events)
        report = run_backcast(
            [("d0", str(path))], uni, helpers.convergence_params(), corr_override=helpers.convergence_corr()
        )
        assert report.days[0].n_trades == 0

    def test_warmup_days_do_not_trade(self, tmp_path):
        uni, feeds = scenario_feeds(tmp_path)
        config = helpers.convergence_params()
        config.warmup_days = 1
        report = run_backcast(feeds, uni, config, seed=3)  # no override: day 0 is warm-up
        assert report.days[0].n_trades == 0

    def test_correlation_history_keeps_only_the_window(self, tmp_path, monkeypatch):
        # six days, one warm-up day, window 3: the average never sees more than the last 3 days
        uni = helpers.make_universe(4)
        spec = SynthSpec(duration_s=20.0, quote_rate=0.5, trade_rate=0.3, vol=0.003)
        feeds = []
        for day in range(6):
            path = tmp_path / f"d{day}.csv"
            synth_generate(uni, spec, day, path)
            feeds.append((f"d{day}", str(path)))
        config = EngineConfig(
            strategy=StrategyParams(n_s=4, p_max=4, c1=500.0, c2=50.0, c3=50.0, accept_threshold=float("inf")),
            restarts=1,
            session_close_us=20_000_000,
            t_force_us=5_000_000,
            corr_window=3,
            warmup_days=1,
        )
        received = []

        def spy(daily):
            received.append(len(daily))
            return correlation_matrix(daily)

        monkeypatch.setattr(bc, "correlation_matrix", spy)
        report = run_backcast(feeds, uni, config, seed=1)
        assert received == [1, 2, 3, 3, 3]
        assert len(report.days) == 6 and report.days[0].n_trades == 0

    def test_override_builds_no_day_matrix(self, tmp_path, monkeypatch):
        uni, feeds = scenario_feeds(tmp_path)
        monkeypatch.setattr(bc, "day_sigma_matrix", lambda samples: pytest.fail("a day matrix was built"))
        config = helpers.convergence_params()
        report = run_backcast(feeds * 2, uni, config, seed=3, corr_override=helpers.convergence_corr())
        assert [d.n_trades for d in report.days] == [report.days[0].n_trades] * 2
        assert report.days[0].n_trades > 0

    def test_accounting_identity_against_order_log(self, tmp_path):
        uni, feeds = scenario_feeds(tmp_path)
        commission = 0.0005
        config = helpers.convergence_params(commission_rate=commission)
        report = run_backcast(feeds, uni, config, seed=3, corr_override=helpers.convergence_corr())
        lots_of = {s.code: s.min_lot for s in uni.stocks}
        open_legs: dict[str, tuple[str, int, float]] = {}
        pnl = 0.0
        for ts, code, side, lots, price, action in report.order_rows:
            pnl -= commission * price * lots * lots_of[code]
            if action == "open":
                open_legs[code] = (side, lots, price)
            else:
                o_side, o_lots, o_price = open_legs.pop(code)
                direction = 1.0 if o_side == "long" else -1.0
                pnl += direction * (price - o_price) * o_lots * lots_of[code]
        assert not open_legs
        assert pnl == pytest.approx(report.total_pnl(), abs=1e-9)

    def test_determinism_byte_identical_reports(self, tmp_path):
        uni, feeds = scenario_feeds(tmp_path)
        config = helpers.convergence_params(commission_rate=0.001)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_backcast(feeds, uni, config, seed=9, corr_override=helpers.convergence_corr()).write(out)
        for name in ("report.csv", "cumulative.csv", "orders.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_multi_day_warmup_then_trading(self, tmp_path):
        uni = helpers.make_universe(4)
        spec = SynthSpec(duration_s=40.0, quote_rate=0.5, trade_rate=0.3, vol=0.003)
        feeds = []
        for day in range(7):
            path = tmp_path / f"279{day:02d}.csv"
            synth_generate(uni, spec, day, path)
            feeds.append((f"d{day}", str(path)))
        config = EngineConfig(
            strategy=StrategyParams(
                n_s=4, p_max=4, a_trans=4_000_000, c1=500.0, c2=50.0, c3=50.0, accept_threshold=float("inf")
            ),
            restarts=1,
            session_close_us=40_000_000,
            t_force_us=10_000_000,
        )
        report = run_backcast(feeds, uni, config, seed=1)
        assert len(report.days) == 7
        assert all(d.n_trades == 0 for d in report.days[:5])
        assert report.stats is not None

    def test_zero_expected_pnl_on_symmetric_random_walk(self, tmp_path):
        # zero spread, zero commission, reversion-free walk: fills are a
        # martingale, so mean pnl over seeds should sit within 3 SE of 0
        uni = helpers.make_universe(6)
        spec = SynthSpec(duration_s=150.0, quote_rate=0.4, trade_rate=0.3, spread_ticks=0, vol=0.004, reversion=0.0)
        config = EngineConfig(
            strategy=StrategyParams(
                n_s=4, p_max=4, a_trans=4_000_000, c1=500.0, c2=50.0, c3=50.0, accept_threshold=float("inf")
            ),
            restarts=1,
            session_close_us=150_000_000,
            t_force_us=30_000_000,
        )
        pnls = []
        trades = 0
        for seed in range(30):
            path = tmp_path / f"rw{seed}.csv"
            synth_generate(uni, spec, seed, path)
            report = run_backcast(
                [("d", str(path))], uni, config, seed=seed, corr_override=helpers.convergence_corr()
            )
            pnls.append(report.days[0].pnl)
            trades += report.days[0].n_trades
        assert trades > 0  # the test is vacuous if nothing ever opens
        pnls = np.array(pnls)
        se = pnls.std(ddof=1) / math.sqrt(len(pnls))
        assert abs(pnls.mean()) <= 3 * se + 1e-9


class TestReportFiles:
    def test_report_files_written(self, tmp_path):
        uni, feeds = scenario_feeds(tmp_path)
        report = run_backcast(
            feeds, uni, helpers.convergence_params(), seed=3, corr_override=helpers.convergence_corr()
        )
        out = tmp_path / "out"
        report.write(out)
        assert (out / "report.csv").read_text().splitlines()[0] == "date,transaction_amount,pnl,n_trades"
        assert (out / "cumulative.csv").read_text().splitlines()[0] == "date,cum_transactions,cum_pnl"
        assert (out / "orders.csv").read_text().splitlines()[0] == "ts_us,code,side,lots,price,action"
        summary = dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())
        assert summary["days"] == "1"
        assert float(summary["total_pnl"]) == pytest.approx(report.total_pnl())

    def test_cumulative_series_are_running_sums(self):
        report = BackcastReport(capital=1.0)
        from sbtrader.backcast import DayRow

        report.days = [DayRow("a", 10.0, 1.0, 1), DayRow("b", 5.0, -2.0, 1)]
        tx, pnl = report.cumulative()
        assert np.array_equal(tx, [10.0, 15.0])
        assert np.array_equal(pnl, [1.0, -1.0])


FUZZ_UNIVERSE = helpers.make_universe()
BAD_VALUES = (0.0, -helpers.BASE, math.nan, math.inf, -math.inf)


@hs.composite
def feed_line(draw):
    """One well-formed feed line as (event, is_bad); a bad line breaks one value rule."""
    ts = draw(hs.integers(min_value=0, max_value=60_000_000))
    kind = draw(hs.sampled_from(("quote", "trade")))
    fault = draw(hs.sampled_from(("ok", "ok", "ok", "value", "unknown") + (("crossed",) if kind == "quote" else ())))
    code = "9999" if fault == "unknown" else draw(hs.sampled_from(FUZZ_UNIVERSE.codes))
    price = float(draw(hs.integers(min_value=int(0.98 * helpers.BASE), max_value=int(1.02 * helpers.BASE))))
    if kind == "quote":
        spread = float(draw(hs.integers(min_value=0, max_value=4)))
        p1, p2 = (price - spread - 1, price) if fault == "crossed" else (price + spread, price)  # (ask, bid)
    else:
        p1, p2 = price, float(helpers.MIN_LOT * draw(hs.integers(min_value=1, max_value=10)))  # (price, volume)
    if fault == "value":
        bad = draw(hs.sampled_from(BAD_VALUES))
        p1, p2 = (bad, p2) if draw(hs.booleans()) else (p1, bad)
    return TickEvent(ts, code, kind, p1, p2), fault != "ok"


class TestMalformedFeedFuzz:
    @settings(max_examples=50, deadline=None)
    @given(hs.lists(feed_line(), min_size=20, max_size=60))
    def test_run_completes_and_counters_account_for_every_dropped_line(self, lines):
        lines.sort(key=lambda line: line[0].ts)
        bad_quotes = sum(bad for e, bad in lines if e.kind == "quote")
        bad_trades = sum(bad for e, bad in lines if e.kind == "trade")
        config = helpers.convergence_params()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "day.csv"
            write_feed(path, [e for e, _ in lines])
            report = run_backcast([("d0", str(path))], FUZZ_UNIVERSE, config, corr_override=helpers.convergence_corr())
            session = replayed_session(FUZZ_UNIVERSE, path)
        day = report.days[0]
        assert math.isfinite(day.pnl) and math.isfinite(day.transactions)
        assert all(math.isfinite(row[4]) for row in report.order_rows)
        # every open leg has its close (finalize forces out what is still open)
        opens = Counter((code, side) for _, code, side, _, _, action in report.order_rows if action == "open")
        closes = Counter((code, side) for _, code, side, _, _, action in report.order_rows if action == "close")
        assert opens == closes and day.n_trades == len(report.order_rows)
        assert session.buffer.rejected == bad_quotes
        assert session.accumulator.rejected == bad_trades


def gated_and_reference_rows(monkeypatch, day_feeds, universe, config, corr):
    """Order rows of `run_backcast` with the engine and with `helpers.EveryEventCloseEngine`, and their
    close_policy call counts."""
    calls = helpers.count_close_calls(monkeypatch)
    rows = []
    for cls in (TradingEngine, helpers.EveryEventCloseEngine):
        monkeypatch.setattr(bc, "TradingEngine", cls)
        rows.append(run_backcast(day_feeds, universe, config, corr_override=corr).order_rows)
    return rows, calls[TradingEngine], calls[helpers.EveryEventCloseEngine]


class TestDecisionQuality:
    def test_golden_synth16_decisions_open_the_exact_best_group(self, tmp_path, monkeypatch):
        """Each decision with room on the golden_synth16 feeds opens `helpers.best_group` wherever its cost
        clears accept_threshold, and nothing elsewhere; 5 of its 20 decisions with room have such a group.

        The anneal's schedule can move these decisions without any other test failing, so this pins the count.
        """
        files = helpers.write_synthetic_fixture(tmp_path)
        day_feeds = [(p.stem, str(p)) for p in sorted(files["feed_dir"].glob("*.csv"))]
        config = config_from_kv(EngineConfig, read_kv(files["config"]))
        decide = TradingEngine.on_quote_change
        decisions = []  # (best group or None when it does not clear the threshold, the group opened)

        def scored(engine, ts, code=None):
            params = engine.config.strategy
            room = ts < engine._force_us and np.count_nonzero(engine._open) + params.n_s <= params.p_max
            cost, best = helpers.best_group(engine._deviation(), engine.corr, params)
            orders = decide(engine, ts, code)
            if room:
                cleared = best.tolist() if cost <= params.accept_threshold else None
                decisions.append((cleared, sorted(engine.universe.index(o.code) for o in orders)))
            return orders

        monkeypatch.setattr(TradingEngine, "on_quote_change", scored)
        run_backcast(day_feeds, load_universe(files["universe"]), config, corr_override=load_correlation(files["corr"]))
        assert len(decisions) == 20 and sum(best is not None for best, _ in decisions) == 5
        assert all(opened == (best or []) for best, opened in decisions)


class TestCloseGateEquivalence:
    """The engine checks its open positions only when their inputs may have changed, with the same orders
    as a check on every event."""

    def test_synthetic_golden_feeds(self, tmp_path, monkeypatch):
        files = helpers.write_synthetic_fixture(tmp_path)
        day_feeds = [(p.stem, str(p)) for p in sorted(files["feed_dir"].glob("*.csv"))]
        config = config_from_kv(EngineConfig, read_kv(files["config"]))
        (gated, reference), gated_calls, reference_calls = gated_and_reference_rows(
            monkeypatch, day_feeds, load_universe(files["universe"]), config, load_correlation(files["corr"]))
        assert gated == reference and len(gated) == 40
        assert gated_calls < reference_calls / 2

    @settings(max_examples=50, deadline=None)
    @given(hs.lists(feed_line(), min_size=20, max_size=60))
    def test_malformed_feeds(self, lines):
        lines.sort(key=lambda line: line[0].ts)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
            path = Path(tmp) / "day.csv"
            write_feed(path, [e for e, _ in lines])
            (gated, reference), gated_calls, reference_calls = gated_and_reference_rows(
                m, [("d0", str(path))], FUZZ_UNIVERSE, helpers.convergence_params(), helpers.convergence_corr())
        assert gated == reference
        assert gated_calls <= reference_calls
