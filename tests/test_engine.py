"""Tests for the event-driven engine: judgment, fills, closing, invariants."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import helpers
from sbtrader import engine as eng
from sbtrader.backcast import FillModel, run_backcast
from sbtrader.engine import (
    CLOSED,
    OPEN,
    EngineConfig,
    Fill,
    TradingEngine,
    decide,
)
from sbtrader.feed import PriceBuffer, TickEvent
from sbtrader.ising import ising_energy
from sbtrader.sb import (
    DivergenceError,
    SbParams,
    SbSolution,
    dense_reconstruct,
    expand,
    pick_best,
    restrict,
    run,
    substream,
)
from sbtrader.strategy import (
    CorrelationMatrix,
    DeviationVector,
    Stock,
    StrategyParams,
    Universe,
    build_split,
    config_from_kv,
    evaluate_candidate,
    random_instance,
    read_kv,
)


def make_engine(commission_rate=0.0, restarts=3, p_max=4, fill=True, n=6):
    uni = helpers.make_universe(n)
    config = helpers.convergence_params(commission_rate, restarts)
    config.strategy = StrategyParams(
        n_s=4,
        p_max=p_max,
        a_trans=4_000_000.0,
        c1=1000.0,
        c2=30.0,
        c3=30.0,
        accept_threshold=0.0,
    )
    handler = FillModel().fill if fill else None
    return TradingEngine(uni, helpers.convergence_corr(n), config, seed=7, fill_handler=handler)


def prime_quotes(engine, quotes=None):
    """Feed trades (VWAP=base) and quotes without opening anything."""
    ts = 0
    for i, c in enumerate(engine.universe.codes):
        engine.process(TickEvent(ts + i, c, "trade", helpers.BASE, 100))
    ts = 200_000
    for i, c in enumerate(engine.universe.codes):
        a, b = (quotes or {}).get(c, (helpers.BASE + 1, helpers.BASE - 1))
        engine.process(TickEvent(ts + i, c, "quote", a, b))


def signal_quotes(codes, ticks=20):
    """(ask, bid) quotes `ticks` away from VWAP: codes[0:2] below it (long), codes[2:4] above it (short)."""
    b = helpers.BASE
    return {codes[0]: (b - ticks, b - ticks - 2), codes[1]: (b - ticks + 1, b - ticks - 1),
            codes[2]: (b + ticks + 2, b + ticks), codes[3]: (b + ticks + 1, b + ticks - 1)}


def make_dev(engine):
    return engine._deviation()


class TestJudgeOpen:
    def test_group_opens_and_registers(self):
        engine = make_engine()
        prime_quotes(engine)
        dev = DeviationVector(
            dp=np.array([-0.004, -0.004, 0.004, 0.004, 0.0, 0.0]),
            mask=np.zeros(6, dtype=bool),
        )
        orders = engine.judge_open(np.array([0, 1, 2, 3]), dev, ts=300_000)
        assert len(orders) == 4
        assert engine.open_codes == set(engine.universe.codes[:4])
        sides = {o.code: o.side for o in orders}
        assert sides[engine.universe.codes[0]] == "long"
        assert sides[engine.universe.codes[2]] == "short"
        # long buys at ask, short sells at bid
        by_code = {o.code: o for o in orders}
        assert by_code[engine.universe.codes[0]].intended_price == helpers.BASE + 1
        assert by_code[engine.universe.codes[2]].intended_price == helpers.BASE - 1
        assert all(o.lots == helpers.LOTS for o in orders)

    def test_p_max_rejects_whole_group(self, monkeypatch):
        # with p_max = 6 the room holds two more stocks after the first group, but not a whole second group
        engine = make_engine(p_max=6, n=8)
        codes = engine.universe.codes
        prime_quotes(engine, quotes=signal_quotes(codes))
        assert engine.open_codes == set(codes[:4])
        opened = len(engine.fills)
        streams = count_calls(monkeypatch, "substream")
        for k, (c, (a, b)) in enumerate(signal_quotes(codes[4:]).items()):
            engine.process(TickEvent(1_000_000 + k, c, "quote", a, b))
        dev = engine._deviation()
        assert (dev.dp[4:6] < 0).all() and (dev.dp[6:] > 0).all()  # a balanced group of four is unmasked
        assert streams == [] and len(engine.fills) == opened and engine.open_codes == set(codes[:4])

    def test_full_room_issues_nothing(self, monkeypatch):
        engine = make_engine()  # n_s = p_max = 4
        codes = engine.universe.codes
        prime_quotes(engine, quotes=signal_quotes(codes))  # the solver opens the scenario's group
        assert engine.open_codes == set(codes[:4])
        opened = len(engine.fills)
        # stocks 4 and 5 deviate on both sides of VWAP, unmasked, but the open list is full
        engine.process(TickEvent(1_000_000, codes[4], "quote", helpers.BASE + 22, helpers.BASE + 20))
        engine.process(TickEvent(1_000_001, codes[5], "quote", helpers.BASE - 20, helpers.BASE - 22))
        dev = engine._deviation()
        assert not dev.mask[4:].any() and dev.dp[4] > 0 > dev.dp[5]
        streams = count_calls(monkeypatch, "substream")
        batches = count_calls(monkeypatch, "sb_run")
        assert engine.on_quote_change(1_000_002) == []
        assert streams == [] and batches == [] and engine.skipped_events == 0
        assert len(engine.fills) == opened
        assert len(engine.open_codes) <= engine.config.strategy.p_max


class TestFills:
    def test_open_fill_transition(self):
        engine = make_engine()
        prime_quotes(engine)
        dev = DeviationVector(
            dp=np.array([-0.004, -0.004, 0.004, 0.004, 0.0, 0.0]),
            mask=np.zeros(6, dtype=bool),
        )
        orders = engine.judge_open(np.array([0, 1, 2, 3]), dev, ts=300_000)
        assert all(p.state == OPEN for p in engine.positions)
        assert all(p.open_price == o.intended_price for p, o in zip(engine.positions, orders))

    def test_close_fill_shrinks_open_list(self):
        engine = make_engine()
        prime_quotes(engine)
        dev = DeviationVector(
            dp=np.array([-0.004, -0.004, 0.004, 0.004, 0.0, 0.0]),
            mask=np.zeros(6, dtype=bool),
        )
        engine.judge_open(np.array([0, 1, 2, 3]), dev, ts=300_000)
        engine._issue_close(engine.positions[0], ts=400_000)
        assert engine.positions[0].state == CLOSED
        assert len(engine.open_codes) == 3

    def test_unmatched_fill_rejected(self):
        engine = make_engine(fill=False)
        with pytest.raises(ValueError, match="unknown order"):
            engine.on_fill(Fill(order_id=99, ts=0, price=1.0))

    def test_pending_states_without_handler(self):
        engine = make_engine(fill=False)
        prime_quotes(engine)
        dev = DeviationVector(
            dp=np.array([-0.004, -0.004, 0.004, 0.004, 0.0, 0.0]),
            mask=np.zeros(6, dtype=bool),
        )
        orders = engine.judge_open(np.array([0, 1, 2, 3]), dev, ts=300_000)
        assert all(p.state == "pending_open" for p in engine.positions)
        for o in orders:
            engine.on_fill(Fill(order_id=o.order_id, ts=o.ts, price=o.intended_price))
        assert all(p.state == OPEN for p in engine.positions)


class TestClosePolicy:
    def open_group(self, engine):
        prime_quotes(engine)
        dev = DeviationVector(
            dp=np.array([-0.004, -0.004, 0.004, 0.004, 0.0, 0.0]),
            mask=np.zeros(6, dtype=bool),
        )
        engine.judge_open(np.array([0, 1, 2, 3]), dev, ts=300_000)

    def test_no_positions_no_orders(self):
        engine = make_engine()
        prime_quotes(engine)
        assert engine.close_policy(500_000) == []

    def test_reads_one_mid_per_open_position(self, monkeypatch):
        # same verdicts as the full mid() vector gives, without building it
        engine = make_engine()
        self.open_group(engine)
        codes = engine.universe.codes
        buffer = engine.session.buffer
        buffer.update_quote(0, helpers.BASE - 3, helpers.BASE - 5)  # long still below VWAP
        buffer.update_quote(2, helpers.BASE + 5, helpers.BASE + 3)  # short still above VWAP
        gap = dict(zip(codes, buffer.mid() - engine.session.vwap_pub))
        expected = {p.code for p in engine.positions if (gap[p.code] >= 0 if p.side == eng.LONG else gap[p.code] <= 0)}
        assert expected == {codes[1], codes[3]}
        with monkeypatch.context() as m:
            m.setattr(PriceBuffer, "mid", lambda self: pytest.fail("close_policy built the mid vector"))
            orders = engine.close_policy(400_000)
        assert {o.code for o in orders} == expected

    def test_long_sign_cross_closes(self):
        engine = make_engine()
        self.open_group(engine)
        code = engine.universe.codes[0]
        # mid moves to VWAP + 1: deviation crossed zero for the long
        engine.process(TickEvent(1_200_000, code, "quote", helpers.BASE + 2, helpers.BASE))
        pos = next(p for p in engine.positions if p.code == code)
        assert pos.state == CLOSED
        assert pos.close_price == helpers.BASE  # long closes at bid

    def test_short_stays_open_until_cross(self):
        engine = make_engine()
        self.open_group(engine)
        code = engine.universe.codes[2]
        engine.process(TickEvent(1_200_000, code, "quote", helpers.BASE + 30, helpers.BASE + 28))
        pos = next(p for p in engine.positions if p.code == code)
        assert pos.state == OPEN  # still above VWAP, no cross
        engine.process(TickEvent(1_300_000, code, "quote", helpers.BASE, helpers.BASE - 2))
        assert pos.state == CLOSED
        assert pos.close_price == helpers.BASE  # short closes at ask

    def test_forced_unwind_window(self):
        # deviations persist on the entry side, so only the forced window closes
        engine = make_engine()
        codes = engine.universe.codes
        prime_quotes(engine, quotes=signal_quotes(codes))
        assert len(engine.positions) == 4  # group opened during priming
        close_us = engine.config.session_close_us
        t_force = engine.config.t_force_us
        engine.process(TickEvent(close_us - t_force - 2, codes[4], "trade", helpers.BASE, 10))
        assert all(p.state == OPEN for p in engine.positions)
        engine.process(TickEvent(close_us - t_force + 1, codes[4], "trade", helpers.BASE, 10))
        assert all(p.state == CLOSED for p in engine.positions)

    def test_finalize_closes_stragglers(self):
        engine = make_engine()
        self.open_group(engine)
        engine.finalize(2_000_000)
        assert all(p.state == CLOSED for p in engine.positions)
        assert not engine.open_codes


class TestQuoteChangeFlow:
    def test_scenario_opens_exactly_the_optimal_group(self):
        engine = make_engine()
        for e in helpers.convergence_events(engine.universe.codes):
            engine.process(e)
        engine.finalize(110_000_000)
        opened = {p.code for p in engine.positions}
        assert opened == set(engine.universe.codes[:4])
        assert all(p.state == CLOSED for p in engine.positions)
        longs = {p.code for p in engine.positions if p.side == "long"}
        assert longs == set(engine.universe.codes[:2])

    def test_no_orders_without_signal(self):
        engine = make_engine()
        prime_quotes(engine)  # flat quotes, zero deviations
        assert not engine.positions

    def test_no_orders_inside_unwind_window(self):
        engine = make_engine()
        prime_quotes(engine)
        close_us = engine.config.session_close_us
        code = engine.universe.codes[0]
        engine.process(TickEvent(close_us - 1_000_000, code, "quote", helpers.BASE - 20, helpers.BASE - 22))
        assert not engine.positions

    def test_open_list_bounded_throughout(self):
        engine = make_engine()
        for e in helpers.convergence_events(engine.universe.codes):
            engine.process(e)
            assert len(engine.open_codes) <= engine.config.strategy.p_max
        engine.finalize(110_000_000)


class SequentialEngine(TradingEngine):
    """Reference decision loop: the runs solved one at a time with `sb.run`, then the row rule of `engine.decide`.

    It has no gate: every decision with an unmasked stock solves, even when the room is full or a side of VWAP is
    short of n_s/2 stocks. A diverged run skips the decision; otherwise each row is expanded and judged on its own,
    and the lowest-energy accepted row (`pick_best`) opens if the open list has room for it (`has_room`, this
    class's own copy of the room rule). Each run solves the same restricted split as the batch and draws its row,
    in run order, from the decision's one (seed, day, event) stream, the rows of the batch's one block draw; so
    the comparison tests batching and the gate. `solved` lists (event index, restricted split) for every decision
    it solved, in order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solved = []

    def on_quote_change(self, ts, code=None):
        if ts >= self.config.session_close_us - self.config.t_force_us:
            return []
        dev = self._deviation()
        self.split = eng.update_tick(self.split, dev.sgn(), np.abs(dev.dp))
        if dev.mask.all():
            return []
        keep = np.flatnonzero(~dev.mask)
        restricted = restrict(self.split, keep)
        self.solved.append((self.event_index, restricted))
        rng = substream(self.seed, self.day_key, self.event_index)
        rows = []
        for _ in range(self.config.restarts):
            try:
                rows.append(run(restricted, self._params, rng))
            except DivergenceError:
                self.skipped_events += 1
                return []
        strategy = self.config.strategy
        full = [expand(sol, keep, dev.n) for sol in rows]
        accepted = [sol for sol in full if evaluate_candidate(sol, dev, self.corr, strategy).accepted]
        if not accepted:
            return []
        selected = np.flatnonzero(pick_best(accepted).spins > 0)
        return self.judge_open(selected, dev, ts) if self.has_room(selected) else []

    def has_room(self, selected):
        return np.count_nonzero(self._open) + len(selected) <= self.config.strategy.p_max


class RoomCountingSequentialEngine(SequentialEngine):
    """The reference, counting the accepted groups that it rejected for want of room."""

    room_rejections = 0

    def has_room(self, selected):
        room = super().has_room(selected)
        self.room_rejections += not room
        return room


def count_calls(monkeypatch, name):
    """Wrap engine.<name>; returns the list of (args, kwargs) of every call."""
    calls = []
    original = getattr(eng, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(eng, name, wrapper)
    return calls


def split_bytes(p):
    """The bytes of every field of split p that a decision reads."""
    names = ("j_day", "h_day", "sgn_dp", "abs_dp", "day_row_sum", "offset_day", "day_rms")
    return {name: np.asarray(getattr(p, name)).tobytes() for name in names}


def order_log(engine):
    return [(o.ts, o.code, o.side, o.action, o.lots, o.intended_price) for o, _ in engine.fills]


class TestBatchedDecisions:
    def matches_sequential_reference(self, monkeypatch, config, reference=SequentialEngine, n=6, extra=()):
        """Runs the scenario, plus `extra` events, batched and through `reference`.

        Checks that the batched engine makes at most one batch per event, that is per decision, with exactly
        one tick update per batch and none without, and that each of its batches could open a group (room for n_s
        more stocks and n_s/2 unmasked stocks on each side). Each batch's restricted split equals, bit for bit, the
        one the reference solved at the same event, so a tick side refreshed only by solving decisions is the one
        that refreshing on every event gives. Returns the order log, the reference engine and, for the batched
        engine and the reference, the restricted split of every decision it solved.
        """
        ticks = count_calls(monkeypatch, "update_tick")
        n_s, p_max = config.strategy.n_s, config.strategy.p_max
        batches, sb_run = [], eng.sb_run  # (event index, split); the reference's runs call sb.run_batch, not sb_run

        def gated_batch(p, params, rng):
            assert np.count_nonzero(engine._open) + n_s <= p_max
            assert min(np.count_nonzero(p.sgn_dp > 0), np.count_nonzero(p.sgn_dp < 0)) >= n_s // 2
            batches.append((engine.event_index, p))
            return sb_run(p, params, rng)

        monkeypatch.setattr(eng, "sb_run", gated_batch)
        logs = []
        for cls in (TradingEngine, reference):
            ticks.clear()
            engine = cls(helpers.make_universe(n), helpers.convergence_corr(n), config, seed=7,
                         fill_handler=FillModel().fill)
            events = helpers.convergence_events(engine.universe.codes) + list(extra)
            for e in sorted(events, key=lambda e: (e.ts, e.code, e.kind)):
                before = len(ticks), len(batches)
                engine.process(e)
                assert len(ticks) - before[0] <= 1 and len(batches) - before[1] <= 1
                if cls is TradingEngine:  # one tick update per batch, and none without
                    assert len(ticks) - before[0] == len(batches) - before[1]
                assert len(engine.open_codes) <= p_max
            engine.finalize(110_000_000)
            logs.append(order_log(engine))
        assert logs[0] == logs[1]
        by_event, solved = dict(batches), dict(engine.solved)
        assert len(by_event) == len(batches) and len(solved) == len(engine.solved)  # one solve per event at most
        assert by_event.keys() <= solved.keys()
        for i, p in by_event.items():
            q = solved[i]
            for name in ("j_day", "h_day", "sgn_dp", "abs_dp", "offset_day"):
                a, b = np.asarray(getattr(p, name)), np.asarray(getattr(q, name))
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (i, name)
        gated, ungated = list(by_event.values()), list(solved.values())
        # no batch runs once every stock is masked, that is once every deviation is 0
        assert gated and all(np.any(p.sgn_dp != 0) for p in gated + ungated)
        return logs[0], engine, (gated, ungated)

    @pytest.mark.parametrize("restarts", [3, 10])
    def test_batched_matches_sequential_reference(self, monkeypatch, restarts):
        config = helpers.convergence_params(restarts=restarts)
        log, *_ = self.matches_sequential_reference(monkeypatch, config)
        assert len(log) == 8  # four opens, four closes

    @pytest.mark.parametrize("restarts", [3, 10])
    def test_pairs_match_sequential_reference(self, monkeypatch, restarts):
        config = helpers.convergence_params(restarts=restarts)
        config.strategy = replace(config.strategy, n_s=2)  # two pairs fit in p_max=4
        log, *_ = self.matches_sequential_reference(monkeypatch, config)
        assert len(log) == 8  # both pairs opened and closed

    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_scenario_opens_both_pairs(self, seed):
        # with n_s=2 the scenario holds two balanced pairs, and p_max=4 has room for both
        config = helpers.convergence_params()
        config.strategy = replace(config.strategy, n_s=2)

        def make():
            return TradingEngine(helpers.make_universe(), helpers.convergence_corr(), config, seed=seed,
                                 fill_handler=FillModel().fill)

        engine = make()
        codes = engine.universe.codes
        for e in helpers.convergence_events(codes):
            engine.process(e)
        engine.finalize(110_000_000)
        assert sorted(p.code for p in engine.positions) == codes[:4]
        assert all(p.state == CLOSED for p in engine.positions)
        opens_per_decision = Counter(o.ts for o, _ in engine.fills if o.action == "open")
        assert sorted(opens_per_decision.values()) == [2, 2]
        # both pairs quoted before one decision: it opens one pair, and the next decision opens the other
        engine = make()
        prime_quotes(engine)
        for k, (c, (a, b)) in enumerate(signal_quotes(codes).items()):
            assert engine.session.apply(TickEvent(1_000_000 + k, c, "quote", a, b))
        first = engine.on_quote_change(1_000_010)
        second = engine.on_quote_change(1_000_011)
        assert len(first) == len(second) == 2
        assert sorted(o.code for o in first + second) == codes[:4]

    def test_full_room_matches_sequential_reference(self, monkeypatch):
        # a second group deviates while the first is open, so the room is full with unmasked stocks left
        codes = helpers.make_universe(8).codes
        second = [TickEvent(3_000_000 + k, c, "quote", a, b)
                  for k, (c, (a, b)) in enumerate(signal_quotes(codes[4:], 40).items())]
        config = helpers.convergence_params(restarts=10)
        log, reference, (gated, ungated) = self.matches_sequential_reference(
            monkeypatch, config, reference=RoomCountingSequentialEngine, n=8, extra=second)
        opens = [code for _, code, _, action, _, _ in log if action == "open"]
        assert opens[:4] == sorted(codes[:4]) and sorted(opens[4:]) == sorted(codes[4:])
        # the second group opens once the first has closed; before that the reference solved it and rejected it
        # with the room full, where the gated engine ran no batch
        assert reference.room_rejections > 0
        assert len(gated) < len(ungated)

    def test_one_sided_matches_sequential_reference(self, monkeypatch):
        # with n_s = 2 the scenario's first quote leaves one stock below VWAP and none above: the reference solves
        # that decision, whose rows check_constraints must all reject, and the gated engine runs no batch for it
        config = helpers.convergence_params(restarts=10)
        config.strategy = replace(config.strategy, n_s=2)
        log, _, (gated, ungated) = self.matches_sequential_reference(monkeypatch, config)
        assert len(log) == 8  # both pairs opened and closed, equal to the reference's orders

        def one_sided(p):
            return min(np.count_nonzero(p.sgn_dp > 0), np.count_nonzero(p.sgn_dp < 0)) < config.strategy.n_s // 2

        assert ungated[0].sgn_dp.tolist() == [-1.0]  # stock 1001 alone, the restricted [-1, 0, 0, 0, 0, 0]
        assert sum(map(one_sided, ungated)) > 0 and not any(map(one_sided, gated))
        assert len(gated) < len(ungated)

    @settings(max_examples=25, deadline=None)
    @given(
        hs.integers(min_value=4, max_value=8),
        hs.sampled_from([2, 4]),
        hs.sampled_from([1, 2]),
        hs.integers(min_value=0, max_value=2**32 - 1),
        hs.lists(
            hs.tuples(
                hs.integers(min_value=0, max_value=7),  # stock, modulo n
                hs.sampled_from(["quote", "quote", "trade"]),
                hs.sampled_from([-40, -20, -19, -2, 0, 2, 19, 20, 40]),  # mid (or trade price) less the base
                hs.sampled_from([1, 1_000, 400_000, 1_500_000]),  # microseconds since the last event
            ),
            min_size=12,
            max_size=40,
        ),
    )
    def test_drawn_feeds_match_the_ungated_reference(self, n, n_s, groups, seed, draws):
        # the gate skips only decisions that could not open a group, and each decision draws from its own stream,
        # so gating moves no order, wherever the room or the sides of VWAP stop a decision
        config = helpers.convergence_params(restarts=3)
        config.strategy = replace(config.strategy, n_s=n_s, p_max=groups * n_s)
        upper = np.triu(np.random.default_rng(seed).uniform(0.0, 1.0, (n, n)), 1)
        corr = CorrelationMatrix(upper + upper.T)
        codes = helpers.make_universe(n).codes
        events = [TickEvent(100_000 + i, c, "trade", helpers.BASE, 100) for i, c in enumerate(codes)]
        ts = 200_000
        for stock, kind, offset, gap in draws:
            ts += gap
            price = helpers.BASE + offset
            p1, p2 = (price + 1, price - 1) if kind == "quote" else (price, 100)
            events.append(TickEvent(ts, codes[stock % n], kind, p1, p2))
        logs = []
        for cls in (TradingEngine, SequentialEngine):
            engine = cls(helpers.make_universe(n), corr, config, seed=7, fill_handler=FillModel().fill)
            for e in events:
                engine.process(e)
            engine.finalize(ts + 1)
            logs.append(order_log(engine))
        assert logs[0] == logs[1]

    def test_divergence_skips_events_and_still_closes(self, monkeypatch):
        batches = count_calls(monkeypatch, "sb_run")
        config = replace(helpers.convergence_params(), c0=1e308)
        config.strategy = replace(config.strategy, p_max=8)
        engine = TradingEngine(helpers.make_universe(8), helpers.convergence_corr(8), config, seed=7,
                               fill_handler=FillModel().fill)
        codes = engine.universe.codes
        # the signal would open a group, but every solve from the fourth quote on (codes[3:]) diverges
        prime_quotes(engine, quotes=signal_quotes(codes))
        assert not engine.positions and len(batches) == engine.skipped_events == 5
        engine.judge_open(np.array([0, 1, 2, 3]), engine._deviation(), ts=300_000)
        opened = len(engine.fills)
        # the room holds a second group, and its fourth quote leaves two unmasked stocks on each side of VWAP
        for k, (c, (a, b)) in enumerate(signal_quotes(codes[4:]).items()):
            engine.process(TickEvent(1_000_000 + k, c, "quote", a, b))
        assert len(batches) == engine.skipped_events == 6
        assert len(engine.fills) == opened and all(p.state == OPEN for p in engine.positions)
        engine.finalize(2_000_000)
        assert len(engine.positions) == 4 and all(p.state == CLOSED for p in engine.positions)

    def test_decision_no_group_can_pass_builds_no_stream(self, monkeypatch):
        # every solve diverges (c0=1e308), so a batch would count a skip; a full room or a one-sided decision
        # builds no stream, runs no batch and counts no skip
        streams = count_calls(monkeypatch, "substream")
        batches = count_calls(monkeypatch, "sb_run")
        config = replace(helpers.convergence_params(), c0=1e308)
        engine = TradingEngine(helpers.make_universe(8), helpers.convergence_corr(8), config, seed=7,
                               fill_handler=FillModel().fill)
        codes = engine.universe.codes
        prime_quotes(engine)
        quotes = list(signal_quotes(codes).items())
        for k, (c, (a, b)) in enumerate(quotes[:3]):  # two stocks below VWAP, one above: one-sided for n_s = 4
            engine.process(TickEvent(1_000_000 + k, c, "quote", a, b))
        assert (streams, batches, engine.skipped_events) == ([], [], 0)
        engine.process(TickEvent(1_000_003, quotes[3][0], "quote", *quotes[3][1]))  # balanced: one batch, one skip
        assert len(streams) == len(batches) == engine.skipped_events == 1
        engine.judge_open(np.array([0, 1, 2, 3]), engine._deviation(), ts=1_000_004)
        for k, (c, (a, b)) in enumerate(signal_quotes(codes[4:]).items()):  # balanced, but the room is full
            engine.process(TickEvent(2_000_000 + k, c, "quote", a, b))
        dev = engine._deviation()
        assert np.count_nonzero(dev.dp > 0) == np.count_nonzero(dev.dp < 0) == 2
        assert len(streams) == len(batches) == engine.skipped_events == 1

    def test_divergence_opens_nothing_on_the_scenario(self, monkeypatch):
        batches = count_calls(monkeypatch, "sb_run")
        config = replace(helpers.convergence_params(), c0=1e308)
        engine = TradingEngine(helpers.make_universe(), helpers.convergence_corr(), config, seed=7)
        for e in helpers.convergence_events(engine.universe.codes):
            engine.process(e)
        engine.finalize(110_000_000)
        assert batches and engine.skipped_events == len(batches)
        assert not engine.positions

    @pytest.mark.parametrize("price, skipped", [(1e40, 1), (1e36, 0)])
    def test_quote_beyond_float32_tick_range_skips_its_decision(self, monkeypatch, price, skipped):
        # a finite quote of 1e40 on a base of 5,000 makes c1 |dp| / 2 about 1e39, beyond float32 range:
        # the batch's tick biases cast to inf, every row diverges and the event is skipped without a warning
        engine = make_engine(p_max=8, n=8)
        codes = engine.universe.codes
        prime_quotes(engine, quotes=signal_quotes(codes))
        assert engine.open_codes == set(codes[:4]) and engine.skipped_events == 0
        # the room holds a second group: stocks 4 and 5 below VWAP, 7 above, and 6 above at the huge quote
        quotes = signal_quotes(codes[4:])
        del quotes[codes[6]]
        for k, (c, (a, b)) in enumerate(quotes.items()):
            engine.process(TickEvent(900_000 + k, c, "quote", a, b))
        batches = count_calls(monkeypatch, "sb_run")
        engine.process(TickEvent(1_000_000, codes[6], "quote", price, price))
        assert len(batches) == 1 and engine.skipped_events == skipped
        # at 1e36 the batch steps, and the absurd quote opens stocks 4-7 with stock 6 shorted at 1e36
        assert len(engine.positions) == (4 if skipped else 8)
        engine.finalize(2_000_000)
        assert all(p.state == CLOSED for p in engine.positions)

    def test_one_stream_per_solving_decision(self, monkeypatch):
        # a decision that solves builds one stream, keyed (seed, day, event), and passes it to its one batch of
        # `restarts` rows; a decision that no group can pass (here one-sided), or inside the forced-unwind window,
        # builds none
        streams = count_calls(monkeypatch, "substream")
        batches = count_calls(monkeypatch, "sb_run")
        config = helpers.convergence_params(restarts=5)
        engine = TradingEngine(helpers.make_universe(), helpers.convergence_corr(), config, seed=7, day_key=3,
                               fill_handler=FillModel().fill)
        codes = engine.universe.codes
        prime_quotes(engine)  # flat quotes: every deviation is 0
        assert engine.event_index == 2 * len(codes) and streams == [] and batches == []
        for k, (c, (a, b)) in enumerate(signal_quotes(codes).items()):
            engine.process(TickEvent(1_000_000 + k, c, "quote", a, b))
        # the first three quotes leave fewer than two stocks on one side of VWAP; the fourth one solves
        assert streams == [((7, 3, 2 * len(codes) + 3), {})]
        ((_, params, rng), _), = batches
        assert isinstance(rng, np.random.Generator) and params.restarts == 5
        assert engine.open_codes == set(codes[:4])
        close_us = engine.config.session_close_us
        engine.process(TickEvent(close_us - 1_000_000, codes[4], "quote", helpers.BASE - 20, helpers.BASE - 22))
        assert len(streams) == len(batches) == 1

    def test_quote_whose_mid_overflows_is_rejected(self):
        # ask + bid of a 1e308 quote is inf: it is counted at the buffer, so no overflow reaches a mid
        engine = make_engine()
        codes = engine.universe.codes
        events = helpers.convergence_events(codes) + [TickEvent(2_000_000, codes[4], "quote", 1e308, 1e308)]
        for e in sorted(events, key=lambda e: (e.ts, e.code, e.kind)):
            engine.process(e)
        engine.finalize(110_000_000)
        assert engine.session.buffer.rejected == 1
        assert sorted(p.code for p in engine.positions) == codes[:4]


class TestQuoteChangeWork:
    """Each kind of quote change does only its own work: the deviation and the tick update only where read."""

    def test_each_kind_calls_only_what_it_reads(self, monkeypatch):
        engine = make_engine()  # n_s = p_max = 4
        day = engine.split  # the day split built with the engine
        codes = engine.universe.codes
        prime_quotes(engine)  # flat quotes: every deviation is 0
        deviations = count_calls(monkeypatch, "compute_deviation")
        ticks = count_calls(monkeypatch, "update_tick")
        quotes = list(signal_quotes(codes).items())
        for k, (c, (a, b)) in enumerate(quotes[:3]):  # two stocks below VWAP and one above: one-sided
            engine.process(TickEvent(1_000_000 + k, c, "quote", a, b))
            assert (len(deviations), len(ticks)) == (k + 1, 0)
        c, (a, b) = quotes[3]  # balanced, with room: the decision solves
        assert engine.session.apply(TickEvent(1_000_003, c, "quote", a, b))
        dev = engine._deviation()  # that decision's deviation, taken before its group opens
        deviations.clear()
        batches = count_calls(monkeypatch, "sb_run")
        assert len(engine.on_quote_change(1_000_003)) == 4
        assert (len(deviations), len(ticks)) == (1, 1)
        # the batch solved dev's tick side on the kept stocks, from the day split, which keeps its zero tick side
        ((p, _, _), _), = batches
        keep = np.flatnonzero(~dev.mask)
        assert np.array_equal(p.sgn_dp, dev.sgn()[keep]) and np.array_equal(p.abs_dp, np.abs(dev.dp)[keep])
        assert ticks[0][0][0] is day and engine.split is day
        assert not day.sgn_dp.any() and not day.abs_dp.any()
        deviations.clear()
        ticks.clear()
        # the room is full, and stocks 4 and 5 deviate on both sides of VWAP: neither is called
        engine.process(TickEvent(1_000_004, codes[4], "quote", helpers.BASE + 22, helpers.BASE + 20))
        engine.process(TickEvent(1_000_005, codes[5], "quote", helpers.BASE - 20, helpers.BASE - 22))
        assert (deviations, ticks) == ([], [])
        assert engine.open_codes == set(codes[:4])

    def test_day_split_is_never_written(self, monkeypatch):
        engine = make_engine()
        day, before = engine.split, split_bytes(engine.split)
        batches = count_calls(monkeypatch, "sb_run")
        for e in helpers.convergence_events(engine.universe.codes):
            engine.process(e)
        engine.finalize(110_000_000)
        assert batches and len(engine.positions) == 4  # its solving decisions opened the scenario's group
        assert engine.split is day and split_bytes(day) == before

    def test_forced_unwind_window_calls_neither(self, monkeypatch):
        engine = make_engine()
        codes = engine.universe.codes
        prime_quotes(engine)
        quotes = list(signal_quotes(codes).items())
        for k, (c, (a, b)) in enumerate(quotes[:3]):
            engine.process(TickEvent(1_000_000 + k, c, "quote", a, b))
        deviations = count_calls(monkeypatch, "compute_deviation")
        ticks = count_calls(monkeypatch, "update_tick")
        # a quote that would balance the group, with room, but inside the forced-unwind window
        close_us = engine.config.session_close_us
        engine.process(TickEvent(close_us - 1_000_000, quotes[3][0], "quote", *quotes[3][1]))
        assert (deviations, ticks) == ([], []) and not engine.positions


class TestRowRule:
    """A decision's batch opens its cheapest accepted group, or nothing if a row diverged."""

    @staticmethod
    def decide(monkeypatch, groups, energies=None):
        """Quotes all six stocks; the last quote's batch is stubbed so that row r selects groups[r] (None diverges).

        Row r's energy is energies[r], or the Ising energy of its spins. Stocks 4 (short) and 5 (long) deviate
        twice as far as the scenario's four. Every earlier batch selects nothing. Returns the engine, the
        (row, verdict) pairs that the last decision judged and the size of every batch.
        """
        sizes = []

        def stub(p, params, rng):
            sizes.append(p.n)
            if p.n < 6:
                return [SbSolution(spins=-np.ones(p.n), energy=0.0, run_index=r, elapsed=0.0)
                        for r in range(params.restarts)]
            rows = []
            for r, group in enumerate(groups):
                spins = -np.ones(p.n)
                if group is not None:
                    spins[list(group)] = 1.0
                    energy = ising_energy(dense_reconstruct(p), spins)  # every stock is kept, so keep == arange(6)
                    energy = energy if energies is None else energies[r]
                    rows.append(SbSolution(spins=spins, energy=energy, run_index=r, elapsed=0.0))
                else:
                    rows.append(None)
            return rows

        judged = []
        evaluate = eng.evaluate_candidate

        def recorded(sol, *args):
            verdict = evaluate(sol, *args)
            judged.append((sol, verdict))
            return verdict

        monkeypatch.setattr(eng, "sb_run", stub)
        engine = make_engine(restarts=len(groups))
        codes = engine.universe.codes
        b = helpers.BASE
        for i, c in enumerate(codes):
            engine.process(TickEvent(i, c, "trade", b, 100))
        quotes = {codes[4]: (b + 42, b + 40), codes[5]: (b - 40, b - 42), **signal_quotes(codes)}
        for k, (c, (ask, bid)) in enumerate(quotes.items()):
            if k == len(quotes) - 1:
                monkeypatch.setattr(eng, "evaluate_candidate", recorded)
            engine.process(TickEvent(200_000 + k, c, "quote", ask, bid))
        return engine, judged, sizes

    def test_cheapest_accepted_group_opens(self, monkeypatch):
        # row 0 is infeasible, row 1 is the first accepted row and row 2 the cheapest accepted one
        groups = [(0, 1), (0, 1, 2, 3), (0, 2, 4, 5)]
        engine, judged, sizes = self.decide(monkeypatch, groups)
        verdicts = [verdict for _, verdict in judged]
        assert [v.accepted for v in verdicts] == [False, True, True]
        assert verdicts[2].h_cost < verdicts[1].h_cost and judged[2][0].energy < judged[1][0].energy
        codes = engine.universe.codes
        assert engine.open_codes == {codes[i] for i in groups[2]}
        assert engine.skipped_events == 0
        # a batch for each quote after which two stocks lie on each side of VWAP: the fifth and sixth; the opening
        # leaves stocks 1 and 3 unmasked, and no batch runs for them
        assert sizes == [5, 6] and not engine._deviation().mask.all()

    def test_diverged_row_skips_the_decision(self, monkeypatch):
        # row 0 would be accepted, but row 1 diverged: the decision opens nothing and counts one skip
        engine, judged, _ = self.decide(monkeypatch, [(0, 1, 2, 3), None])
        assert judged == [] and not engine.positions and not engine.open_codes
        assert engine.skipped_events == 1


    def test_duplicate_rows_judged_once_and_lowest_tied_run_opens(self, monkeypatch):
        # rows 1-4 are accepted and tie on energy, rows 3-5 repeat the spins of rows 1, 2 and 0
        a, b = (0, 1, 2, 3), (0, 2, 4, 5)
        picked = count_calls(monkeypatch, "pick_best")
        engine, judged, _ = self.decide(monkeypatch, [(0, 1), b, a, b, a, (0, 1)], energies=[-9.0] + [-1.0] * 4 + [-9.0])
        # one verdict per distinct spin vector, in the order the vectors first appear
        assert [tuple(np.flatnonzero(sol.spins > 0)) for sol, _ in judged] == [(0, 1), b, a]
        assert [v.accepted for _, v in judged] == [False, True, True]
        # the last decision's pick_best sees every accepted row, in row order, and the lowest tied run index
        # opens; every earlier decision picked among rows that select nothing
        (rows,), _ = picked[-1]
        assert [sol.run_index for sol in rows] == [1, 2, 3, 4]
        codes = engine.universe.codes
        assert engine.open_codes == {codes[i] for i in b}


class TestDecide:
    """`engine.decide`, the one decision rule of the engine and of `sbtrader solve --universe`."""

    def test_with_none_accepted_the_lowest_energy_row_and_its_reasons(self, monkeypatch):
        # stocks 4 and 5 are masked; no row selects n_s = 4 stocks, so every row is rejected
        dev = DeviationVector(dp=np.array([-0.0042, -0.004, 0.0042, 0.004, 0.0, 0.0]), mask=np.arange(6) >= 4)
        strategy = helpers.convergence_params().strategy
        corr = helpers.convergence_corr()
        rows = [([1, 1, -1, -1], -1.0), ([1, 1, 1, -1], -3.0), ([1, 1, -1, -1], -1.0), ([-1] * 4, -3.0)]

        def stub(p, params, rng):
            assert p.n == 4 and params.restarts == len(rows)
            return [SbSolution(spins=np.array(s, dtype=float), energy=e, run_index=r, elapsed=0.0)
                    for r, (s, e) in enumerate(rows)]

        monkeypatch.setattr(eng, "sb_run", stub)
        evaluated = count_calls(monkeypatch, "evaluate_candidate")
        split = build_split(dev, corr, strategy)
        row, verdict = decide(split, dev, corr, strategy, SbParams(restarts=len(rows)), substream(0))
        # one verdict per distinct spin vector: row 2 repeats row 0
        assert len(evaluated) == 3
        # rows 1 and 3 tie on the lowest energy, and the lower run index wins; the row comes back at length N
        assert row.run_index == 1 and row.energy == -3.0
        assert row.spins.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
        assert not verdict.accepted
        assert verdict.reasons == ("count: selected 3 != n_s 4", "balance: sum sgn(dp) b = -1 != 0")
        assert verdict == evaluate_candidate(row, dev, corr, strategy)

    @pytest.mark.parametrize("instance", ["convergence", "random"])
    def test_leaves_its_split_unwritten(self, instance):
        # the engine's case: a day split with an empty tick side, from which decide derives dev's
        if instance == "convergence":
            dev = DeviationVector(dp=np.array([-0.0042, -0.004, 0.0042, 0.004, 0.0, 0.0]), mask=np.zeros(6, bool))
            corr, strategy = helpers.convergence_corr(), helpers.convergence_params().strategy
        else:
            dev, corr, strategy = random_instance(12, 4, np.random.default_rng(5))
        split = build_split(DeviationVector(dp=np.zeros(dev.n), mask=np.zeros(dev.n, bool)), corr, strategy)
        before = split_bytes(split)
        (a, verdict_a), (b, verdict_b) = [decide(split, dev, corr, strategy, SbParams(), substream(0)) for _ in range(2)]
        assert (a.spins.tobytes(), a.energy, a.run_index) == (b.spins.tobytes(), b.energy, b.run_index)
        assert verdict_a == verdict_b
        assert split_bytes(split) == before


class TestOpenStockMasked:
    def test_open_stocks_left_out_of_the_solve(self, monkeypatch):
        # the open-stock mask keeps a stock out of the split the solver sees, so no row can re-open it
        solved, judged = [], []

        def stub(p, params, rng):  # every row selects every stock it is given
            solved.append(p)
            return [SbSolution(spins=np.ones(p.n), energy=0.0, run_index=r, elapsed=0.0)
                    for r in range(params.restarts)]

        evaluate = eng.evaluate_candidate

        def recorded(sol, *args):
            judged.append(sol.spins)
            return evaluate(sol, *args)

        monkeypatch.setattr(eng, "sb_run", stub)
        monkeypatch.setattr(eng, "evaluate_candidate", recorded)
        engine = make_engine(p_max=8, n=8)
        codes = engine.universe.codes
        prime_quotes(engine, quotes=signal_quotes(codes))
        assert engine.open_codes == set(codes[:4])  # every row ties, so pick_best opened run 0's group
        opened = len(engine.fills)
        solved.clear()
        judged.clear()
        b = helpers.BASE
        quotes = {codes[4]: (b + 22, b + 20), codes[5]: (b - 20, b - 22), codes[6]: (b + 21, b + 19),
                  codes[7]: (b - 19, b - 21)}
        for k, (c, (ask, bid)) in enumerate(quotes.items()):
            engine.process(TickEvent(1_000_000 + k, c, "quote", ask, bid))
        # the fourth quote puts two unmasked stocks on each side of VWAP, and its decision solves stocks 4-7: the
        # unmasked stocks, nothing else
        assert [p.n for p in solved] == [4] and solved[0].sgn_dp.tolist() == [1.0, -1.0, 1.0, -1.0]
        # every row has the same spins, so the decision evaluates one spin vector; written back to length N, it
        # has the open stocks' bits at 0 and selects only the unmasked ones
        assert [s.tolist() for s in judged] == [[-1.0] * 4 + [1.0] * 4]
        # that group is balanced and accepted, and opens beside the first, which no row re-opened
        assert len(engine.fills) == opened + 4 and sorted(p.code for p in engine.positions) == codes


class TestCloseGate:
    """`process` runs `close_policy` only when its inputs may have changed; the orders equal those of a check on
    every event (`helpers.EveryEventCloseEngine`)."""

    @staticmethod
    def both_logs(monkeypatch, make, events):
        """Order logs of the gated engine and the reference on `events`, and their close_policy call counts."""
        calls = helpers.count_close_calls(monkeypatch)
        logs = []
        for cls in (TradingEngine, helpers.EveryEventCloseEngine):
            engine = make(cls)
            for e in events:
                engine.process(e)
            engine.finalize(110_000_000)
            logs.append(order_log(engine))
        return logs, calls[TradingEngine], calls[helpers.EveryEventCloseEngine]

    @pytest.mark.parametrize("n_s", [4, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_every_event_reference_on_the_scenario(self, monkeypatch, n_s, seed):
        config = helpers.convergence_params()
        config.strategy = replace(config.strategy, n_s=n_s)  # n_s = 2 is the pairs scenario

        def make(cls):
            return cls(helpers.make_universe(), helpers.convergence_corr(), config, seed=seed,
                       fill_handler=FillModel().fill)

        events = helpers.convergence_events(helpers.make_universe().codes)
        (gated, reference), gated_calls, reference_calls = self.both_logs(monkeypatch, make, events)
        assert gated == reference and len(gated) == 8  # four opens, four closes
        assert reference_calls == len(events) and gated_calls < reference_calls

    def test_open_fill_between_events_checks_on_the_next_event(self):
        # no fill handler: the open fills arrive after the quote that crosses the long leg's deviation
        engine = make_engine(fill=False)
        codes = engine.universe.codes
        prime_quotes(engine, quotes=signal_quotes(codes))  # the group is pending, its orders unfilled
        engine.process(TickEvent(300_000, codes[0], "quote", helpers.BASE + 2, helpers.BASE))  # mid above VWAP
        for order, _ in list(engine._outstanding.values()):
            engine.on_fill(Fill(order_id=order.order_id, ts=350_000, price=order.intended_price))
        assert all(p.state == OPEN for p in engine.positions)
        # a trade of another stock, with no publish due: only the open fill can change the verdict
        engine.process(TickEvent(400_000, codes[5], "trade", helpers.BASE, 100))
        states = {p.code: p.state for p in engine.positions}
        assert states == {codes[0]: eng.PENDING_CLOSE, codes[1]: OPEN, codes[2]: OPEN, codes[3]: OPEN}

    def test_open_fill_inside_the_unwind_window_closes_on_the_next_event(self):
        engine = make_engine(fill=False)
        codes = engine.universe.codes
        prime_quotes(engine, quotes=signal_quotes(codes))
        window = engine.config.session_close_us - engine.config.t_force_us
        engine.process(TickEvent(window + 1, codes[4], "trade", helpers.BASE, 10))  # nothing is open yet
        for order, _ in list(engine._outstanding.values()):
            engine.on_fill(Fill(order_id=order.order_id, ts=window + 2, price=order.intended_price))
        assert all(p.state == OPEN for p in engine.positions)
        engine.process(TickEvent(window + 3, codes[4], "trade", helpers.BASE, 10))
        assert len(engine.positions) == 4 and all(p.state == eng.PENDING_CLOSE for p in engine.positions)


class TestLotCounts:
    def test_counted_once_at_construction(self, monkeypatch):
        calls = count_calls(monkeypatch, "lot_size")
        engine = make_engine()
        assert len(calls) == engine.universe.n
        for e in helpers.convergence_events(engine.universe.codes):
            engine.process(e)
        assert len(calls) == engine.universe.n
        assert len(engine.positions) == 4 and all(p.lots == helpers.LOTS for p in engine.positions)

    def test_priced_out_stock_masked(self):
        # at the 4M budget one lot of the 50,000 stock costs 5M: zero lots
        uni = Universe([Stock("7001", 5_000.0, 100), Stock("7002", 50_000.0, 100), Stock("7003", 2_000.0, 100)])
        engine = TradingEngine(uni, CorrelationMatrix(np.full((3, 3), 0.5)), EngineConfig(restarts=1))
        for i, stock in enumerate(uni.stocks):
            engine.process(TickEvent(i, stock.code, "trade", stock.base_price, 100))
        for i, stock in enumerate(uni.stocks):
            ask, bid = stock.base_price + 30, stock.base_price + 20
            engine.process(TickEvent(200_000 + i, stock.code, "quote", ask, bid))
        assert list(engine._deviation().mask) == [False, True, False]

    def test_overflowing_lot_count_names_the_stock(self):
        uni = Universe([Stock("7001", 5_000.0, 100), Stock("7002", 1e-310, 100)])
        with pytest.raises(ValueError, match=r"^7002: lot count .* not finite"):
            TradingEngine(uni, CorrelationMatrix(np.full((2, 2), 0.5)), EngineConfig())


class TestEngineConfig:
    def test_round_trip_keys(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text(
            "n_s=4\np_max=6\na_trans=2000000\nc1=10\nc2=1\nc3=1\naccept_threshold=0.5\n"
            "session_close_s=100\nt_force_s=5\nrestarts=2\n"
            "c0=0.3\ncommission_rate=0.001\ncorr_window=3\nwarmup_days=2\n"
        )
        cfg = config_from_kv(EngineConfig, read_kv(path))
        assert cfg.strategy.p_max == 6
        assert cfg.session_close_us == 100_000_000
        assert cfg.t_force_us == 5_000_000
        assert cfg.restarts == 2 and cfg.c0 == 0.3
        assert cfg.commission_rate == 0.001
        assert cfg.corr_window == 3 and cfg.warmup_days == 2

    # a batch derives dt and n_step, and a0 is a constant (SbParams), so their keys are unknown whatever the value
    @pytest.mark.parametrize(
        "line", ["bogus=1", "dt=-1", "dt=nan", "dt=inf", "dt=0.02", "a0=nan", "a0=0", "a0=10", "n_step=50"]
    )
    def test_unknown_key_named(self, tmp_path, line):
        path = tmp_path / "e.cfg"
        path.write_text(f"{line}\n")
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=f"^unknown config key: {key}$"):
            config_from_kv(EngineConfig, read_kv(path))

    @pytest.mark.parametrize(
        "line, named",
        [
            ("restarts=0", "restarts"),
            ("c0=nan", "c0"),
            ("c0=-1", "c0"),
            ("accept_threshold=nan", "accept_threshold"),
            ("t_force_s=-5", "t_force_us"),
            ("session_close_s=30", "t_force_us"),
            ("session_close_s=30\nt_force_s=30", "t_force_us"),
            ("corr_window=0", "corr_window"),
            ("commission_rate=-1", "commission_rate"),
            ("commission_rate=inf", "commission_rate"),
            ("a_trans=inf", "a_trans"),
            ("a_trans=nan", "a_trans"),
            ("c1=inf", "c1"),
            ("c1=nan", "c1"),
            ("c2=inf", "c2"),
            ("c2=nan", "c2"),
            ("c3=inf", "c3"),
            ("c3=nan", "c3"),
            ("c1=1e42", "c1"),
            ("c2=1e39", "c2"),
            ("c3=1e39", "c3"),
            ("session_close_s=0", "session_close_us"),
            ("warmup_days=-1", "warmup_days"),
            ("n_s=abc", "n_s"),
            ("n_steps=100", "n_steps"),
        ],
    )
    def test_bad_value_rejected_at_load(self, tmp_path, line, named):
        path = tmp_path / "e.cfg"
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError, match=rf"\b{named}\b"):
            config_from_kv(EngineConfig, read_kv(path))

    def test_forced_unwind_window_starts_inside_the_session(self):
        # with the default 60 s window, a 30 s session would start inside it and the engine would never open a group
        with pytest.raises(ValueError, match="t_force_us must be >= 0 and below session_close_us"):
            EngineConfig(session_close_us=30_000_000)
        assert EngineConfig(session_close_us=30_000_000, t_force_us=29_999_999).t_force_us == 29_999_999

    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.session_close_us == 9_000_000_000
        assert cfg.t_force_us == 60_000_000
        assert cfg.sb_params() == SbParams()


@pytest.mark.parametrize(
    "set_up",
    [
        lambda tmp_path: SbParams(seed=-1),
        lambda tmp_path: TradingEngine(helpers.make_universe(), helpers.convergence_corr(), helpers.convergence_params(),
                                       seed=-1),
        # a missing warm-up feed: the seed is rejected before the first day is replayed
        lambda tmp_path: run_backcast([("d0", str(tmp_path / "missing.csv"))], helpers.make_universe(),
                                      helpers.convergence_params(), seed=-1),
    ],
    ids=["SbParams", "TradingEngine", "run_backcast"],
)
def test_negative_seed_rejected_at_set_up(tmp_path, set_up):
    with pytest.raises(ValueError, match=r"\bseed must be >= 0"):
        set_up(tmp_path)


class TestPositionInvariants:
    def test_forward_only_transitions(self):
        from sbtrader.engine import Position

        pos = Position(code="x", side="long", lots=1)
        pos.advance_state(OPEN)
        with pytest.raises(ValueError):
            pos.advance_state(OPEN)
        pos.advance_state("pending_close")
        pos.advance_state(CLOSED)
        with pytest.raises(ValueError):
            pos.advance_state(OPEN)
