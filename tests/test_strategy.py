"""Tests for deviation/correlation pipelines and QUBO assembly."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sbtrader.ising import ising_energy, qubo_energy, qubo_to_ising
from sbtrader.sb import SbSolution, dense_reconstruct
from sbtrader.strategy import (
    CorrelationMatrix,
    DeviationVector,
    Stock,
    StrategyParams,
    Universe,
    build_qubo,
    build_split,
    check_constraints,
    compute_deviation,
    correlation_matrix,
    cost_energy,
    daily_correlation,
    day_sigma_matrix,
    evaluate_candidate,
    load_universe,
    lot_size,
    random_instance,
    config_from_kv,
    read_kv,
    save_correlation,
    load_correlation,
    save_universe,
)


def direct_energy(bits, dev, corr, params):
    """Straight evaluation of the cost and penalty definitions, the assembly oracle."""
    b = np.asarray(bits, dtype=float)
    sgn = np.sign(dev.dp)
    h_cost = -params.c1 * float(np.abs(dev.dp) @ b)
    for i in range(dev.n):
        for j in range(dev.n):
            if i != j:
                h_cost += corr.sigma[i, j] * b[i] * b[j]
    h_pen = params.c2 * (b.sum() - params.n_s) ** 2 + params.c3 * float(sgn @ b) ** 2
    return h_cost + h_pen


def small_instance(n, seed, **kw):
    return random_instance(n, 4, np.random.default_rng(seed), **kw)


class TestLotSize:
    def test_reference_sizing(self):
        assert lot_size(4_000_000, 100, 5_000) == 8

    def test_priced_out(self):
        assert lot_size(4_000_000, 100, 50_000) == 0

    def test_boundary(self):
        assert lot_size(4_000_000, 1, 4_000_000) == 1

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            lot_size(0, 100, 5_000)

    @pytest.mark.parametrize("p_b", [1e-310, math.nan])
    def test_non_finite_quotient_rejected(self, p_b):
        with pytest.raises(ValueError, match="not finite"):
            lot_size(4_000_000, 100, p_b)


def toy_universe():
    return Universe(
        [
            Stock("7001", 5_000.0, 100),
            Stock("7002", 50_000.0, 100),  # priced out at the 4M budget
            Stock("7003", 2_000.0, 100),
        ]
    )


class TestDeviationVector:
    def test_zero_deviation_masked(self):
        dev = DeviationVector(dp=np.array([-0.01, 0.0, 0.01]), mask=np.zeros(3, dtype=bool))
        assert list(dev.mask) == [False, True, False]

    def test_masked_entry_must_be_zero(self):
        with pytest.raises(ValueError, match="dp == 0"):
            DeviationVector(dp=np.array([0.01, 0.0]), mask=np.array([True, False]))


class TestComputeDeviation:
    def test_mid_equals_vwap(self):
        uni = toy_universe()
        dev = compute_deviation(
            uni,
            ask=np.array([5_001.0, 50_010.0, 2_001.0]),
            bid=np.array([4_999.0, 49_990.0, 1_999.0]),
            quote_valid=np.array([True, True, True]),
            vwap=np.array([5_000.0, 50_000.0, 2_000.0]),
            excluded=np.zeros(3, dtype=bool),
        )
        assert np.array_equal(dev.dp, np.zeros(3))
        assert dev.mask.all()  # mid == VWAP leaves no side, so the stock is masked

    def test_short_candidate_sign(self):
        uni = toy_universe()
        dev = compute_deviation(
            uni,
            ask=np.array([5_101.0, 50_010.0, 2_001.0]),
            bid=np.array([5_099.0, 49_990.0, 1_999.0]),
            quote_valid=np.array([True, True, True]),
            vwap=np.array([5_002.0, 50_000.0, 2_000.0]),
            excluded=np.zeros(3, dtype=bool),
        )
        # mid 5100 vs vwap 5002 over base 5000
        assert dev.dp[0] == pytest.approx((5_100 - 5_002) / 5_000)
        assert dev.dp[0] > 0

    def test_open_position_masked(self):
        uni = toy_universe()
        dev = compute_deviation(
            uni,
            ask=np.array([5_101.0, 50_010.0, 2_001.0]),
            bid=np.array([5_099.0, 49_990.0, 1_999.0]),
            quote_valid=np.array([True, True, True]),
            vwap=np.array([5_000.0, 50_000.0, 2_000.0]),
            excluded=np.array([True, False, False]),
        )
        assert dev.mask[0] and dev.dp[0] == 0.0

    def test_no_vwap_masks_everything(self):
        uni = toy_universe()
        dev = compute_deviation(
            uni,
            ask=np.ones(3),
            bid=np.ones(3),
            quote_valid=np.ones(3, dtype=bool),
            vwap=None,
            excluded=np.zeros(3, dtype=bool),
        )
        assert dev.mask.all()

    def test_invalid_quote_masked(self):
        uni = toy_universe()
        dev = compute_deviation(
            uni,
            ask=np.array([np.nan, 50_010.0, 2_001.0]),
            bid=np.array([np.nan, 49_990.0, 1_999.0]),
            quote_valid=np.array([False, True, True]),
            vwap=np.array([5_000.0, 50_000.0, 2_000.0]),
            excluded=np.zeros(3, dtype=bool),
        )
        assert dev.mask[0] and dev.dp[0] == 0.0


class TestDailyCorrelation:
    def test_hand_value(self):
        assert daily_correlation(np.array([1.0, -1.0]), np.array([1.0, -1.0])) == pytest.approx(0.5)

    def test_sign_flip(self):
        assert daily_correlation(np.array([1.0, -1.0]), np.array([-1.0, 1.0])) == pytest.approx(-0.5)

    def test_degenerate_zero_series(self):
        assert daily_correlation(np.zeros(5), np.ones(5)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            daily_correlation(np.ones(3), np.ones(4))

    @given(hs.integers(min_value=0, max_value=10_000))
    def test_bounded_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 50))
        d_i = rng.normal(0, 10, k)
        d_j = rng.normal(0, 10, k)
        val = daily_correlation(d_i, d_j)
        assert -1.0 <= val <= 1.0
        assert val == pytest.approx(daily_correlation(d_j, d_i))


class TestDaySigmaMatrix:
    def test_matches_pairwise_function_when_fully_valid(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0, 1, (30, 4))
        m = day_sigma_matrix(samples)
        for i in range(4):
            for j in range(4):
                assert m[i, j] == pytest.approx(daily_correlation(samples[:, i], samples[:, j]))

    def test_nan_columns_degenerate_to_zero(self):
        samples = np.full((10, 3), np.nan)
        samples[:, 0] = 1.0
        m = day_sigma_matrix(samples)
        assert m[0, 1] == 0.0 and m[1, 2] == 0.0

    def test_partial_overlap_uses_common_samples(self):
        samples = np.array([[1.0, np.nan], [2.0, 1.0], [-1.0, -1.0]])
        # common samples are rows 1..2
        expected = daily_correlation(np.array([2.0, -1.0]), np.array([1.0, -1.0]))
        assert day_sigma_matrix(samples)[0, 1] == pytest.approx(expected)


class TestCorrelationMatrix:
    def test_single_day_zero_maps_to_half(self):
        sigma = correlation_matrix([np.zeros((3, 3))])
        assert np.all(sigma.sigma == 0.5)

    def test_bounds(self):
        assert np.all(correlation_matrix([np.ones((2, 2))]).sigma == 1.0)
        assert np.all(correlation_matrix([-np.ones((2, 2))]).sigma == 0.0)

    def test_window_takes_last_five(self):
        days = [np.full((2, 2), v) for v in (-1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0)]
        sigma = correlation_matrix(days, window=5)
        assert np.all(sigma.sigma == 1.0)

    def test_fewer_days_than_window(self):
        sigma = correlation_matrix([np.zeros((2, 2)), np.ones((2, 2))], window=5)
        assert np.all(sigma.sigma == pytest.approx(0.75))

    def test_empty_history(self):
        with pytest.raises(ValueError):
            correlation_matrix([])

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        # daily[-0:] is the whole history and daily[1:] drops only the oldest day
        days = [np.full((2, 2), v) for v in (-1.0, 0.0, 0.0, 0.8)]
        with pytest.raises(ValueError, match="window must be >= 1"):
            correlation_matrix(days, window=window)


class TestBuildQubo:
    def test_cost_only_entries(self):
        dev = DeviationVector(dp=np.array([-0.01, 0.02]), mask=np.zeros(2, dtype=bool))
        corr = CorrelationMatrix(np.array([[0.0, 0.3], [0.3, 0.0]]))
        params = StrategyParams(n_s=2, c1=1.0, c2=0.0, c3=0.0)
        q = build_qubo(dev, corr, params).q
        assert np.diag(q) == pytest.approx([-0.01, -0.02])
        assert q[0, 1] == pytest.approx(0.3)

    def test_group_size_penalty_value(self):
        dev = DeviationVector(dp=np.zeros(4), mask=np.zeros(4, dtype=bool))
        corr = CorrelationMatrix(np.zeros((4, 4)))
        params = StrategyParams(n_s=2, c1=1.0, c2=1.5, c3=0.0)
        qp = build_qubo(dev, corr, params)
        b = np.array([1.0, 1.0, 1.0, 0.0])
        # three selected with n_s=2: penalty c2*(3-2)^2, constant c2*n_s^2 dropped from Q
        assert qubo_energy(qp, b) + params.c2 * params.n_s**2 == pytest.approx(1.5)

    def test_feasible_selection_kills_penalty(self):
        dev, corr, params = small_instance(8, 0)
        qp = build_qubo(dev, corr, params)
        sgn = np.sign(dev.dp)
        longs = np.flatnonzero(sgn < 0)[:2]
        shorts = np.flatnonzero(sgn > 0)[:2]
        b = np.zeros(8)
        b[longs] = 1.0
        b[shorts] = 1.0
        total = qubo_energy(qp, b) + params.c2 * params.n_s**2
        assert total == pytest.approx(cost_energy(b, dev, corr, params), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_cost_energy_matches_dense_pair_term(self, seed):
        dev, corr, params = small_instance(12, seed)
        sigma_off = corr.sigma.copy()
        np.fill_diagonal(sigma_off, 0.0)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            b = (rng.uniform(size=12) < 0.4).astype(float)
            dense = -params.c1 * (np.abs(dev.dp) @ b) + b @ sigma_off @ b
            assert cost_energy(b, dev, corr, params) == pytest.approx(dense, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bits", [[0.5, 0, 0, 0], [2, 0, 0, 0], [np.nan, 1, 0, 0], [1, 0, 0]])
    def test_cost_energy_rejects_non_binary_bits(self, bits):
        dev, corr, params = small_instance(4, 0)
        with pytest.raises(ValueError, match="bit vector"):
            cost_energy(np.array(bits, dtype=float), dev, corr, params)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exhaustive_against_direct_definitions(self, n):
        for seed in range(4):
            dev, corr, params = small_instance(n, seed)
            qp = build_qubo(dev, corr, params)
            const = params.c2 * params.n_s**2
            for combo in itertools.product((0.0, 1.0), repeat=n):
                b = np.array(combo)
                assert qubo_energy(qp, b) + const == pytest.approx(
                    direct_energy(b, dev, corr, params), abs=1e-9
                )

    def test_masked_stocks_enter_only_day_terms(self):
        rng = np.random.default_rng(5)
        dp = rng.normal(0, 0.01, 6)
        dp[2] = 0.0
        mask = np.zeros(6, dtype=bool)
        mask[2] = True
        dev = DeviationVector(dp=dp, mask=mask)
        raw = rng.uniform(-1, 1, (6, 6))
        corr = CorrelationMatrix(np.clip(((raw + raw.T) / 2 + 1) / 2, 0, 1))
        params = StrategyParams(n_s=4, c1=2.0, c2=3.0, c3=4.0)
        q = build_qubo(dev, corr, params).q
        assert q[2, 2] == pytest.approx(params.c2 * (1 - 2 * params.n_s))
        assert q[2, 3] == pytest.approx(corr.sigma[2, 3] + params.c2)

    def test_dimension_mismatch(self):
        dev = DeviationVector(dp=np.zeros(3), mask=np.zeros(3, dtype=bool))
        corr = CorrelationMatrix(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            build_qubo(dev, corr, StrategyParams())


class TestBuildSplit:
    def test_round_trip_matches_monolithic_conversion(self):
        for seed in range(6):
            dev, corr, params = small_instance(8, seed)
            split = build_split(dev, corr, params)
            via_split = dense_reconstruct(split)
            via_qubo = qubo_to_ising(build_qubo(dev, corr, params))
            assert np.allclose(via_split.j, via_qubo.j, atol=1e-9)
            assert np.allclose(via_split.h, via_qubo.h, atol=1e-9)
            assert via_split.offset == pytest.approx(via_qubo.offset, abs=1e-9)

    def test_no_tick_side_when_deviations_zero(self):
        dev = DeviationVector(dp=np.zeros(5), mask=np.zeros(5, dtype=bool))
        corr = CorrelationMatrix(np.full((5, 5), 0.5))
        params = StrategyParams()
        split = build_split(dev, corr, params)
        assert np.all(split.sgn_dp == 0.0) and np.all(split.abs_dp == 0.0)
        dense = dense_reconstruct(split)
        assert np.array_equal(dense.j, split.j_day)
        assert np.array_equal(dense.h, split.h_day)

    def test_separation_day_side_independent_of_deviations(self):
        _, corr, params = small_instance(7, 1)
        dev_a = DeviationVector(dp=np.zeros(7), mask=np.zeros(7, dtype=bool))
        rng = np.random.default_rng(2)
        dev_b = DeviationVector(dp=rng.normal(0, 0.01, 7), mask=np.zeros(7, dtype=bool))
        split_a = build_split(dev_a, corr, params)
        split_b = build_split(dev_b, corr, params)
        assert np.array_equal(split_a.j_day, split_b.j_day)
        assert np.array_equal(split_a.h_day, split_b.h_day)
        assert split_a.offset_day == split_b.offset_day

    def test_separation_tick_side_independent_of_correlations(self):
        dev, corr_a, params = small_instance(7, 3)
        rng = np.random.default_rng(4)
        raw = rng.uniform(-1, 1, (7, 7))
        corr_b = CorrelationMatrix(np.clip(((raw + raw.T) / 2 + 1) / 2, 0, 1))
        split_a = build_split(dev, corr_a, params)
        split_b = build_split(dev, corr_b, params)
        assert np.array_equal(split_a.sgn_dp, split_b.sgn_dp)
        assert np.array_equal(split_a.abs_dp, split_b.abs_dp)

    def test_energy_equality_on_random_bits(self):
        dev, corr, params = small_instance(10, 6)
        split = build_split(dev, corr, params)
        dense = dense_reconstruct(split)
        qp = build_qubo(dev, corr, params)
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = rng.integers(0, 2, 10).astype(float)
            assert ising_energy(dense, 2 * b - 1) == pytest.approx(qubo_energy(qp, b), abs=1e-9)


class TestConstraints:
    def make_dev(self, dp):
        return DeviationVector(dp=np.asarray(dp, dtype=float), mask=np.zeros(len(dp), dtype=bool))

    def test_balanced_group_passes(self):
        dev = self.make_dev([-0.01, -0.02, 0.01, 0.02, 0.0])
        report = check_constraints(np.array([1, 1, 1, 1, 0.0]), dev, 4)
        assert report.ok and not report.reasons

    def test_count_violation(self):
        dev = self.make_dev([-0.01, -0.02, 0.01, 0.02])
        report = check_constraints(np.array([1, 1, 1, 0.0]), dev, 4)
        assert not report.ok and any("count" in r for r in report.reasons)

    def test_balance_violation(self):
        dev = self.make_dev([-0.01, -0.02, -0.03, 0.02])
        report = check_constraints(np.array([1, 1, 1, 1.0]), dev, 4)
        assert not report.ok and any("balance" in r for r in report.reasons)

    def test_masked_selection_fails(self):
        dev = DeviationVector(
            dp=np.array([-0.01, 0.01, 0.0, -0.02, 0.02]),
            mask=np.array([False, False, True, False, False]),
        )
        bits = np.array([1, 1, 1, 1, 0.0])
        report = check_constraints(bits, dev, 4)
        assert not report.ok and any("masked" in r for r in report.reasons)

    def test_zero_deviation_selection_fails_as_masked(self):
        # dp == 0 gives a stock no side, so a group holding one is masked, however it balances
        dev = self.make_dev([-0.01, 0.0, 0.01, 0.0, 0.02])
        report = check_constraints(np.array([1, 1, 1, 1, 0.0]), dev, 4)
        assert report.reasons == ("masked: selection includes a masked stock",)


class TestEvaluateCandidate:
    def make_sol(self, bits):
        spins = 2 * np.asarray(bits, dtype=float) - 1
        return SbSolution(spins=spins, energy=0.0, run_index=0, elapsed=0.0)

    def test_infeasible_rejected_regardless_of_cost(self):
        dev, corr, params = small_instance(6, 8)
        verdict = evaluate_candidate(self.make_sol([1, 0, 0, 0, 0, 0]), dev, corr, params)
        assert not verdict.accepted and not verdict.feasible

    def test_feasible_below_threshold_accepted(self):
        dev, corr, params = small_instance(6, 9)
        sgn = np.sign(dev.dp)
        bits = np.zeros(6)
        bits[np.flatnonzero(sgn < 0)[:2]] = 1
        bits[np.flatnonzero(sgn > 0)[:2]] = 1
        verdict = evaluate_candidate(self.make_sol(bits), dev, corr, params)
        assert verdict.feasible
        assert verdict.accepted  # instance params use threshold = +inf
        assert verdict.h_cost == pytest.approx(cost_energy(bits, dev, corr, params))

    def test_threshold_rejects_positive_cost(self):
        dev, corr, params = small_instance(6, 10)
        params = StrategyParams(
            n_s=params.n_s, p_max=params.p_max, c1=1e-9, c2=params.c2, c3=params.c3, accept_threshold=0.0
        )
        sgn = np.sign(dev.dp)
        bits = np.zeros(6)
        bits[np.flatnonzero(sgn < 0)[:2]] = 1
        bits[np.flatnonzero(sgn > 0)[:2]] = 1
        verdict = evaluate_candidate(self.make_sol(bits), dev, corr, params)
        assert verdict.feasible and not verdict.accepted


class TestFilesAndConfig:
    def test_universe_round_trip(self, tmp_path):
        uni = toy_universe()
        path = tmp_path / "u.csv"
        save_universe(path, uni)
        loaded = load_universe(path)
        assert loaded.codes == uni.codes
        assert np.array_equal(loaded.base_prices(), uni.base_prices())
        assert [s.min_lot for s in loaded.stocks] == [s.min_lot for s in uni.stocks]

    def test_per_stock_constants_derived_once_and_read_only(self):
        uni = toy_universe()
        assert uni.codes is uni.codes and isinstance(uni.codes, list)
        arr = uni.base_prices()
        assert uni.base_prices() is arr and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        assert list(uni.base_prices()) == [s.base_price for s in uni.stocks]

    def test_universe_header_enforced(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("code,price\n7001,5000\n")
        with pytest.raises(ValueError, match="header"):
            load_universe(path)

    @pytest.mark.parametrize("price", ["nan", "inf", "0", "-5"])
    def test_bad_base_price_rejected_with_line(self, tmp_path, price):
        path = tmp_path / "u.csv"
        path.write_text(f"code,base_price,min_lot\n7001,5000,100\n7002,{price},100\n")
        with pytest.raises(ValueError, match=rf"u\.csv:3: 7002: base_price must be positive and finite"):
            load_universe(path)

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Universe([Stock("a", 1.0, 1), Stock("a", 2.0, 1)])

    def test_correlation_round_trip(self, tmp_path):
        corr = CorrelationMatrix(np.full((3, 3), 0.25))
        path = tmp_path / "corr.txt"
        save_correlation(path, corr, ["d1", "d2"])
        assert "# days: d1,d2" in path.read_text().splitlines()[0]
        assert np.array_equal(load_correlation(path).sigma, corr.sigma)

    def test_read_kv(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\nn_s = 4\nc1=2.5\n\n")
        assert read_kv(path) == {"n_s": "4", "c1": "2.5"}

    def test_read_kv_malformed_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("n_s 4\n")
        with pytest.raises(ValueError, match=":1"):
            read_kv(path)

    def test_params_from_kv(self):
        params = config_from_kv(StrategyParams, {"n_s": "6", "p_max": "6", "c1": "2.0", "accept_threshold": "-1.0"})
        assert params.n_s == params.p_max == 6 and params.c1 == 2.0 and params.accept_threshold == -1.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            StrategyParams(n_s=3)
        with pytest.raises(ValueError):
            StrategyParams(c1=0.0)

    def test_p_max_below_n_s_rejected(self):
        # no group of n_s stocks could ever open, yet every quote change would solve a batch
        for n_s, p_max in ((4, 2), (4, 3), (6, 4)):
            with pytest.raises(ValueError, match="p_max must be >= n_s"):
                StrategyParams(n_s=n_s, p_max=p_max)
        with pytest.raises(ValueError, match="p_max"):
            config_from_kv(StrategyParams, {"p_max": "2"})
        assert StrategyParams(n_s=2, p_max=2).p_max == 2

    def test_nan_accept_threshold_rejected_infinities_kept(self):
        with pytest.raises(ValueError, match="accept_threshold"):
            StrategyParams(accept_threshold=float("nan"))
        assert StrategyParams(accept_threshold=float("inf")).accept_threshold == float("inf")
        assert StrategyParams(accept_threshold=float("-inf")).accept_threshold == float("-inf")


class TestRandomInstance:
    def test_feasible_by_construction(self):
        for seed in range(10):
            dev, corr, params = small_instance(16, seed)
            sgn = np.sign(dev.dp)
            assert (sgn < 0).sum() >= 2 and (sgn > 0).sum() >= 2
            assert np.all(corr.sigma >= 0) and np.all(corr.sigma <= 1)
