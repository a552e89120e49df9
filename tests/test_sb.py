"""Tests for the ballistic-SB solver and the day/tick split machinery."""

import math
import warnings

import numpy as np
import pytest

import helpers
from sbtrader import sb
from sbtrader.ising import IsingProblem, QuboProblem, ising_energy
from sbtrader.sb import (
    DivergenceError,
    OscillatorState,
    SbParams,
    SbSolution,
    SplitProblem,
    WriteCounter,
    compute_h_tick,
    default_c0,
    dense_reconstruct,
    expand,
    initial_state,
    pick_best,
    restrict,
    run,
    run_batch,
    solve,
    split_from_ising,
    step,
    step_dense,
    substream,
    update_tick,
)
from sbtrader.strategy import build_split, check_constraints, random_instance


def random_split(n, rng, c1=1.0, c3=2.0):
    m = rng.normal(0, 1, (n, n))
    j_day = (m + m.T) / 2.0
    np.fill_diagonal(j_day, 0.0)
    sgn = rng.choice([-1.0, 0.0, 1.0], size=n)
    abs_dp = np.where(sgn == 0.0, 0.0, rng.uniform(0.0, 0.05, n))
    return SplitProblem(
        j_day=j_day,
        h_day=rng.normal(0, 1, n),
        sgn_dp=sgn,
        abs_dp=abs_dp,
        c1=c1,
        c3=c3,
        offset_day=float(rng.normal()),
    )


class TestTickPieces:
    def test_h_tick_balanced_signs(self):
        p = SplitProblem(
            j_day=np.zeros((2, 2)),
            h_day=np.zeros(2),
            sgn_dp=np.array([1.0, -1.0]),
            abs_dp=np.array([0.02, 0.02]),
            c1=1.0,
            c3=5.0,
        )
        assert compute_h_tick(p) == pytest.approx([-0.01, -0.01])

    def test_h_tick_unbalanced(self):
        p = SplitProblem(
            j_day=np.zeros((2, 2)),
            h_day=np.zeros(2),
            sgn_dp=np.array([1.0, 1.0]),
            abs_dp=np.array([0.01, 0.01]),
            c1=0.0,
            c3=2.0,
        )
        assert compute_h_tick(p) == pytest.approx([2.0, 2.0])

    def test_h_tick_all_masked(self):
        p = SplitProblem(
            j_day=np.zeros((3, 3)),
            h_day=np.zeros(3),
            sgn_dp=np.zeros(3),
            abs_dp=np.zeros(3),
            c1=1.0,
            c3=1.0,
        )
        assert np.all(compute_h_tick(p) == 0.0)


class TestDenseReconstruct:
    def test_no_tick_component(self):
        rng = np.random.default_rng(0)
        p = random_split(5, rng)
        p = update_tick(p, np.zeros(5), np.zeros(5))
        dense = dense_reconstruct(p)
        assert np.array_equal(dense.j, p.j_day)
        assert np.array_equal(dense.h, p.h_day)

    def test_tick_coupling_sign(self):
        p = SplitProblem(
            j_day=np.zeros((2, 2)),
            h_day=np.zeros(2),
            sgn_dp=np.array([1.0, -1.0]),
            abs_dp=np.array([0.01, 0.01]),
            c1=0.0,
            c3=1.0,
        )
        dense = dense_reconstruct(p)
        assert dense.j[0, 1] == pytest.approx(0.5)

    def test_single_stock_bias(self):
        p = SplitProblem(
            j_day=np.zeros((1, 1)),
            h_day=np.zeros(1),
            sgn_dp=np.array([1.0]),
            abs_dp=np.array([0.02]),
            c1=1.0,
            c3=0.0,
        )
        assert compute_h_tick(p) == pytest.approx([-0.01])
        assert dense_reconstruct(p).h == pytest.approx([-0.01])

    def test_matches_tick_qubo_conversion(self):
        # the tick side is exactly the Ising image of the QUBO with diagonal
        # -c1|dp_i| + c3 sgn_i^2 and off-diagonal c3 sgn_i sgn_j
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            p = random_split(n, rng, c1=rng.uniform(0.1, 2.0), c3=rng.uniform(0.1, 2.0))
            p = update_tick(p, p.sgn_dp, p.abs_dp)
            q_tick = p.c3 * np.outer(p.sgn_dp, p.sgn_dp)
            np.fill_diagonal(q_tick, -p.c1 * p.abs_dp + p.c3 * p.sgn_dp**2)
            from sbtrader.ising import qubo_to_ising

            tick_ising = qubo_to_ising(QuboProblem(q_tick))
            dense = dense_reconstruct(p)
            assert np.allclose(dense.j - p.j_day, tick_ising.j, atol=1e-12)
            assert np.allclose(dense.h - p.h_day, tick_ising.h, atol=1e-12)
            assert dense.offset - p.offset_day == pytest.approx(tick_ising.offset, abs=1e-12)


class TestStep:
    def test_null_problem_fixed_point(self):
        p = SplitProblem(
            j_day=np.zeros((3, 3)),
            h_day=np.zeros(3),
            sgn_dp=np.zeros(3),
            abs_dp=np.zeros(3),
            c1=0.0,
            c3=0.0,
        )
        state = OscillatorState(x=np.zeros(3), y=np.zeros(3), step=0)
        new = step(state, p, SbParams())
        assert np.all(new.x == 0.0) and np.all(new.y == 0.0) and new.step == 1

    def test_wall_clamp(self):
        p = SplitProblem(
            j_day=np.zeros((1, 1)),
            h_day=np.zeros(1),
            sgn_dp=np.zeros(1),
            abs_dp=np.zeros(1),
            c1=0.0,
            c3=0.0,
        )
        params = SbParams()
        a0_dt = params.a0 * sb.schedule(p, params)[1]  # dt is 0.6 of the limit 2 / a0 of an uncoupled stock: 0.12
        assert 0.9 + a0_dt * (2.0 - a0_dt * 0.9) > 1.0  # y -= a0 dt x at step 0, then x += a0 dt y: about 2.0
        state = OscillatorState(x=np.array([0.9]), y=np.array([2.0]), step=0)
        new = step(state, p, params)
        assert new.x[0] == 1.0 and new.y[0] == 0.0

    def test_step_counter_guard(self):
        p = random_split(3, np.random.default_rng(0))
        params = SbParams(n_step=5)
        state = OscillatorState(x=np.zeros(3), y=np.zeros(3), step=5)
        with pytest.raises(ValueError):
            step(state, p, params)

    def test_divergence_detected(self):
        # the walls keep plain ballistic dynamics bounded, so force a
        # single-step overflow to exercise the non-finite guard: c0 = 1e308
        # takes the dt floor 6 / 3000, and c0 dt J, the prescaled couplings,
        # is beyond float64 range for couplings of order 1e4
        q = random_split(4, np.random.default_rng(1))
        p = SplitProblem(q.j_day * 1e4, q.h_day, q.sgn_dp, q.abs_dp, q.c1, q.c3)
        params = SbParams(c0=1e308, n_step=10)
        state = OscillatorState(x=np.full(4, 0.5), y=np.zeros(4), step=0)
        with pytest.raises(DivergenceError):
            for _ in range(10):
                state = step(state, p, params)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_matches_dense_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 33))
        p = random_split(n, rng)
        params = SbParams(n_step=300)
        c0 = default_c0(p, params.a0)
        dense = dense_reconstruct(p)
        s_split = initial_state(p, np.random.default_rng([seed, 1]))
        s_dense = OscillatorState(x=s_split.x.copy(), y=s_split.y.copy(), step=0)
        for _ in range(params.n_step):
            s_split = step(s_split, p, params)
            s_dense = step_dense(s_dense, dense, params, c0)
            assert np.abs(s_split.x - s_dense.x).max() <= 1e-10
            assert np.abs(s_split.y - s_dense.y).max() <= 1e-10
            assert np.abs(s_split.x).max() <= 1.0

    @pytest.mark.parametrize("rows", [3, 6])
    def test_dense_step_of_a_batch_matches_split(self, rows):
        # with as many rows as stocks, J X has the shape of the row-wise X J, so a transposed force would not raise
        p = random_split(6, np.random.default_rng(4))
        params = SbParams(n_step=10)
        rng = np.random.default_rng(5)
        state = OscillatorState(x=rng.uniform(-0.9, 0.9, (rows, 6)), y=rng.uniform(-0.1, 0.1, (rows, 6)), step=3)
        want = step(state, p, params)
        got = step_dense(state, dense_reconstruct(p), params, default_c0(p, params.a0))
        assert np.abs(got.x - want.x).max() <= 1e-12
        assert np.abs(got.y - want.y).max() <= 1e-12

    def test_deterministic(self):
        p = random_split(8, np.random.default_rng(2))
        params = SbParams(n_step=50)
        a = initial_state(p, np.random.default_rng(3))
        b = OscillatorState(x=a.x.copy(), y=a.y.copy(), step=0)
        for _ in range(50):
            a = step(a, p, params)
            b = step(b, p, params)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestRunSolve:
    def test_bias_only_ground_state(self):
        prob = IsingProblem(j=np.zeros((1, 1)), h=np.array([-1.0]))
        p = split_from_ising(prob)
        sol = run(p, SbParams(), np.random.default_rng(0))
        assert sol.spins[0] == 1.0

    def test_ferromagnetic_pair(self):
        prob = IsingProblem(j=np.array([[0.0, 1.0], [1.0, 0.0]]), h=np.zeros(2))
        p = split_from_ising(prob)
        for seed in range(5):
            sol = run(p, SbParams(), np.random.default_rng(seed))
            assert sol.spins[0] == sol.spins[1]
            assert sol.energy == pytest.approx(-1.0)

    def test_readout_tie_positive(self):
        p = SplitProblem(
            j_day=np.zeros((2, 2)),
            h_day=np.zeros(2),
            sgn_dp=np.zeros(2),
            abs_dp=np.zeros(2),
            c1=0.0,
            c3=0.0,
        )

        class ZeroRng:
            def uniform(self, lo, hi, n):
                return np.zeros(n)

        sol = run(p, SbParams(n_step=5), ZeroRng())
        assert np.all(sol.spins == 1.0)

    def test_energy_matches_dense_reconstruction(self):
        rng = np.random.default_rng(8)
        p = random_split(10, rng)
        sol = run(p, SbParams(), np.random.default_rng(1))
        assert sol.energy == pytest.approx(ising_energy(dense_reconstruct(p), sol.spins), abs=1e-9)

    def test_solve_restarts_one_equals_run_substream_zero(self):
        p = random_split(6, np.random.default_rng(4))
        params = SbParams(restarts=1, seed=42)
        via_solve = solve(p, params)
        via_run = run(p, params, substream(42, 0), run_index=0)
        assert np.array_equal(via_solve.spins, via_run.spins)
        assert via_solve.energy == via_run.energy

    def test_solve_deterministic(self):
        p = random_split(10, np.random.default_rng(5))
        params = SbParams(restarts=4, seed=7)
        a = solve(p, params)
        b = solve(p, params)
        assert np.array_equal(a.spins, b.spins)
        assert a.energy == b.energy and a.run_index == b.run_index

    def test_restart_monotonicity(self):
        p = random_split(12, np.random.default_rng(6))
        energies = []
        for k in (1, 2, 4, 8):
            sol = solve(p, SbParams(restarts=k, seed=11))
            energies.append(sol.energy)
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_best_of_restarts_beats_single_runs(self):
        p = random_split(12, np.random.default_rng(9), c3=0.5)
        params = SbParams(restarts=10, seed=13)
        best = solve(p, params)
        singles = [run(p, params, substream(13, i), run_index=i).energy for i in range(10)]
        assert best.energy <= min(singles) + 1e-12

    def test_ground_state_on_small_instances(self):
        # brute-force oracle over the QUBO image of the dense reconstruction
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng([21, seed])
            prob_j = rng.normal(0, 1, (10, 10))
            prob_j = (prob_j + prob_j.T) / 2.0
            np.fill_diagonal(prob_j, 0.0)
            prob = IsingProblem(j=prob_j, h=rng.normal(0, 0.5, 10))
            p = split_from_ising(prob)
            sol = solve(p, SbParams(restarts=10, seed=seed))
            best = min(
                ising_energy(prob, np.array([1.0 if (k >> i) & 1 else -1.0 for i in range(10)]))
                for k in range(1 << 10)
            )
            hits += sol.energy == pytest.approx(best, abs=1e-9)
        assert hits >= 8


class TestUpdateTick:
    def test_identity_update(self):
        p = random_split(6, np.random.default_rng(10))
        q = update_tick(p, p.sgn_dp, p.abs_dp)
        assert np.array_equal(q.sgn_dp, p.sgn_dp)
        assert np.array_equal(q.abs_dp, p.abs_dp)
        assert q.c1 == p.c1 and q.c3 == p.c3 and q.offset_day == p.offset_day

    def test_day_storage_shared_not_copied(self):
        p = random_split(6, np.random.default_rng(12))
        q = update_tick(p, np.zeros(6), np.zeros(6))
        assert q.j_day is p.j_day
        assert q.h_day is p.h_day
        run_batch(q, SbParams(), [substream(0, 0)])
        assert vars(q).keys() == vars(p).keys()  # no per-batch buffer cached on the split

    def test_masking_a_stock_zeroes_its_h_tick(self):
        p = random_split(5, np.random.default_rng(13))
        sgn = p.sgn_dp.copy()
        abs_dp = p.abs_dp.copy()
        sgn[2] = 0.0
        abs_dp[2] = 0.0
        q = update_tick(p, sgn, abs_dp)
        assert compute_h_tick(q)[2] == 0.0

    def test_write_counter_linear(self):
        n = 64
        p = random_split(n, np.random.default_rng(14))
        counter = WriteCounter()
        update_tick(p, p.sgn_dp, p.abs_dp, counter=counter)
        assert counter.elements <= 4 * n

    def test_length_mismatch(self):
        p = random_split(4, np.random.default_rng(15))
        with pytest.raises(ValueError):
            update_tick(p, np.zeros(5), np.zeros(5))

    def test_invariant_abs_zero_where_sgn_zero(self):
        p = random_split(4, np.random.default_rng(16))
        with pytest.raises(ValueError):
            update_tick(p, np.zeros(4), np.full(4, 0.1))

    def test_day_side_not_revalidated(self, monkeypatch):
        # a tick update must not re-run the O(n^2) day-side checks of __post_init__
        p = random_split(6, np.random.default_rng(17))

        def fail(self):
            raise AssertionError("update_tick re-ran SplitProblem.__post_init__")

        monkeypatch.setattr(SplitProblem, "__post_init__", fail)
        q = update_tick(p, p.sgn_dp, p.abs_dp)
        assert q.j_day is p.j_day and q.h_day is p.h_day
        assert q.sgn_dp is not p.sgn_dp and np.array_equal(q.sgn_dp, p.sgn_dp)

    @pytest.mark.parametrize(
        "sgn,abs_dp,message",
        [
            ([1.0, 0.5, 0.0], [0.1, 0.1, 0.0], "sgn_dp entries"),
            ([1.0, np.nan, 0.0], [0.1, 0.1, 0.0], "sgn_dp entries"),
            ([1.0, -1.0, 0.0], [0.1, -0.1, 0.0], "abs_dp entries"),
            ([1.0, -1.0, 0.0], [0.1, np.nan, 0.0], "abs_dp entries"),
            ([1.0, -1.0, 0.0], [0.1, 0.1, 0.2], "wherever sgn_dp is 0"),
        ],
    )
    def test_bad_tick_values_rejected_by_both_paths(self, sgn, abs_dp, message):
        p = random_split(3, np.random.default_rng(18))
        with pytest.raises(ValueError, match=message):
            update_tick(p, sgn, abs_dp)
        with pytest.raises(ValueError, match=message):
            SplitProblem(j_day=p.j_day, h_day=p.h_day, sgn_dp=sgn, abs_dp=abs_dp, c1=1.0, c3=1.0)


def reference_c0(p, a0):
    """default_c0 as it was before the day scale moved into SplitProblem: an n x n scan per call."""
    off = p.j_day[~np.eye(p.n, dtype=bool)]
    nonzero = off[off != 0.0]
    if nonzero.size:
        scale = float(np.sqrt(np.mean(nonzero**2)))
    elif p.c3 > 0.0 and np.count_nonzero(p.sgn_dp) >= 2:
        scale = p.c3 / 2.0
    else:
        scale = 1.0
    return 1.5 * a0 / (np.sqrt(p.n) * scale)


class TestDefaultC0:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_reference_on_random_splits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        p = random_split(n, rng)
        if seed % 2:  # sparse couplings: zeros must be skipped in the same order
            j_day = p.j_day * (rng.uniform(size=(n, n)) < 0.3)
            p = SplitProblem(np.triu(j_day, 1) + np.triu(j_day, 1).T, p.h_day, p.sgn_dp, p.abs_dp, p.c1, p.c3)
        for a0 in (1.0, 10.0):
            assert default_c0(p, a0) == reference_c0(p, a0)
            q = update_tick(p, np.zeros(n), np.zeros(n))
            assert q.day_rms == p.day_rms and default_c0(q, a0) == default_c0(p, a0) == reference_c0(q, a0)

    def test_tick_fallback_without_day_couplings(self):
        p = SplitProblem(np.zeros((4, 4)), np.zeros(4), np.array([1.0, -1.0, 1.0, 0.0]),
                         np.array([0.1, 0.2, 0.1, 0.0]), c1=1.0, c3=3.0)
        assert p.day_rms == 0.0
        assert default_c0(p, 10.0) == reference_c0(p, 10.0) == 1.5 * 10.0 / (2.0 * 1.5)
        # fewer than two nonzero signs after a tick update: the unit fallback, read from the new split
        q = update_tick(p, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.1, 0.0, 0.0, 0.0]))
        assert default_c0(q, 10.0) == reference_c0(q, 10.0) == 1.5 * 10.0 / 2.0

    def test_unit_fallback(self):
        p = SplitProblem(np.zeros((9, 9)), np.ones(9), np.ones(9), np.full(9, 0.1), c1=1.0, c3=0.0)
        assert default_c0(p, 1.0) == reference_c0(p, 1.0) == 0.5
        assert default_c0(update_tick(p, np.ones(9), np.full(9, 0.2)), 1.0) == 0.5

    def test_no_day_scan_per_call(self):
        # the day scale is read, not recomputed: a poisoned j_day after construction goes unseen
        p = random_split(8, np.random.default_rng(3))
        c0 = default_c0(p, 10.0)
        p.j_day = np.full((8, 8), np.nan)
        assert default_c0(update_tick(p, p.sgn_dp, p.abs_dp), 10.0) == c0


def masked_split(n, rng):
    """A random split, its kept (unmasked) stocks and its masked ones; a masked stock has no tick terms."""
    p = random_split(n, rng)
    mask = rng.uniform(size=n) < 0.4
    mask[rng.integers(n)] = False  # at least one stock kept
    p = update_tick(p, np.where(mask, 0.0, p.sgn_dp), np.where(mask, 0.0, p.abs_dp))
    return p, np.flatnonzero(~mask), np.flatnonzero(mask)


def all_spins(n):
    """Every spin vector of length n, one per row."""
    keys = np.arange(1 << n)[:, None]
    return np.where((keys >> np.arange(n)) & 1, 1.0, -1.0)


class TestRestrict:
    @pytest.mark.parametrize("seed", range(8))
    def test_constrained_minimum_is_the_restricted_minimum(self, seed):
        rng = np.random.default_rng(seed)
        p, keep, fixed = masked_split(int(rng.integers(2, 13)), rng)
        r = restrict(p, keep)
        dense, dense_r = dense_reconstruct(p), dense_reconstruct(r)
        spins = all_spins(p.n)
        allowed = spins[(spins[:, fixed] < 0).all(axis=1)]  # groups whose masked bits are 0
        full_min = min(ising_energy(dense, s) for s in allowed)
        # the fixed spins' constant, read densely: -1/2 sum of J over fixed pairs minus their h
        constant = -0.5 * p.j_day[np.ix_(fixed, fixed)].sum() - p.h_day[fixed].sum()
        shift = r.offset_day - p.offset_day  # restrict folds the constant into the offset
        assert shift == pytest.approx(constant, abs=1e-9)
        restricted_min = min(ising_energy(dense_r, s) for s in all_spins(len(keep))) - shift
        assert full_min == pytest.approx(restricted_min + constant, abs=1e-9)
        # and state by state: fixing the masked spins at -1 keeps each energy
        for s in all_spins(len(keep)):
            full = -np.ones(p.n)
            full[keep] = s
            assert ising_energy(dense_r, s) == pytest.approx(ising_energy(dense, full), abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_expanded_energy_is_the_full_energy(self, seed):
        rng = np.random.default_rng(100 + seed)
        p, keep, fixed = masked_split(16, rng)
        sols = expand(run_batch(restrict(p, keep), SbParams(), [substream(seed, i) for i in range(4)]), keep, p.n)
        dense = dense_reconstruct(p)
        for sol in sols:
            assert sol.spins.shape == (p.n,) and (sol.spins[fixed] == -1.0).all()
            assert sol.energy == pytest.approx(ising_energy(dense, sol.spins), rel=1e-12, abs=1e-9)

    def test_blocks_gathered_from_the_day_split(self):
        p, keep, _ = masked_split(12, np.random.default_rng(7))
        r = restrict(p, keep)
        block = np.ix_(keep, keep)
        assert np.array_equal(r.j_day, p.j_day[block])
        assert np.array_equal(r.sgn_dp, p.sgn_dp[keep]) and np.array_equal(r.abs_dp, p.abs_dp[keep])
        assert r.day_rms == SplitProblem(r.j_day, r.h_day, r.sgn_dp, r.abs_dp, r.c1, r.c3).day_rms
        assert default_c0(r, 10.0) == reference_c0(r, 10.0)  # c0 is calibrated with sqrt(k)

    def test_no_day_scan_per_call(self):
        # the row sums are read, not recomputed: poisoned masked rows and columns after construction go unseen
        p, keep, fixed = masked_split(12, np.random.default_rng(8))
        assert update_tick(p, p.sgn_dp, p.abs_dp).day_row_sum is p.day_row_sum  # derived once per day split
        want = restrict(p, keep)
        p.j_day[fixed, :] = np.nan
        p.j_day[:, fixed] = np.nan
        got = restrict(p, keep)
        for name in ("j_day", "h_day", "day_row_sum"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.offset_day == want.offset_day and got.day_rms == want.day_rms

    def test_stock_with_tick_terms_cannot_be_fixed(self):
        p = random_split(4, np.random.default_rng(9))
        p = update_tick(p, np.array([1.0, -1.0, 1.0, 0.0]), np.array([0.1, 0.1, 0.1, 0.0]))
        with pytest.raises(ValueError, match="sgn_dp == 0"):
            restrict(p, [0, 1])
        assert restrict(p, [0, 1, 2]).n == 3

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("coupled", [True, False])
    def test_tiny_restrictions_solve_with_a_float32_c0(self, k, coupled):
        rng = np.random.default_rng(k)
        p = random_split(6, rng)
        if not coupled:  # no day coupling inside the kept block: default_c0 takes a fallback
            j_day = p.j_day.copy()
            j_day[:k, :k] = 0.0
            p = SplitProblem(j_day, p.h_day, p.sgn_dp, p.abs_dp, p.c1, p.c3)
        sgn = np.where(np.arange(6) < k, [1.0, -1.0, 1.0, 1.0, 1.0, 1.0], 0.0)
        p = update_tick(p, sgn, np.abs(sgn) * 0.01)
        r = restrict(p, np.arange(k))
        assert r.n == k and np.isfinite(np.float32(default_c0(r, 10.0)))
        sols = expand(run_batch(r, SbParams(), [substream(0, i) for i in range(3)]), np.arange(k), p.n)
        assert all(sol is not None for sol in sols)
        best = min(ising_energy(dense_reconstruct(r), s) for s in all_spins(k))
        assert pick_best(sols).energy == pytest.approx(best, abs=1e-9)

    def test_huge_c0_still_diverges(self):
        p, keep, _ = masked_split(10, np.random.default_rng(11))
        assert expand(run_batch(restrict(p, keep), SbParams(c0=1e308), [substream(0, i) for i in range(3)]),
                      keep, p.n) == [None, None, None]


class TestSplitProblemValidation:
    def test_asymmetric_day_rejected(self):
        j = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            SplitProblem(j_day=j, h_day=np.zeros(2), sgn_dp=np.zeros(2), abs_dp=np.zeros(2), c1=1.0, c3=1.0)

    def test_bad_sgn_values_rejected(self):
        with pytest.raises(ValueError):
            SplitProblem(
                j_day=np.zeros((2, 2)),
                h_day=np.zeros(2),
                sgn_dp=np.array([0.5, 0.0]),
                abs_dp=np.zeros(2),
                c1=1.0,
                c3=1.0,
            )


class ConstRng:
    """Stands in for a generator: every draw of initial momenta is `value`."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi, n):
        return np.full(n, self.value)


def selection_split(k, seed, penalty=3.0):
    """random_instance(k, 4) with c1 = 300 and the trading penalties c2 = c3 = 3: its deviations and split.

    penalty=None takes random_instance's default, which dominates the whole cost range.
    """
    dev, corr, params = random_instance(k, 4, np.random.default_rng(seed), c1=300.0, penalty=penalty)
    return dev, build_split(dev, corr, params)


class TestSchedule:
    """run_batch and step derive dt from the batch's couplings, and n_step too unless it is set (see SbParams)."""

    def test_explicit_values_keep_their_meaning(self):
        p = random_split(8, np.random.default_rng(60))
        n_step, dt = sb.schedule(p, SbParams())
        assert n_step == math.ceil(6.0 / dt)
        # an explicit n_step runs at the derived dt; dt and a0 are not options
        assert sb.schedule(p, SbParams(n_step=50)) == (50, dt)
        assert sb.schedule(p, SbParams(n_step=7)) == (7, dt)
        for key in ("dt", "a0"):
            with pytest.raises(TypeError, match=key):
                SbParams(**{key: 1.0})
        assert SbParams(n_step=300).a0 == 10.0
        # an explicit c0 is the force's, and the derived dt follows it; c0=1e308 takes the floor's 3000 steps
        n_step4, dt4 = sb.schedule(p, SbParams(c0=4.0 * default_c0(p, 10.0)))
        assert dt4 < dt and n_step4 == math.ceil(6.0 / dt4)
        assert sb.schedule(p, SbParams(c0=1e308)) == (3000, 6.0 / 3000)

    @pytest.mark.parametrize("c0_factor", [None, 4.0])
    @pytest.mark.parametrize("k", [16, 128, 512])
    def test_derived_dt_lies_below_the_stability_limit(self, k, c0_factor):
        # symplectic Euler on x'' = -a0 (a0 + c0 |lambda|) x is stable only for dt < 2 / sqrt(a0 (a0 + c0 |lambda|));
        # the Gershgorin bound on |lambda_min(J)| keeps the derived dt at or below 0.6 of that limit, for the
        # c0 the force uses (an explicit 4 default_c0 is past the limit of a dt derived from default_c0)
        _, p = selection_split(k, k)
        params = SbParams(c0=None if c0_factor is None else c0_factor * default_c0(p, 10.0))
        c0 = default_c0(p, 10.0) * (c0_factor or 1.0)
        lam = np.linalg.eigvalsh(dense_reconstruct(p).j)[0]
        limit = 2.0 / np.sqrt(10.0 * (10.0 + c0 * abs(lam)))
        n_step, dt = sb.schedule(p, params)
        assert 0.5 * limit < dt <= 0.6 * limit
        # the anneal time n_step dt is 6 up to k = 128, and grows as sqrt(k) past it
        assert n_step == math.ceil(6.0 * max(1.0, math.sqrt(k / 128)) / dt)

    @pytest.mark.parametrize("k", [256, 512])
    def test_defaults_find_feasible_rows_where_a_fixed_shorter_schedule_finds_none(self, k):
        # the limit shrinks about as k^-1/4 (0.040 at k = 256): a fixed 150 x 0.04 finds no feasible row on
        # these 8 instances, at either k
        found = 0
        for seed in range(8):
            dev, p = selection_split(k, seed)
            rows = run_batch(p, SbParams(seed=seed), [substream(seed, i) for i in range(10)])
            found += any(check_constraints((sol.spins + 1.0) / 2.0, dev, 4).ok for sol in rows if sol is not None)
        assert found >= 1

    def test_large_batches_anneal_longer(self):
        # past k = 128 the anneal time grows as sqrt(k) (12 at k = 512): on instances 0-15 the defaults find a
        # feasible row on 13, the former fixed 300 x 0.02 on 8, and the derived dt with the anneal time held at 6 on 5
        found = 0
        for seed in range(16):
            dev, p = selection_split(512, seed)
            rows = run_batch(p, SbParams(seed=seed), [substream(seed, i) for i in range(10)])
            found += any(check_constraints((sol.spins + 1.0) / 2.0, dev, 4).ok for sol in rows if sol is not None)
        assert found >= 10

    def test_dt_floor_bounds_the_steps(self):
        # day couplings 1e-30 times the tick coupling make default_c0 about 1e31: the limit is far below any
        # useful dt, and the floor keeps the batch at 3000 steps instead of about 1e17
        p = random_split(8, np.random.default_rng(61), c3=3.0)
        p = SplitProblem(p.j_day * 1e-30, p.h_day, p.sgn_dp, p.abs_dp, p.c1, p.c3)
        assert sb.schedule(p, SbParams()) == (3000, 6.0 / 3000)
        assert all(sol is not None for sol in run_batch(p, SbParams(), [substream(0, i) for i in range(3)]))


class TestBatch:
    @pytest.mark.parametrize("n", [6, 16, 128])
    @pytest.mark.parametrize("restarts", [1, 2, 10])
    def test_rows_match_sequential_runs(self, n, restarts):
        p = random_split(n, np.random.default_rng([30, n]))
        params = SbParams(restarts=restarts, seed=3)
        batch = run_batch(p, params, [substream(3, i) for i in range(restarts)])
        dense = dense_reconstruct(p)
        for i, sol in enumerate(batch):
            single = run(p, params, substream(3, i), run_index=i)
            assert sol.run_index == i
            assert np.array_equal(sol.spins, single.spins)
            assert sol.energy == pytest.approx(ising_energy(dense, sol.spins), abs=1e-9)
            assert single.energy == pytest.approx(ising_energy(dense, single.spins), abs=1e-9)

    def test_start_offsets_run_indices(self):
        p = random_split(8, np.random.default_rng(31))
        batch = run_batch(p, SbParams(), [substream(0, i) for i in (4, 5)], start=4)
        assert [sol.run_index for sol in batch] == [4, 5]

    @pytest.mark.parametrize("n", [5, 24])
    def test_batched_step_matches_separate_steps(self, n):
        rng = np.random.default_rng([32, n])
        p = random_split(n, rng)
        params = SbParams(n_step=300)
        rows = [initial_state(p, np.random.default_rng([32, r])) for r in range(4)]
        batch = OscillatorState(x=np.array([s.x for s in rows]), y=np.array([s.y for s in rows]))
        for _ in range(params.n_step):
            batch = step(batch, p, params)
            rows = [step(s, p, params) for s in rows]
            assert np.abs(batch.x - np.array([s.x for s in rows])).max() <= 1e-10
            assert np.abs(batch.y - np.array([s.y for s in rows])).max() <= 1e-10

    def test_diverged_row_reported_others_unchanged(self):
        p = random_split(10, np.random.default_rng(33))
        params = SbParams()
        rngs = [substream(5, 0), substream(5, 1), ConstRng(1e308), substream(5, 3), substream(5, 4)]
        batch = run_batch(p, params, rngs)
        assert batch[2] is None
        for i in (0, 1, 3, 4):
            single = run(p, params, substream(5, i), run_index=i)
            assert np.array_equal(batch[i].spins, single.spins)
            assert batch[i].energy == pytest.approx(single.energy, abs=1e-9)
        with pytest.raises(DivergenceError):
            run(p, params, ConstRng(1e308), run_index=2)

    def test_batched_step_raises_on_any_diverged_row(self):
        p = random_split(4, np.random.default_rng(34))
        state = OscillatorState(x=np.zeros((3, 4)), y=np.array([np.zeros(4), np.full(4, np.inf), np.zeros(4)]))
        with pytest.raises(DivergenceError):
            step(state, p, SbParams())  # x += a0 dt y is inf in row 1, and the wall makes it NaN


def zero_bias_split(n, rng, scale=1.0):
    """Random day couplings, times scale, with no bias and an all-zero tick side."""
    return SplitProblem(
        j_day=random_split(n, rng).j_day * scale, h_day=np.zeros(n), sgn_dp=np.zeros(n), abs_dp=np.zeros(n), c1=0.0,
        c3=0.0,
    )


# c0 = 1e308 overflows c0 g, so the derived dt is the floor 6 / 3000; couplings 1/dt = 500 times larger make c0 dt J,
# the prescaled couplings, the c0 J of an unscaled step, so a float64 step overflows where c0 (J x - h) would
# (prescaling moves that point by 1/dt)
OVERFLOW_AT_THE_WALL = dict(params=SbParams(n_step=300, c0=1e308), scale=500.0)


def assert_same_batches(got, want):
    """Exact equality: spins, energies, run indices and the diverged (None) rows."""
    assert len(got) == len(want)
    for sol, ref in zip(got, want):
        assert (sol is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(sol.spins, ref.spins)
            assert sol.energy == ref.energy
            assert sol.run_index == ref.run_index


class TestReferenceKernel:
    """The in-place kernel against the allocating one it replaced (tests/helpers.py)."""

    @pytest.mark.parametrize("n", [1, 2, 6, 16, 128])
    @pytest.mark.parametrize("restarts", [1, 3, 10])
    def test_run_batch_bit_identical(self, n, restarts):
        for seed in range(3):
            for tick in ("random", "zero"):
                rng = np.random.default_rng([41, n, seed])
                p = random_split(n, rng) if tick == "random" else zero_bias_split(n, rng)
                for c0 in (None, 1e308):
                    params = SbParams(c0=c0)

                    def rngs():
                        rows = [substream(seed, i) for i in range(restarts)]
                        if restarts >= 3 and seed == 1:
                            rows[restarts // 2] = ConstRng(1e308)  # a 1e308-momentum row
                        return rows

                    got = run_batch(p, params, rngs(), start=seed)
                    want = helpers.reference_run_batch(p, params, rngs(), start=seed, dtype=np.float32)
                    assert_same_batches(got, want)
                    if c0 is None and not (restarts >= 3 and seed == 1):
                        assert all(sol is not None for sol in got)

    def test_rows_diverging_after_the_wall(self):
        # With no bias and c0=1e308, the walls clamp every row at step 1 and
        # the rows first go non-finite at step 2: the wall must not hide that.
        p = zero_bias_split(6, np.random.default_rng(42), OVERFLOW_AT_THE_WALL["scale"])
        params = OVERFLOW_AT_THE_WALL["params"]
        for r in range(3):
            state, walled = initial_state(p, substream(7, r)), False
            with pytest.raises(DivergenceError, match="at step [23];"):
                for _ in range(params.n_step):
                    state = helpers.reference_step(state, p, params)
                    walled |= bool(np.any(np.abs(state.x) == 1.0))
            assert walled
        got = run_batch(p, params, [substream(7, r) for r in range(3)])
        assert got == [None, None, None]
        assert_same_batches(got, helpers.reference_run_batch(p, params, [substream(7, r) for r in range(3)]))

    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("n", [6, 24])
    def test_step_bit_identical(self, n, rows):
        p = random_split(n, np.random.default_rng([43, n]))
        params = SbParams()
        shape = (n,) if rows is None else (rows, n)
        state = OscillatorState(x=np.zeros(shape), y=np.random.default_rng(44).uniform(-0.1, 0.1, shape))
        ref = state
        for _ in range(sb.schedule(p, params)[0]):
            state, ref = step(state, p, params), helpers.reference_step(ref, p, params)
            assert np.array_equal(state.x, ref.x) and np.array_equal(state.y, ref.y)
            assert state.step == ref.step

    @pytest.mark.parametrize("n", [6, 24])
    def test_prescaled_trajectory_tracks_the_unscaled_update(self, n):
        # the kernel and its reference fold c0 dt into J and h and dt into the gap and a0; in float64 that
        # changes only the rounding of the update y += (gap x + c0 (J x - h)) dt, x += a0 y dt
        p = random_split(n, np.random.default_rng([49, n]))
        params = SbParams()
        n_step, dt = sb.schedule(p, params)
        c0, dense = default_c0(p, params.a0), dense_reconstruct(p)
        state = initial_state(p, np.random.default_rng(50))
        x, y = state.x, state.y
        for k in range(n_step):
            state = step(state, p, params)
            x, y = helpers.unscaled_advance(x, y, params.a0 * k / (n_step - 1), c0, dense.j, dense.h, params, dt)
            assert np.abs(state.x - x).max() <= 1e-12 and np.abs(state.y - y).max() <= 1e-12

    @pytest.mark.parametrize("rows", [None, 3])
    def test_step_raises_where_reference_does(self, rows):
        p = zero_bias_split(6, np.random.default_rng(45), OVERFLOW_AT_THE_WALL["scale"])
        params = OVERFLOW_AT_THE_WALL["params"]
        shape = (6,) if rows is None else (rows, 6)
        state = OscillatorState(x=np.zeros(shape), y=np.random.default_rng(46).uniform(-0.1, 0.1, shape))
        ref = state
        with pytest.raises(DivergenceError, match="at step 2;"):
            for _ in range(params.n_step):
                ref = helpers.reference_step(ref, p, params)
        with pytest.raises(DivergenceError, match="at step 2;"):
            for _ in range(params.n_step):
                state = step(state, p, params)

    @pytest.mark.parametrize("shape", [(8,), (3, 8)])
    def test_step_leaves_caller_state_alone(self, shape):
        p = random_split(8, np.random.default_rng(47))
        rng = np.random.default_rng(48)
        state = OscillatorState(x=rng.uniform(-1.0, 1.0, shape), y=rng.uniform(-2.0, 2.0, shape), step=3)
        state.x[..., 0], state.y[..., 0] = 0.99, 5.0  # x would reach 0.99 + 10*5*0.02 > 1
        x0, y0 = state.x.copy(), state.y.copy()
        new = step(state, p, SbParams())
        assert np.array_equal(state.x, x0) and np.array_equal(state.y, y0) and state.step == 3
        assert not np.array_equal(new.x, x0)  # the step did move it, on its own copy
        walled = np.abs(new.x) == 1.0
        assert np.any(walled) and np.all(new.y[walled] == 0.0)


def record_anneal(monkeypatch):
    """Wrap sb._anneal: each call appends (x, y, j, h, gaps, a0, steps run), with x and y as the call left them."""
    calls = []
    anneal = sb._anneal

    def recorded(x, y, j, h, gaps, a0):
        ran = anneal(x, y, j, h, gaps, a0)
        calls.append((x.copy(), y.copy(), j, h, gaps, a0, ran))
        return ran

    monkeypatch.setattr(sb, "_anneal", recorded)
    return calls


LOCK_SIZES = [4, 6, 10, 16, 22, 64, 128]


class TestLockedStop:
    """_anneal stops a batch once every row is locked on the wall, with the x of the full run (sb._locked)."""

    @pytest.mark.parametrize("penalty", [3.0, None], ids=["penalty3", "default"])
    @pytest.mark.parametrize("k", LOCK_SIZES)
    def test_no_remaining_step_moves_a_locked_batch(self, monkeypatch, k, penalty):
        kernel = sb._anneal
        calls = record_anneal(monkeypatch)
        for seed in range(10):
            _, p = selection_split(k, seed, penalty)
            run_batch(p, SbParams(seed=seed), [substream(seed, i) for i in range(10)])
        for x, y, j, h, gaps, a0, ran in calls:  # a batch that never locked ran every gap: nothing remains
            locked = x.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(ran, len(gaps)):  # one gap a call: the remaining steps, with no lock check
                    kernel(x, y, j, h, gaps[i : i + 1], a0)
            assert np.array_equal(x.view(np.uint32), locked.view(np.uint32))

    @pytest.mark.parametrize("penalty", [3.0, None], ids=["penalty3", "default"])
    @pytest.mark.parametrize("k", LOCK_SIZES)
    def test_stopped_batches_equal_the_full_length_oracle(self, monkeypatch, k, penalty):
        calls = record_anneal(monkeypatch)
        for seed in range(10):
            _, p = selection_split(k, seed, penalty)
            params = SbParams(seed=seed)
            got = run_batch(p, params, [substream(seed, i) for i in range(10)])
            want = helpers.reference_run_batch(p, params, [substream(seed, i) for i in range(10)], dtype=np.float32)
            assert_same_batches(got, want)
        if k <= 22:  # the saving itself: small batches lock well before their last step
            assert sum(ran < len(gaps) for *_, gaps, _, ran in calls) >= 8

    def test_diverged_rows_never_lock(self, monkeypatch):
        _, p = selection_split(10, 0)
        params = SbParams()
        n_step = sb.schedule(p, params)[0]
        calls = record_anneal(monkeypatch)
        clean = run_batch(p, params, [substream(0, i) for i in range(4)])

        def rngs():
            return [substream(0, 0), substream(0, 1), ConstRng(1e308), substream(0, 2), substream(0, 3)]

        mixed = run_batch(p, params, rngs())
        assert calls[0][-1] < n_step and calls[1][-1] == n_step
        assert mixed[2] is None
        for sol, ref in zip(mixed[:2] + mixed[3:], clean):
            assert np.array_equal(sol.spins, ref.spins)
            assert sol.energy == pytest.approx(ref.energy, rel=1e-12)
        assert_same_batches(mixed, helpers.reference_run_batch(p, params, rngs(), dtype=np.float32))
        # c0 beyond float32 range makes every row NaN from the first step: all 3000 steps of the dt floor run
        assert run_batch(p, SbParams(c0=1e308), [substream(0, i) for i in range(3)]) == [None, None, None]
        assert calls[2][-1] == len(calls[2][4]) == 3000

    @staticmethod
    def wall_state():
        """Three rows of six stocks on the wall, moving outward: x J - h = 2 x, y = x / 2, for gap -1/4."""
        rng = np.random.default_rng(70)
        x = rng.choice([-1.0, 1.0], (3, 6)).astype(np.float32)
        m = rng.integers(-8, 9, (6, 6)) / 8.0
        j = (m + m.T).astype(np.float32)  # eighths: every product and sum below is exact in float32
        np.fill_diagonal(j, 0.0)
        return x, x / 2, j, x @ j - 2 * x, np.asarray(-0.25, np.float32)

    @staticmethod
    def locked(x, y, j, h, gap):
        return sb._locked(x, y, j, h, gap, np.empty_like(x), np.empty_like(x))

    def test_a_state_moving_outward_locks_and_stays(self):
        x, y, j, h, gap = self.wall_state()
        assert self.locked(x, y, j, h, gap)
        gaps = np.linspace(-0.25, 0.0, 40).astype(np.float32)
        a0 = np.asarray(0.5, np.float32)
        before = x.copy()
        assert sb._anneal(x, y, j, h, gaps, a0) == 16  # the first chunk boundary
        for i in range(16, len(gaps)):
            sb._anneal(x, y, j, h, gaps[i : i + 1], a0)
        assert np.array_equal(x, before)

    def test_momentum_against_the_wall_does_not_lock(self):
        x, y, j, h, gap = self.wall_state()
        y[1, 2] = -y[1, 2]
        assert not self.locked(x, y, j, h, gap)

    def test_inward_force_does_not_lock(self):
        x, y, j, h, gap = self.wall_state()
        h[0, 3] += 4 * x[0, 3]  # x J - h = -2 x there: x (x gap + x J - h) = -2.25
        assert not self.locked(x, y, j, h, gap)
        before = x.copy()
        sb._anneal(x, y, j, h, gap.reshape(1), np.asarray(0.5, np.float32))  # y = -1.75 x, then x = 0.125 x
        assert x[0, 3] == 0.125 * before[0, 3]
        x[0, 3] = before[0, 3]
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("field", ["x", "y"])
    def test_nan_does_not_lock(self, field):
        x, y, j, h, gap = self.wall_state()
        {"x": x, "y": y}[field][2, 0] = np.nan
        assert not self.locked(x, y, j, h, gap)

    def test_force_too_large_to_step_finitely_does_not_lock(self):
        # x (x gap + x J - h) = 3e38 >= 0 holds, but y += 3e38 x and a0 y overflow, and the wall makes x NaN
        x, y, j, h, gap = self.wall_state()
        h[1, 1] = -3e38 * x[1, 1]
        assert not self.locked(x, y, j, h, gap)
        with np.errstate(over="ignore", invalid="ignore"):
            sb._anneal(x, y, j, h, gap.reshape(1), np.asarray(1.2, np.float32))
        assert np.isnan(x[1, 1])


class TestFloat32:
    """run_batch steps in float32; the float64 reference kernel is the precision it is held to."""

    def test_tight_instances_same_spins_as_float64(self):
        for k in range(30):
            split = build_split(*helpers.tight_instance(16, 4, k))
            params = SbParams(restarts=10, seed=k)
            got = run_batch(split, params, [substream(k, i) for i in range(10)])
            want = helpers.reference_run_batch(split, params, [substream(k, i) for i in range(10)])
            assert all(np.array_equal(g.spins, w.spins) for g, w in zip(got, want)), f"instance {k}"

    def test_random_splits_lose_no_quality(self):
        differ = rows = 0
        for n in (16, 64, 128, 256):
            for k in range(10):
                p = random_split(n, np.random.default_rng([51, n, k]))
                got = run_batch(p, SbParams(), [substream(k, i) for i in range(10)])
                want = helpers.reference_run_batch(p, SbParams(), [substream(k, i) for i in range(10)])
                differ += sum(not np.array_equal(g.spins, w.spins) for g, w in zip(got, want))
                rows += len(want)
                best32, best64 = pick_best(got).energy, pick_best(want).energy
                assert best32 <= best64 + 1e-3 * abs(best64), f"n={n} split {k}: {best32} vs {best64}"
        print(f"float32 rows whose spins differ from float64: {differ} of {rows}")

    def test_c0_beyond_float32_range_diverges(self):
        p = random_split(1, np.random.default_rng(52))
        params = SbParams(c0=1e308)
        assert all(sol is not None for sol in helpers.reference_run_batch(p, params, [substream(0, 0)]))
        assert run_batch(p, params, [substream(0, 0)]) == [None]

    nan_pair = np.ones((8, 8))
    nan_pair[0, 1] = nan_pair[1, 0] = np.nan  # symmetric but for NaN != NaN; the diagonal stays 0

    @pytest.mark.parametrize(
        "scaled, factor",
        [(("j_day", "h_day"), 1e39), (("j_day",), 1e39), (("h_day",), 1e39), (("j_day",), nan_pair)],
        ids=["j_day+h_day", "j_day", "h_day", "nan-j_day"],
    )
    def test_day_side_beyond_float32_range_rejected(self, scaled, factor):
        # run_batch would cast such an entry to inf and diverge every row; the split rejects it, without a warning
        p = random_split(8, np.random.default_rng(0))
        fields = dict(j_day=p.j_day, h_day=p.h_day, sgn_dp=p.sgn_dp, abs_dp=p.abs_dp, c1=p.c1, c3=p.c3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float32 range"):
                SplitProblem(**{**fields, **{name: fields[name] * factor for name in scaled}})
            bound = float(np.finfo(np.float32).max) / max(np.abs(p.j_day).max(), np.abs(p.h_day).max())
            SplitProblem(**{**fields, **{name: fields[name] * bound for name in scaled}})

    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    def test_every_kernel_operand_is_float32(self, monkeypatch, restricted):
        # a float64 operand, 0-d included, would silently make its ufunc compute in float64, and an array
        # operand that broadcasts against the state costs 2-3x one of the state's shape on every step
        p, keep, _ = masked_split(16, np.random.default_rng(53))
        if restricted:
            p = restrict(p, keep)
        calls = []
        anneal = sb._anneal

        def recorded(*args):
            calls.append(args)
            anneal(*args)

        monkeypatch.setattr(sb, "_anneal", recorded)
        run_batch(p, SbParams(n_step=4), [substream(0, i) for i in range(3)])
        assert len(calls) == 1  # the whole loop is one call per batch
        x, y, j, h, gaps, a0 = calls[0]
        assert x.shape == (3, p.n)
        assert all(isinstance(a, np.ndarray) and a.dtype == np.float32 for a in calls[0])
        for a in (y, h):  # a real copy of x's shape: a stride-0 view would still broadcast
            assert a.shape == x.shape and 0 not in a.strides
        assert gaps.shape == (4,) and a0.shape == ()
        # the folded couplings are cast per batch into a cache-line-aligned buffer: at n=512 a mid-line
        # start made every step's x @ J 30-50% slower; J, h, the gaps and a0 are scaled after the cast
        _, dt = sb.schedule(p, SbParams(n_step=4))
        f32 = np.float32
        scale = f32(default_c0(p, 10.0)) * f32(dt)
        dense = dense_reconstruct(p)
        assert j.flags.c_contiguous and j.ctypes.data % 64 == 0
        assert np.array_equal(j, dense.j.astype(f32) * scale)
        assert np.array_equal(h, np.tile(dense.h.astype(f32) * scale, (3, 1)))
        assert np.array_equal(gaps, (10.0 * np.arange(4) / 3 - 10.0).astype(f32) * f32(dt))
        assert a0 == f32(10.0) * f32(dt)


class TestTieBreak:
    def test_ulp_difference_goes_to_lower_index(self):
        e = -21.39711077492566
        sols = [SbSolution(np.ones(2), energy, i, 0.0) for i, energy in enumerate([e, e - 8e-15, e + 1e-15])]
        assert pick_best(sols).run_index == 0

    def test_real_improvement_wins(self):
        sols = [SbSolution(np.ones(2), energy, i, 0.0) for i, energy in enumerate([-1.0, -1.0 - 1e-6, -1.0])]
        assert pick_best(sols).run_index == 1

    def test_rows_with_equal_spins_return_lower_index(self):
        # every row of this batch reaches the ground state; the pick must be row 0
        # whatever rounding the batched readout gives the later rows
        p = random_split(16, np.random.default_rng([16, 2]))
        params = SbParams(restarts=10, seed=2)
        batch = run_batch(p, params, [substream(2, i) for i in range(10)])
        best = solve(p, params)
        same = [sol.run_index for sol in batch if np.array_equal(sol.spins, best.spins)]
        assert len(same) >= 2
        assert best.run_index == same[0]

    def test_identical_rows_pick_first(self):
        p = random_split(12, np.random.default_rng(35))
        batch = run_batch(p, SbParams(), [ConstRng(0.05)] * 10)
        assert all(np.array_equal(sol.spins, batch[0].spins) for sol in batch)
        assert pick_best(batch).run_index == 0
