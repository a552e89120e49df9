"""Shared fixtures: the engineered convergence scenario, oracle-calibrated instances and reference code."""

import itertools

import numpy as np

from sbtrader.engine import EngineConfig
from sbtrader.feed import FEED_HEADER, SynthSpec, TickEvent, synth_generate, write_feed
from sbtrader.ising import qubo_energy
from sbtrader.sb import DivergenceError, OscillatorState, SbSolution, _energies, default_c0, dense_reconstruct, initial_state
from sbtrader.strategy import (
    CorrelationMatrix,
    Stock,
    StrategyParams,
    Universe,
    random_instance,
    save_correlation,
    save_universe,
)

BASE = 5000.0
MIN_LOT = 100
LOTS = 8  # floor(4e6 / (100 * 5000))
SHARES = LOTS * MIN_LOT


def make_universe(n=6):
    return Universe([Stock(code=f"10{i:02d}", base_price=BASE, min_lot=MIN_LOT) for i in range(1, n + 1)])


def convergence_events(codes):
    """Feed whose optimal group is codes[0:2] long, codes[2:4] short.

    All VWAPs pin at the base price; the four signal stocks deviate at 2.5 s
    and converge exactly back to VWAP at 100 s, which triggers the take-profit
    close of every leg.
    """
    events = []
    for i, c in enumerate(codes):
        events.append(TickEvent(100_000 + i, c, "trade", BASE, 100))
    for i, c in enumerate(codes):
        events.append(TickEvent(150_000 + i, c, "quote", BASE + 1, BASE - 1))
    signal = {
        codes[0]: (BASE - 20, BASE - 22),
        codes[1]: (BASE - 19, BASE - 21),
        codes[2]: (BASE + 22, BASE + 20),
        codes[3]: (BASE + 21, BASE + 19),
    }
    t = 2_500_000
    for c, (a, b) in signal.items():
        events.append(TickEvent(t, c, "quote", a, b))
        t += 100
    t = 100_000_000
    for c in codes[:4]:
        events.append(TickEvent(t, c, "quote", BASE + 1, BASE - 1))
        t += 100
    events.sort(key=lambda e: (e.ts, e.code, e.kind))
    return events


def convergence_params(commission_rate=0.0, restarts=3):
    params = StrategyParams(
        n_s=4, p_max=4, a_trans=4_000_000.0, c1=1000.0, c2=30.0, c3=30.0, accept_threshold=0.0
    )
    return EngineConfig(strategy=params, restarts=restarts, commission_rate=commission_rate)


def convergence_corr(n=6):
    return CorrelationMatrix(np.full((n, n), 0.5))


def convergence_expected(commission_rate=0.0):
    """Hand accounting of the four legs at the constructed quote prices."""
    opens = {"long": [BASE - 20, BASE - 19], "short": [BASE + 20, BASE + 19]}
    closes = {"long": BASE - 1, "short": BASE + 1}
    pnl = 0.0
    transactions = 0.0
    for price in opens["long"]:
        pnl += (closes["long"] - price) * SHARES
        transactions += (price + closes["long"]) * SHARES
    for price in opens["short"]:
        pnl += (price - closes["short"]) * SHARES
        transactions += (price + closes["short"]) * SHARES
    return transactions, pnl - commission_rate * transactions


def write_convergence_fixture(dirpath, commission_rate=0.0, restarts=3):
    """Materialize universe/feed/corr/config files for CLI-level runs."""
    uni = make_universe()
    feed_dir = dirpath / "days"
    feed_dir.mkdir(parents=True, exist_ok=True)
    write_feed(feed_dir / "2023-02-24.csv", convergence_events(uni.codes))
    save_universe(dirpath / "universe.csv", uni)
    save_correlation(dirpath / "corr.txt", convergence_corr(), ["seed"])
    config = dirpath / "engine.cfg"
    config.write_text(
        "n_s=4\np_max=4\na_trans=4000000\nc1=1000\nc2=30\nc3=30\naccept_threshold=0\n"
        f"restarts={restarts}\ncommission_rate={commission_rate}\n"
    )
    return {
        "universe": dirpath / "universe.csv",
        "feed_dir": feed_dir,
        "corr": dirpath / "corr.txt",
        "config": config,
    }


def write_synthetic_fixture(dirpath, n=16, days=2, seed=0):
    """Universe, correlation, config and `days` synthetic feeds (`synth_generate`) for a seeded n-stock backcast.

    Unlike the convergence scenario, whose margins are wide, its decisions are
    close calls, so a change to the solver's decisions changes its reports.
    """
    rng = np.random.default_rng([seed, n])
    prices = rng.integers(10, 80, n) * 100.0
    uni = Universe([Stock(code=f"S{i:04d}", base_price=float(p), min_lot=MIN_LOT) for i, p in enumerate(prices)])
    raw = rng.uniform(-1.0, 1.0, (n, n))
    corr = CorrelationMatrix(np.clip(((raw + raw.T) / 2.0 + 1.0) / 2.0, 0.0, 1.0))
    feed_dir = dirpath / "days"
    feed_dir.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(duration_s=600.0, quote_rate=0.01, trade_rate=0.5, vol=0.002)
    for d in range(days):
        synth_generate(uni, spec, seed * 1000 + d, feed_dir / f"2023-03-{d + 1:02d}.csv")
    save_universe(dirpath / "universe.csv", uni)
    save_correlation(dirpath / "corr.txt", corr, ["synthetic"])
    config = dirpath / "engine.cfg"
    config.write_text("n_s=4\np_max=4\nc1=300\nc2=3\nc3=3\nrestarts=10\n")
    return {"universe": dirpath / "universe.csv", "feed_dir": feed_dir, "corr": dirpath / "corr.txt", "config": config}


def tight_instance(n, n_s, seed, c1=300.0, dp_scale=0.0075, margin=0.5):
    """Random instance with the smallest penalties that still make every
    constraint violation cost more than the best feasible group (checked by
    full enumeration), so the global QUBO minimum is feasible by construction."""
    rng = np.random.default_rng(seed)
    dev, corr, _ = random_instance(n, n_s, rng, dp_scale=dp_scale, c1=c1, penalty=1.0)
    sgn = dev.sgn()
    ks = np.arange(1 << n, dtype=np.uint64)
    bits = ((ks[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.float64)
    sigma_off = corr.sigma.copy()
    np.fill_diagonal(sigma_off, 0.0)
    h_cost = -(c1 * np.abs(dev.dp)) @ bits.T + np.einsum("ki,ij,kj->k", bits, sigma_off, bits)
    violation = (bits.sum(axis=1) - n_s) ** 2 + (bits @ sgn) ** 2
    feasible = violation == 0
    f_min = float(h_cost[feasible].min())
    needed = (f_min - h_cost[~feasible]) / violation[~feasible]
    c2 = max(float(needed.max()) + margin, margin)
    params = StrategyParams(
        n_s=n_s, p_max=n_s, c1=c1, c2=c2, c3=c2, accept_threshold=float("inf")
    )
    return dev, corr, params


def feasible_qubo_energies(dev, corr, params, qubo):
    """Energies of every feasible selection, for optimality-gap checks."""
    sgn = dev.sgn()
    energies = []
    for combo in itertools.combinations(range(dev.n), params.n_s):
        if abs(float(sgn[list(combo)].sum())) > 1e-9:
            continue
        b = np.zeros(dev.n)
        b[list(combo)] = 1.0
        energies.append(qubo_energy(qubo, b))
    return np.array(energies)


def reference_replay(path):
    """The line-by-line feed parser that `feed.replay` replaced, kept as its oracle.

    It differs only on a file whose line 1 is blank or whitespace: it skips
    that line and never checks a header, where `replay` rejects line 1.
    """
    last_ts = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1:
                if line != FEED_HEADER:
                    raise ValueError(f"{path}:1: expected header {FEED_HEADER!r}")
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields")
            try:
                e = TickEvent(ts=int(parts[0]), code=parts[1], kind=parts[2], p1=float(parts[3]), p2=float(parts[4]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if last_ts is not None and e.ts < last_ts:
                raise ValueError(f"{path}:{lineno}: timestamp regression {e.ts} < {last_ts}")
            last_ts = e.ts
            yield e


def _reference_force(x, j, h):
    # j and h come from dense_reconstruct, not from the kernel's own fold
    return x @ j - h


def _reference_pump(params, k):
    """Pumping amplitude a(k) = a0 k / (n_step - 1) at step k; 0 for a one-step run."""
    return 0.0 if params.n_step == 1 else params.a0 * k / (params.n_step - 1)


def _reference_advance(x, y, dy, a_t, c0, params, dtype=np.float64):
    # every scalar in the state's dtype, so a float32 state is stepped in float32
    gap, c0, a0, dt = (dtype(v) for v in (-(params.a0 - a_t), c0, params.a0, params.dt))
    y = y + (gap * x + c0 * dy) * dt
    x = x + a0 * y * dt
    finite = np.isfinite(x).all(axis=-1)
    over = np.abs(x) > 1.0
    if over.any():
        x = np.clip(x, dtype(-1.0), dtype(1.0))
        y = np.where(over, dtype(0.0), y)
    return x, y, finite


def reference_step(state, p, params):
    """The allocating `sb.step` that the in-place kernel replaced, kept as its oracle; it steps dense_reconstruct(p)."""
    if state.step >= params.n_step:
        raise ValueError(f"state.step={state.step} out of range for n_step={params.n_step}")
    c0 = params.c0 if params.c0 is not None else default_c0(p, params.a0)
    dense = dense_reconstruct(p)
    with np.errstate(over="ignore", invalid="ignore"):
        dy = _reference_force(state.x, dense.j, dense.h)
        x, y, finite = _reference_advance(state.x, state.y, dy, _reference_pump(params, state.step), c0, params)
    if not np.all(finite):
        raise DivergenceError(f"state diverged at step {state.step}; lower c0 or dt")
    return OscillatorState(x=x, y=y, step=state.step + 1)


def reference_run_batch(p, params, rngs, start=0, dtype=np.float64):
    """The allocating `sb.run_batch` that the in-place kernel replaced, kept as its oracle.

    It steps in `dtype`: `run_batch` runs in float32, so float32 is its
    bit-for-bit oracle and float64 the precision it is compared against. It
    checks every row for non-finite state at every step, before the wall
    clamps an inf back to +-1, and keeps the flags sticky. It steps and reads
    out the problem that `dense_reconstruct` materialises, so the kernel's own
    fold (`sb._folded`) is checked against it. The energy readout
    `sb._energies` is shared with `run_batch`, not copied: only the step
    kernel was replaced.
    """
    c0 = params.c0 if params.c0 is not None else default_c0(p, params.a0)
    dense = dense_reconstruct(p)
    finite = np.ones(len(rngs), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        j, h = (a.astype(dtype) for a in (dense.j, dense.h))
        x = np.zeros((len(rngs), p.n), dtype)
        y = np.array([initial_state(p, rng).y for rng in rngs], dtype)
        for k in range(params.n_step):
            dy = _reference_force(x, j, h)
            x, y, ok = _reference_advance(x, y, dy, _reference_pump(params, k), c0, params, dtype)
            finite &= ok
    spins = np.where(x >= 0.0, 1.0, -1.0)
    energies = _energies(spins, dense.j, dense.h, dense.offset)
    return [
        SbSolution(spins=spins[r], energy=float(energies[r]), run_index=start + r, elapsed=0.0)
        if finite[r]
        else None
        for r in range(len(rngs))
    ]
