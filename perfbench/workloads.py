"""Workload inputs, the timed backcast loop, its output checks and the solver-quality oracle.

Every input is generated from the workload seed; the program under test only
sees the generated universe, correlation matrix and feed files. The backcast
is driven through its public entry point, `sbtrader.backcast.run_backcast`,
as a closed loop in one process: the next event is fed when the engine
returns, so a decision's latency is its service time, not queueing.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from sbtrader import backcast as bc
from sbtrader import engine as eng
from sbtrader import feed as fd
from sbtrader import ising, sb
from sbtrader import strategy as st

import speed

# c1 large against c2 = c3, so that groups clear the threshold and positions
# open and close within a day.
TRADING_STRATEGY = st.StrategyParams(n_s=4, p_max=4, c1=300.0, c2=3.0, c3=3.0)

ORACLE_N = 16
ORACLE_N_S = 4
REPORT_FILES = ("report.csv", "cumulative.csv", "orders.csv", "summary.txt")


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape.

    `strategy` None means a warm-up-only backcast: `days` feeds are replayed
    for correlation history, then one empty trading day makes the backcast
    build its correlation matrix from that history, as the first trading day
    of any backcast does, without a single event reaching the solver.
    """

    name: str
    n: int
    days: int
    spec: fd.SynthSpec
    strategy: st.StrategyParams | None
    restarts: int = 10
    quotes_per_day: int | None = None
    crossed_share: float = 0.0
    oracle_instances: int = 30

    @property
    def probe_size(self) -> int:
        return speed.size_for(self.n)

    @property
    def trades(self) -> bool:
        return self.strategy is not None

    def config(self) -> eng.EngineConfig:
        if self.trades:
            return eng.EngineConfig(strategy=self.strategy, restarts=self.restarts)
        return eng.EngineConfig(warmup_days=self.days)


def _live(n, days, duration_s, quotes, oracle):
    # quote rate set for about twice the quotes kept, so that thinning always has enough
    spec = fd.SynthSpec(duration_s=duration_s, quote_rate=2.0 * quotes / (n * duration_s), trade_rate=0.5, vol=0.002)
    return Workload("live-n16", n, days, spec, TRADING_STRATEGY, quotes_per_day=quotes, oracle_instances=oracle)


def _wide(n, days, duration_s, quotes, oracle):
    spec = fd.SynthSpec(duration_s=duration_s, quote_rate=2.0 * quotes / (n * duration_s), trade_rate=0.02, vol=0.002)
    return Workload("wide-n512", n, days, spec, TRADING_STRATEGY, restarts=2, quotes_per_day=quotes, oracle_instances=oracle)


def _replay(n, days, duration_s, oracle):
    spec = fd.SynthSpec(duration_s=duration_s, quote_rate=4.0, trade_rate=1.0)
    return Workload("replay-n128", n, days, spec, None, crossed_share=0.01, oracle_instances=oracle)


# "full" is what the benchmark measures; "tiny" shrinks the inputs so that the
# smoke test runs in seconds (wide-n512 then has 64 stocks and the small probe).
WORKLOADS = {
    "full": {
        "live-n16": _live(16, 2, 600.0, 24, 30),
        "wide-n512": _wide(512, 2, 300.0, 24, 30),
        "replay-n128": _replay(128, 3, 60.0, 30),
    },
    "tiny": {
        "live-n16": _live(16, 1, 60.0, 8, 3),
        "wide-n512": _wide(64, 1, 60.0, 8, 3),
        "replay-n128": _replay(16, 1, 20.0, 3),
    },
}


# -- inputs -----------------------------------------------------------------------


@dataclass
class Inputs:
    universe: st.Universe
    corr: st.CorrelationMatrix | None
    config: eng.EngineConfig
    day_feeds: list[tuple[str, str]]
    events: int
    crossed: int
    seed: int


def _universe(n: int, rng: np.random.Generator) -> st.Universe:
    prices = rng.integers(10, 80, n) * 100.0
    return st.Universe([st.Stock(code=f"S{i:04d}", base_price=float(p), min_lot=100) for i, p in enumerate(prices)])


def _correlation(n: int, rng: np.random.Generator) -> st.CorrelationMatrix:
    raw = rng.uniform(-1.0, 1.0, (n, n))
    return st.CorrelationMatrix(np.clip(((raw + raw.T) / 2.0 + 1.0) / 2.0, 0.0, 1.0))


def _rewrite_quotes(path: Path, rng: np.random.Generator, keep: int | None, crossed_share: float) -> tuple[int, int]:
    """Thin a generated feed to `keep` quotes and cross about `crossed_share` of them.

    A fixed quote count fixes the number of decisions in a trading day, so
    the decision count does not vary with the seed. Crossing swaps ask and
    bid. Returns the event count and the number of quotes crossed.
    """
    header, *lines = path.read_text().splitlines(keepends=True)
    quotes = [k for k, line in enumerate(lines) if line.split(",", 3)[2] == fd.QUOTE]
    if keep is not None:
        if len(quotes) < keep:
            raise ValueError(f"{path}: {len(quotes)} quotes generated, {keep} needed")
        dropped = set(quotes) - set(rng.choice(quotes, keep, replace=False).tolist())
        lines = [line for k, line in enumerate(lines) if k not in dropped]
    crossed = 0
    for k, line in enumerate(lines):
        ts, code, kind, p1, p2 = line.rstrip("\n").split(",")
        if crossed_share and kind == fd.QUOTE and float(p1) > float(p2) and rng.random() < crossed_share:
            lines[k] = f"{ts},{code},{kind},{p2},{p1}\n"
            crossed += 1
    path.write_text(header + "".join(lines))
    return len(lines), crossed


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the universe, the correlation matrix and the day feeds for one seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, w.n])
    universe = _universe(w.n, rng)
    corr = _correlation(w.n, rng) if w.trades else None
    day_feeds = []
    events = crossed = 0
    for d in range(w.days):
        path = workdir / f"day{d:02d}.csv"
        fd.synth_generate(universe, w.spec, seed * 1000 + d, path)
        day_events, day_crossed = _rewrite_quotes(path, rng, w.quotes_per_day, w.crossed_share)
        events += day_events
        crossed += day_crossed
        day_feeds.append((f"d{d:02d}", str(path)))
    if not w.trades:
        path = workdir / f"day{w.days:02d}.csv"
        fd.write_feed(path, [])
        day_feeds.append((f"d{w.days:02d}", str(path)))
    return Inputs(universe, corr, w.config(), day_feeds, events, crossed, seed)


def timed_setups(w: Workload, seed: int, workdir: Path, reps: int) -> tuple[Inputs, list[float], list[float]]:
    """Run the set-up `reps` times into fresh directories.

    Returns the last inputs, each set-up's wall time, and each scaled to the
    nominal host by the speed probes taken before and after it. Set-up is
    interpreter-bound feed generation, so it takes the small probe.
    """
    times = []
    scaled = []
    inputs = None
    before = speed.probe(speed.SMALL)
    for r in range(reps):
        t0 = time.perf_counter()
        inputs = setup(w, seed, workdir / f"setup{r}")
        times.append(time.perf_counter() - t0)
        after = speed.probe(speed.SMALL)
        scaled.append(times[-1] * speed.scale(speed.SMALL, [before, after]))
        before = after
    return inputs, times, scaled


# -- one backcast call ----------------------------------------------------------------


@dataclass
class Observer:
    """What one backcast call observed, collected from outside the program."""

    tracer: object | None = None
    time_chunks: bool = False
    probe_size: int = speed.SMALL
    latencies: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)  # speed probe right after each timed decision
    chunks: list[tuple[int, float, float]] = field(default_factory=list)  # events, seconds, speed probe after
    sessions: list[fd.MarketSession] = field(default_factory=list)
    days_closed: list[bool] = field(default_factory=list)
    decisions: int = 0
    skipped: int = 0


def _engine_class(obs: Observer):
    tracer = obs.tracer

    class ProbedEngine(eng.TradingEngine):
        """Times `process` for events that reach `on_quote_change` (tick-to-decision)."""

        _reached = False

        def process(self, e):
            self._reached = False
            if tracer is None:
                t0 = time.perf_counter()
                super().process(e)
                if self._reached:
                    obs.latencies.append(time.perf_counter() - t0)
                    obs.speeds.append(speed.probe(obs.probe_size))
                return
            frame = tracer.begin("engine.process")
            tracer.decision = frame[1]
            try:
                super().process(e)
            finally:
                tracer.end(frame, keep=self._reached)
                tracer.decision = None

        def on_quote_change(self, ts, code=None):
            self._reached = True
            obs.decisions += 1
            if tracer is None:
                return super().on_quote_change(ts, code)
            frame = tracer.begin("engine.on_quote_change")
            try:
                return super().on_quote_change(ts, code)
            finally:
                tracer.end(frame)

        def close_policy(self, now):
            if tracer is None:
                return super().close_policy(now)
            frame = tracer.begin("engine.close_policy")
            try:
                return super().close_policy(now)
            finally:
                tracer.end(frame, keep=False)

        def finalize(self, ts):
            super().finalize(ts)
            obs.days_closed.append(all(p.state == eng.CLOSED for p in self.positions))
            obs.skipped += self.skipped_events

    return ProbedEngine


def _session_class(obs: Observer):
    tracer = obs.tracer

    class ProbedSession(fd.MarketSession):
        def __init__(self, universe):
            super().__init__(universe)
            obs.sessions.append(self)

        if tracer is not None:

            def advance(self, ts):
                frame = tracer.begin("feed.advance")
                try:
                    super().advance(ts)
                finally:
                    tracer.end(frame, keep=False)

            def apply(self, e):
                frame = tracer.begin("feed.apply")
                try:
                    return super().apply(e)
                finally:
                    tracer.end(frame, keep=False)

    return ProbedSession


CHUNK_EVENTS = 5000


def _chunked_replay(replay, obs: Observer):
    """Wrap `replay` to time the caller's handling of the feed in chunks of events.

    A chunk runs from one event being handed over to the event CHUNK_EVENTS
    later (or the end of the file), so its time is the handling of those
    events plus their parse. A speed probe follows each chunk and is left out
    of the chunk times.
    """

    def chunked(path):
        count = 0
        start = time.perf_counter()
        for e in replay(path):
            yield e
            count += 1
            if count == CHUNK_EVENTS:
                obs.chunks.append((count, time.perf_counter() - start, speed.probe(obs.probe_size)))
                count = 0
                start = time.perf_counter()
        if count:
            obs.chunks.append((count, time.perf_counter() - start, speed.probe(obs.probe_size)))

    return chunked


def patch(stack: ExitStack, owner, name: str, value) -> None:
    """Replace `owner.name` until `stack` closes."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    stack.callback(setattr, owner, name, original)


@dataclass
class CallResult:
    wall: float
    events: int
    checks: dict[str, bool]
    obs: Observer
    digest: str = ""
    orders: int = 0
    rejected: int = 0
    samples: int = 0

    # the speed probe taken just before the call, and the factor that scales
    # the call's times to the nominal host (see `speed`)
    speed_before: float = 0.0
    scale: float = 1.0
    nominal_s: float = 0.0

    @property
    def busy(self) -> float:
        """Wall time of the call without the speed probes taken inside it."""
        return self.wall - sum(self.obs.speeds) - sum(s for _, _, s in self.obs.chunks)

    def scaled_latencies(self) -> list[float]:
        """Each decision's latency scaled by the probes taken before and after it."""
        probes = [self.speed_before, *self.obs.speeds]
        return [t * 2.0 * self.nominal_s / (probes[i] + probes[i + 1]) for i, t in enumerate(self.obs.latencies)]

    def scaled_chunks(self) -> list[tuple[int, float, float]]:
        """(events, seconds, scaled seconds) of each timed chunk, scaled by the probes before and after it."""
        probes = [self.speed_before] + [s for _, _, s in self.obs.chunks]
        return [
            (n, t, t * 2.0 * self.nominal_s / (probes[i] + probes[i + 1]))
            for i, (n, t, _) in enumerate(self.obs.chunks)
        ]

    def chunk_means(self, scaled: bool = True) -> list[float]:
        """Mean service time per event of each timed chunk."""
        return [(s if scaled else t) / n for n, t, s in self.scaled_chunks()]

    def scaled_busy(self) -> float:
        """`busy` on the nominal host: decisions and chunks scaled one by one, the rest by the call's factor."""
        chunks = self.scaled_chunks()
        timed = sum(self.obs.latencies) + sum(t for _, t, _ in chunks)
        scaled = sum(self.scaled_latencies()) + sum(s for _, _, s in chunks)
        return scaled + (self.busy - timed) * self.scale


def report_digest(report: bc.BackcastReport, out_dir: Path) -> str:
    report.write(out_dir)
    h = hashlib.sha256()
    for name in REPORT_FILES:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def backcast_call(w: Workload, inputs: Inputs, obs: Observer, out_dir: Path) -> CallResult:
    """One whole `run_backcast` over the workload's days, timed and checked."""
    with ExitStack() as stack:
        patch(stack, bc, "TradingEngine", _engine_class(obs))
        session_class = _session_class(obs)
        patch(stack, bc, "MarketSession", session_class)
        patch(stack, eng, "MarketSession", session_class)
        if obs.time_chunks:
            patch(stack, bc, "replay", _chunked_replay(bc.replay, obs))
        tracer = obs.tracer
        gc.collect()
        frame = tracer.begin("backcast") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            report = bc.run_backcast(
                inputs.day_feeds, inputs.universe, inputs.config, seed=inputs.seed, corr_override=inputs.corr
            )
        except Exception:  # an aborted run fails all of its events; report it, keep the process alive
            traceback.print_exc(file=sys.stderr)
            return CallResult(time.perf_counter() - t0, inputs.events, {"completed": False}, obs)
        finally:
            if frame is not None:
                tracer.end(frame)
        wall = time.perf_counter() - t0
    trading_days = w.days if w.trades else 1
    pnl = [d.pnl for d in report.days]
    rejected = sum(s.buffer.rejected for s in obs.sessions)
    checks = {
        "completed": True,
        "positions_closed": len(obs.days_closed) == trading_days and all(obs.days_closed),
        "pnl_finite": all(math.isfinite(p) for p in pnl) and math.isfinite(report.total_pnl()),
        "rejected_equals_crossed": rejected == inputs.crossed,
        "decisions_made": obs.decisions > 0 or not w.trades,
    }
    result = CallResult(
        wall=wall,
        events=inputs.events,
        checks=checks,
        obs=obs,
        digest=report_digest(report, out_dir),
        orders=len(report.order_rows),
        rejected=rejected,
        samples=sum(len(s.samples.rows) for s in obs.sessions),
    )
    obs.sessions.clear()
    return result


def measure(w: Workload, inputs: Inputs, seconds: float, out_dir: Path, tracer=None) -> list[CallResult]:
    """Repeat whole backcast calls for about `seconds`.

    A call starts only while the median call so far still fits in the time
    left, so a run measures whole calls and lasts about `seconds`. Without
    trading and tracing, calls time the feed in chunks of events. Each call is
    scaled to the nominal host by the median of the speed probes around and
    inside it.
    """
    results: list[CallResult] = []
    start = time.perf_counter()
    size = w.probe_size
    chunked = not w.trades and tracer is None
    before = speed.probe(size)
    while True:
        result = backcast_call(w, inputs, Observer(tracer=tracer, time_chunks=chunked, probe_size=size), out_dir)
        after = speed.probe(size)
        result.speed_before = before
        result.scale = speed.scale(size, [before, *result.obs.speeds, after])
        result.nominal_s = speed.NOMINAL_S[size]
        before = after
        results.append(result)
        if not result.checks["completed"]:
            break
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall for r in results) > seconds:
            break
    return results


# -- solver quality -------------------------------------------------------------------


def tight_instance(seed: int, n: int = ORACLE_N, n_s: int = ORACLE_N_S, c1: float = 300.0, dp_scale=0.0075, margin=0.5):
    """Random selection instance with the smallest penalties that keep the QUBO minimum feasible.

    The construction of `tight_instance` in tests/helpers.py: every constraint
    violation is checked by full enumeration to cost more than the best
    feasible group.
    """
    rng = np.random.default_rng(seed)
    dev, corr, _ = st.random_instance(n, n_s, rng, dp_scale=dp_scale, c1=c1, penalty=1.0)
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
    params = st.StrategyParams(n_s=n_s, p_max=n_s, c1=c1, c2=c2, c3=c2, accept_threshold=float("inf"))
    return dev, corr, params


@dataclass
class OracleResult:
    solves: int
    exact: int
    failed: int
    consistent: bool

    @property
    def exact_rate(self) -> float:
        return self.exact / self.solves if self.solves else 0.0


def oracle(count: int) -> OracleResult:
    """Share of tight n=16 instances 0..count-1 on which `sb.solve` reaches the exhaustive minimum.

    The solver runs at the engine's default settings. The instance set does
    not depend on the workload seed: the rate is a deterministic property of
    the solver, so any change to it is a change in solution quality.
    `consistent` is False if the solver ever reports an energy that is not the
    QUBO energy of its spins, or beats exhaustive search.
    """
    defaults = eng.EngineConfig().sb_params()
    exact = failed = 0
    consistent = True
    for k in range(count):
        dev, corr, params = tight_instance(k)
        try:
            sol = sb.solve(st.build_split(dev, corr, params), replace(defaults, seed=k))
        except sb.DivergenceError:
            failed += 1
            continue
        qubo = st.build_qubo(dev, corr, params)
        _, best = ising.brute_force_min(qubo)
        energy = ising.qubo_energy(qubo, (np.asarray(sol.spins) + 1.0) / 2.0)
        tol = 1e-9 * max(1.0, abs(best))
        if energy < best - tol or abs(energy - sol.energy) > 1e-6 * max(1.0, abs(energy)):
            consistent = False
        if abs(energy - best) <= 1e-9:
            exact += 1
    return OracleResult(solves=count, exact=exact, failed=failed, consistent=consistent)
