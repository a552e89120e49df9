"""Ballistic simulated-bifurcation solver over day/tick split problems.

The day component (dense couplings from correlations and the group-size
penalty) is applied through an N x N matrix-vector product each step; the
tick component (price deviations and the long/short balance penalty) enters
through O(N) intermediate values only, so a quote change never touches the
dense storage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .ising import IsingProblem, ising_energy

__all__ = [
    "DivergenceError",
    "SbParams",
    "SplitProblem",
    "OscillatorState",
    "SbSolution",
    "WriteCounter",
    "split_from_ising",
    "compute_dy_tick_sum",
    "compute_h_tick",
    "dense_reconstruct",
    "initial_state",
    "step",
    "step_dense",
    "run",
    "solve",
    "update_tick",
    "default_c0",
]


class DivergenceError(RuntimeError):
    """Raised when oscillator state goes non-finite (bad c0/dt choice)."""


@dataclass
class SbParams:
    """Ballistic-SB parameters.

    n_step and dt default to the 300 / 0.02 operating point; a0 ramps the
    pumping amplitude linearly from 0 over the run. Scaling a0 and c0 together only
    rescales time, so a0 sets the effective anneal length at fixed n_step*dt;
    the default pairing (a0=10 with c0 = 1.5 a0 / (sqrt(n) * rms of nonzero
    day couplings)) was calibrated against the brute-force oracle on
    selection instances.
    """

    n_step: int = 300
    dt: float = 0.02
    a0: float = 10.0
    c0: float | None = None
    restarts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_step >= 1:
            raise ValueError("n_step must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.restarts >= 1:
            raise ValueError("restarts must be >= 1")

    def pump(self, k: int) -> float:
        """Pumping amplitude a(t) at step k."""
        if self.n_step == 1:
            return 0.0
        return self.a0 * k / (self.n_step - 1)


@dataclass
class WriteCounter:
    """Tallies array elements written, for the O(N)-update instrumentation."""

    elements: int = 0

    def add(self, count: int) -> None:
        self.elements += int(count)


@dataclass
class SplitProblem:
    """Ising problem split into day-by-day and tick-by-tick components.

    j_day/h_day hold everything derived from the correlation matrix and the
    group-size penalty; sgn_dp/abs_dp (plus the c1/c3 coefficients) are the
    only data a quote change may touch. offset_day carries the constant from
    the day-side QUBO-to-Ising conversion so reconstructed energies match the
    QUBO exactly.
    """

    j_day: np.ndarray
    h_day: np.ndarray
    sgn_dp: np.ndarray
    abs_dp: np.ndarray
    c1: float
    c3: float
    offset_day: float = 0.0

    def __post_init__(self) -> None:
        self.j_day = np.asarray(self.j_day, dtype=np.float64)
        self.h_day = np.asarray(self.h_day, dtype=np.float64)
        self.sgn_dp = np.asarray(self.sgn_dp, dtype=np.float64)
        self.abs_dp = np.asarray(self.abs_dp, dtype=np.float64)
        n = self.j_day.shape[0]
        if self.j_day.shape != (n, n):
            raise ValueError("j_day must be square")
        for name, vec in (("h_day", self.h_day), ("sgn_dp", self.sgn_dp), ("abs_dp", self.abs_dp)):
            if vec.shape != (n,):
                raise ValueError(f"{name} has shape {vec.shape}, expected ({n},)")
        if np.any(self.j_day != self.j_day.T) or np.any(np.diag(self.j_day) != 0.0):
            raise ValueError("j_day must be symmetric with zero diagonal")
        if not np.all(np.isin(self.sgn_dp, (-1.0, 0.0, 1.0))):
            raise ValueError("sgn_dp entries must be -1, 0, or +1")
        if np.any(self.abs_dp < 0.0):
            raise ValueError("abs_dp entries must be >= 0")
        if np.any(self.abs_dp[self.sgn_dp == 0.0] != 0.0):
            raise ValueError("abs_dp must be 0 wherever sgn_dp is 0")
        if self.c1 < 0.0 or self.c3 < 0.0:
            raise ValueError("c1 and c3 must be >= 0")

    @property
    def n(self) -> int:
        return self.j_day.shape[0]


@dataclass
class OscillatorState:
    """Positions and momenta of the N oscillators at a given step."""

    x: np.ndarray
    y: np.ndarray
    step: int = 0


@dataclass
class SbSolution:
    spins: np.ndarray
    energy: float
    run_index: int
    elapsed: float


def split_from_ising(problem: IsingProblem) -> SplitProblem:
    """Wrap a monolithic Ising problem as a split problem with an empty tick side."""
    n = problem.n
    return SplitProblem(
        j_day=problem.j.copy(),
        h_day=problem.h.copy(),
        sgn_dp=np.zeros(n),
        abs_dp=np.zeros(n),
        c1=0.0,
        c3=0.0,
        offset_day=problem.offset,
    )


def compute_dy_tick_sum(sgn_dp: np.ndarray, x: np.ndarray) -> float:
    """The shared tick intermediate: sum_i sgn(dp_i) * x_i."""
    sgn_dp = np.asarray(sgn_dp, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if sgn_dp.shape != x.shape:
        raise ValueError("sgn_dp and x must have equal lengths")
    return float(sgn_dp @ x)


def compute_h_tick(p: SplitProblem) -> np.ndarray:
    """Tick-side biases: -c1|dp_i|/2 + c3 (sum_j sgn(dp_j)/2) sgn(dp_i)."""
    sgn_sum = float(p.sgn_dp.sum())
    return -p.c1 * p.abs_dp / 2.0 + p.c3 * (sgn_sum / 2.0) * p.sgn_dp


def _tick_offset(p: SplitProblem) -> float:
    # Constant from converting the tick QUBO terms (diagonal -c1|dp_i| + c3 sgn^2
    # and off-diagonal c3 sgn_i sgn_j) to Ising form; O(n) to evaluate.
    sgn_sum = float(p.sgn_dp.sum())
    sq_sum = float((p.sgn_dp**2).sum())
    return -p.c1 * float(p.abs_dp.sum()) / 2.0 + p.c3 * sq_sum / 4.0 + p.c3 * sgn_sum**2 / 4.0


def dense_reconstruct(p: SplitProblem) -> IsingProblem:
    """Materialize the monolithic (J, h, offset), the oracle for the split path."""
    j_tick = -(p.c3 / 2.0) * np.outer(p.sgn_dp, p.sgn_dp)
    np.fill_diagonal(j_tick, 0.0)
    return IsingProblem(
        j=p.j_day + j_tick,
        h=p.h_day + compute_h_tick(p),
        offset=p.offset_day + _tick_offset(p),
    )


def default_c0(p: SplitProblem, a0: float = 1.0) -> float:
    """1.5 a0 / (sqrt(n) * rms of nonzero day couplings), with tick/unit fallbacks."""
    n = p.n
    off = p.j_day[~np.eye(n, dtype=bool)]
    nonzero = off[off != 0.0]
    if nonzero.size:
        scale = float(np.sqrt(np.mean(nonzero**2)))
    elif p.c3 > 0.0 and np.count_nonzero(p.sgn_dp) >= 2:
        scale = p.c3 / 2.0
    else:
        scale = 1.0
    return 1.5 * a0 / (np.sqrt(n) * scale)


def initial_state(p: SplitProblem, rng: np.random.Generator) -> OscillatorState:
    """Zero positions, momenta uniform in [-0.1, 0.1]."""
    return OscillatorState(x=np.zeros(p.n), y=rng.uniform(-0.1, 0.1, p.n), step=0)


def _advance(state: OscillatorState, dy: np.ndarray, a_t: float, c0: float, params: SbParams) -> OscillatorState:
    # Shared integration tail so the split and dense steppers differ only in dy.
    with np.errstate(over="ignore", invalid="ignore"):
        y = state.y + (-(params.a0 - a_t) * state.x + c0 * dy) * params.dt
        x = state.x + params.a0 * y * params.dt
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DivergenceError(f"state diverged at step {state.step}; lower c0 or dt")
    over = np.abs(x) > 1.0
    if over.any():
        x = np.where(over, np.sign(x), x)
        y = np.where(over, 0.0, y)
    return OscillatorState(x=x, y=y, step=state.step + 1)


def step(state: OscillatorState, p: SplitProblem, params: SbParams) -> OscillatorState:
    """One ballistic-SB update using the O(n) tick path for the tick component."""
    if state.step >= params.n_step:
        raise ValueError(f"state.step={state.step} out of range for n_step={params.n_step}")
    c0 = params.c0 if params.c0 is not None else default_c0(p, params.a0)
    dy_day = p.j_day @ state.x - p.h_day
    dy_sum = compute_dy_tick_sum(p.sgn_dp, state.x)
    # Momentum correction of the tick component, (J_tick x)_i - h_tick_i,
    # collapsed to O(n) via the shared sum.
    dy_tick = -(p.c3 / 2.0) * p.sgn_dp * (dy_sum - p.sgn_dp * state.x) - compute_h_tick(p)
    return _advance(state, dy_day + dy_tick, params.pump(state.step), c0, params)


def step_dense(state: OscillatorState, dense: IsingProblem, params: SbParams, c0: float) -> OscillatorState:
    """Reference stepper over a materialized problem; oracle for :func:`step`."""
    if state.step >= params.n_step:
        raise ValueError(f"state.step={state.step} out of range for n_step={params.n_step}")
    dy = dense.j @ state.x - dense.h
    return _advance(state, dy, params.pump(state.step), c0, params)


def run(p: SplitProblem, params: SbParams, rng: np.random.Generator, run_index: int = 0) -> SbSolution:
    """A single solve: init from rng, iterate n_step steps, read out spin signs."""
    t0 = time.perf_counter()
    if params.c0 is None:
        params = replace(params, c0=default_c0(p, params.a0))
    state = initial_state(p, rng)
    for _ in range(params.n_step):
        state = step(state, p, params)
    spins = np.where(state.x >= 0.0, 1.0, -1.0)
    energy = ising_energy(dense_reconstruct(p), spins)
    return SbSolution(spins=spins, energy=energy, run_index=run_index, elapsed=time.perf_counter() - t0)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic independent RNG stream for (seed, key...)."""
    return np.random.default_rng([int(seed), *map(int, key)])


def solve(p: SplitProblem, params: SbParams) -> SbSolution:
    """Best of `restarts` runs on independent substreams; ties go to the lowest run index."""
    best: SbSolution | None = None
    for i in range(params.restarts):
        sol = run(p, params, substream(params.seed, i), run_index=i)
        if best is None or sol.energy < best.energy:
            best = sol
    assert best is not None
    return best


def update_tick(
    p: SplitProblem,
    sgn_dp: np.ndarray,
    abs_dp: np.ndarray,
    counter: WriteCounter | None = None,
) -> SplitProblem:
    """Replace the O(n) tick fields, leaving the day-side arrays untouched (shared)."""
    sgn_dp = np.asarray(sgn_dp, dtype=np.float64)
    abs_dp = np.asarray(abs_dp, dtype=np.float64)
    if sgn_dp.shape != (p.n,) or abs_dp.shape != (p.n,):
        raise ValueError("tick vectors must have length n")
    if counter is not None:
        counter.add(sgn_dp.size + abs_dp.size)
    return replace(p, sgn_dp=sgn_dp.copy(), abs_dp=abs_dp.copy())
