"""Ballistic simulated-bifurcation solver over day/tick split problems.

The day component (dense couplings from correlations and the group-size
penalty) is applied through one matrix product per step; the tick component
(price deviations and the long/short balance penalty) enters through O(N)
intermediate values only, so a quote change never touches the dense storage.

Restarts run as one batch (`run_batch`): positions and momenta are (R, N)
float32 matrices, each step is a single `x @ j_day32` product (the day
couplings are symmetric; the float32 copy is made once per day split), and
row r draws its initial momenta from the RNG stream the caller passes for it,
so a run keeps its key whichever batch it lands in. c0, the tick biases, the
scalars and the work buffers are cast or set up once per batch, and every step
runs in place. The wall maps x to x/|x| wherever |x| > 1: exactly +-1 for a
finite x, NaN for an inf, and a NaN stays NaN. A row that goes non-finite
therefore stays so, and one check after the loop finds it; a diverged row is
reported as None while the other rows finish. A c0 or an initial momentum
outside float32 range is inf from the start, so its row diverges. Each row's
energy is read out in float64 from the split form, -1/2 s.J_day.s plus O(N)
tick terms and the offsets, so the dense problem is never materialised on the
solve path and equal spins give equal energies. `run` is the one-row batch
and `solve` is one batch of `restarts` rows plus the best-of-R pick, whose
tolerance absorbs the last-bit differences a batched product can give rows
with equal spins. `step` applies the same kernel to a float64 copy of an (N,)
or (R, N) state; `step_dense`, `dense_reconstruct` and
`ising.brute_force_min` are oracles for the tests.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .ising import IsingProblem, ising_energy  # ising_energy: re-exported readout oracle

__all__ = [
    "DivergenceError",
    "SbParams",
    "SplitProblem",
    "OscillatorState",
    "SbSolution",
    "WriteCounter",
    "split_from_ising",
    "compute_h_tick",
    "dense_reconstruct",
    "initial_state",
    "step",
    "step_dense",
    "run",
    "run_batch",
    "pick_best",
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
    selection instances. `run_batch` steps in float32, so a c0 beyond float32
    range (about 3.4e38) makes every row diverge.
    """

    n_step: int = 300
    dt: float = 0.02
    a0: float = 10.0
    c0: float | None = None
    restarts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN; c0=None means default_c0
        for ok, message in (
            (self.n_step >= 1, "n_step must be >= 1"),
            (0 < self.dt < np.inf, "dt must be positive and finite"),
            (0 < self.a0 < np.inf, "a0 must be positive and finite"),
            (self.c0 is None or 0 < self.c0 < np.inf, "c0 must be positive and finite"),
            (self.restarts >= 1, "restarts must be >= 1"),
        ):
            if not ok:
                raise ValueError(message)

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
    QUBO exactly. day_rms, derived here once per day split, is the rms of the
    nonzero day couplings (0.0 when there are none); default_c0 reads it.
    j_day32, derived next to it, is the float32 copy of j_day that run_batch
    steps with (a coupling beyond float32 range is inf there, so every row
    diverges). update_tick's shallow copy shares both by identity.
    """

    j_day: np.ndarray
    h_day: np.ndarray
    sgn_dp: np.ndarray
    abs_dp: np.ndarray
    c1: float
    c3: float
    offset_day: float = 0.0

    def __post_init__(self) -> None:
        self.j_day = _cache_line_aligned(np.asarray(self.j_day, dtype=np.float64), np.float64)
        self.h_day = np.asarray(self.h_day, dtype=np.float64)
        n = self.j_day.shape[0]
        if self.j_day.shape != (n, n):
            raise ValueError("j_day must be square")
        _check_vector("h_day", self.h_day, n)
        if np.any(self.j_day != self.j_day.T) or np.any(np.diag(self.j_day) != 0.0):
            raise ValueError("j_day must be symmetric with zero diagonal")
        nonzero = self.j_day[self.j_day != 0.0]  # the diagonal is zero: off-diagonal, row-major
        self.day_rms = float(np.sqrt(np.mean(nonzero**2))) if nonzero.size else 0.0
        self.j_day32 = _cache_line_aligned(self.j_day, np.float32)
        self.sgn_dp, self.abs_dp = _checked_tick(n, self.sgn_dp, self.abs_dp)
        if self.c1 < 0.0 or self.c3 < 0.0:
            raise ValueError("c1 and c3 must be >= 0")

    @property
    def n(self) -> int:
        return self.j_day.shape[0]


def _cache_line_aligned(a: np.ndarray, dtype) -> np.ndarray:
    """A copy of `a` in dtype whose data starts on a 64-byte boundary, wherever malloc would have put it.

    At n=512 a j_day starting mid cache line made x @ j_day 30-50% slower (OpenBLAS, one thread).
    The cast is written straight into the aligned buffer, with no full-size temporary.
    """
    nbytes = a.size * np.dtype(dtype).itemsize
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start : start + nbytes].view(dtype).reshape(a.shape)
    out[...] = a
    return out


def _check_vector(name: str, vec: np.ndarray, n: int) -> None:
    if vec.shape != (n,):
        raise ValueError(f"{name} has shape {vec.shape}, expected ({n},)")


def _checked_tick(n: int, sgn_dp, abs_dp) -> tuple[np.ndarray, np.ndarray]:
    """The O(n) tick-field checks, shared by SplitProblem and update_tick."""
    sgn_dp = np.asarray(sgn_dp, dtype=np.float64)
    abs_dp = np.asarray(abs_dp, dtype=np.float64)
    _check_vector("sgn_dp", sgn_dp, n)
    _check_vector("abs_dp", abs_dp, n)
    zero = sgn_dp == 0.0
    if not np.all(zero | (np.abs(sgn_dp) == 1.0)):
        raise ValueError("sgn_dp entries must be -1, 0, or +1")
    if not np.all(abs_dp >= 0.0):
        raise ValueError("abs_dp entries must be >= 0")
    if np.any(abs_dp[zero] != 0.0):
        raise ValueError("abs_dp must be 0 wherever sgn_dp is 0")
    return sgn_dp, abs_dp


@dataclass
class OscillatorState:
    """Positions and momenta at a given step: (n,) for one run, (R, n) for a batch."""

    x: np.ndarray
    y: np.ndarray
    step: int = 0


@dataclass
class SbSolution:
    """One run's spins and energy; elapsed is the wall time of the batch that produced it."""

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


def default_c0(p: SplitProblem, a0: float) -> float:
    """1.5 a0 / (sqrt(n) * p.day_rms), with tick/unit fallbacks; O(n), the day scan is in SplitProblem."""
    if p.day_rms > 0.0:
        scale = p.day_rms
    elif p.c3 > 0.0 and np.count_nonzero(p.sgn_dp) >= 2:
        scale = p.c3 / 2.0
    else:
        scale = 1.0
    return 1.5 * a0 / (np.sqrt(p.n) * scale)


def _c0(p: SplitProblem, params: SbParams) -> float:
    """params.c0, else default_c0; looked up per call, so a patched default_c0 is used."""
    return params.c0 if params.c0 is not None else default_c0(p, params.a0)


def initial_state(p: SplitProblem, rng: np.random.Generator) -> OscillatorState:
    """Zero positions, momenta uniform in [-0.1, 0.1]."""
    return OscillatorState(x=np.zeros(p.n), y=rng.uniform(-0.1, 0.1, p.n), step=0)


def _tick_terms(p: SplitProblem) -> tuple[np.ndarray, np.ndarray]:
    """Per-problem constants of the tick force: the coefficient -(c3/2) sgn(dp) and h_tick."""
    return -(p.c3 / 2.0) * p.sgn_dp, compute_h_tick(p)


def _in_dtype(dtype, *values) -> list[np.ndarray]:
    """values as arrays of dtype, scalars as 0-d arrays, for the kernel's operands.

    A float64 operand would make a ufunc on a float32 state compute in float64,
    and a Python float costs a conversion on every call. Callers silence the
    overflow warning: a value beyond float32 range casts to inf.
    """
    return [np.asarray(v, dtype) for v in values]


def _scratch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Work buffers for _force/_advance on states shaped like x: dy, tmp, the per-row sgn.x, the wall mask."""
    return np.empty_like(x), np.empty_like(x), np.empty(x.shape[:-1], x.dtype), np.empty(x.shape, dtype=bool)


def _force(x, j, h, sgn, tick_coef, h_tick, dy, tmp, dot) -> None:
    """Write J x - h into dy, for x of shape (n,) or (R, n); the tick part is O(n) via the shared sum.

    _force and _advance take every operand in the state's dtype (float32 in
    run_batch, float64 in step), write into the buffers of _scratch (each
    ufunc's third argument is its output) and do the operations of
    `reference_run_batch` in tests/helpers.py in its order, so their results
    are bit-identical to it in either dtype. Prescaling by c0*dt or folding h
    or the tick coupling into the product would change the rounding and the
    step at which a row overflows.
    """
    np.matmul(x, j, dy)  # j is symmetric: each row of x @ J is J x
    dy -= h
    np.matmul(x, sgn, dot)
    # Momentum correction of the tick component, (J_tick x)_i - h_tick_i.
    np.multiply(sgn, x, tmp)
    np.subtract(dot[..., None], tmp, tmp)
    tmp *= tick_coef
    tmp -= h_tick
    dy += tmp


def _advance(x, y, dy, tmp, over, gap, c0, a0, dt, one, zero) -> None:
    """Integrate one step in place and apply the walls; dy is consumed.

    gap is this step's -(a0 - a(k)); it and the other scalars are 0-d arrays
    in the state's dtype. The wall zeroes y and maps x to x/|x| wherever
    |x| > 1, by dividing x by max(|x|, 1). That is exactly +-1 for a finite x
    and NaN for an inf, and a NaN stays NaN, so a row that goes non-finite
    stays non-finite to the end. A non-finite y makes x non-finite in the same
    step, so checking x covers y. Callers silence the overflow and invalid
    warnings and check x.
    """
    np.multiply(x, gap, tmp)
    dy *= c0
    tmp += dy
    tmp *= dt
    y += tmp
    np.multiply(y, a0, tmp)
    tmp *= dt
    x += tmp
    np.abs(x, tmp)
    np.greater(tmp, one, over)
    np.maximum(tmp, one, out=tmp)
    x /= tmp
    np.putmask(y, over, zero)


def _scalars(params: SbParams, c0: float, dtype, steps) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """-(a0 - a(k)) for each k in steps, and c0, a0, dt, 1 and 0: _advance's 0-d operands in dtype."""
    gaps = _in_dtype(dtype, *(-(params.a0 - params.pump(k)) for k in steps))
    return gaps, _in_dtype(dtype, c0, params.a0, params.dt, 1.0, 0.0)


def _stepped(state: OscillatorState, params: SbParams, c0: float, force) -> OscillatorState:
    """One float64 step on copies of state.x and state.y; force(x, dy, tmp, dot) writes J x - h into dy."""
    if state.step >= params.n_step:
        raise ValueError(f"state.step={state.step} out of range for n_step={params.n_step}")
    x, y = np.array(state.x, dtype=np.float64), np.array(state.y, dtype=np.float64)
    dy, tmp, dot, over = _scratch(x)
    (gap,), scalars = _scalars(params, c0, np.float64, [state.step])
    with np.errstate(over="ignore", invalid="ignore"):
        force(x, dy, tmp, dot)
        _advance(x, y, dy, tmp, over, gap, *scalars)
    if not np.isfinite(x).all():
        raise DivergenceError(f"state diverged at step {state.step}; lower c0 or dt")
    return OscillatorState(x=x, y=y, step=state.step + 1)


def step(state: OscillatorState, p: SplitProblem, params: SbParams) -> OscillatorState:
    """One ballistic-SB update of an (n,) or (R, n) state, by the kernel run_batch iterates, in float64."""
    c0 = _c0(p, params)
    operands = (p.j_day, p.h_day, p.sgn_dp, *_tick_terms(p))
    return _stepped(state, params, c0, lambda x, *buffers: _force(x, *operands, *buffers))


def step_dense(state: OscillatorState, dense: IsingProblem, params: SbParams, c0: float) -> OscillatorState:
    """Reference stepper over a materialized problem; oracle for :func:`step`."""
    return _stepped(state, params, c0, lambda x, dy, *_: np.subtract(dense.j @ x, dense.h, out=dy))


def _energies(p: SplitProblem, spins: np.ndarray, h_tick: np.ndarray) -> np.ndarray:
    """Ising energy of each row of spins, read from the split form without materialising J.

    -1/2 s.J_day.s, plus the tick couplings (c3/4)((sgn.s)^2 - sgn.sgn), the
    biases h_day + h_tick and both offsets; equals ising_energy(dense_reconstruct(p), s).
    """
    quad = np.einsum("ri,ri->r", spins @ p.j_day, spins)
    tick_pair = (p.c3 / 4.0) * ((spins @ p.sgn_dp) ** 2 - float(p.sgn_dp @ p.sgn_dp))
    return -0.5 * quad + tick_pair + spins @ (p.h_day + h_tick) + (p.offset_day + _tick_offset(p))


def run_batch(
    p: SplitProblem, params: SbParams, rngs: list[np.random.Generator], start: int = 0
) -> list[SbSolution | None]:
    """Runs start, start + 1, ... as one (R, n) float32 batch; row r starts from rngs[r].

    The state, the work buffers and every operand of the step kernel are
    float32: j_day32 from the split, the O(n) biases and tick terms and the
    0-d scalars cast once per batch, and the steps run in place. A c0 or an
    initial momentum beyond float32 range casts to inf, so its row diverges.
    No step checks for divergence: the wall turns an inf into NaN, which every
    later step carries, so one check of x after the loop finds each row that
    went non-finite; such a row comes back as None. Energies are read out in
    float64 from the spins.
    """
    t0 = time.perf_counter()
    tick_coef, h_tick = _tick_terms(p)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps, scalars = _scalars(params, _c0(p, params), np.float32, range(params.n_step))
        operands = (p.j_day32, *_in_dtype(np.float32, p.h_day, p.sgn_dp, tick_coef, h_tick))
        x = np.zeros((len(rngs), p.n), np.float32)
        y = np.array([initial_state(p, rng).y for rng in rngs], np.float32)
        dy, tmp, dot, over = _scratch(x)
        for gap in gaps:
            _force(x, *operands, dy, tmp, dot)
            _advance(x, y, dy, tmp, over, gap, *scalars)
    finite = np.isfinite(x).all(axis=1)
    spins = np.where(x >= 0.0, 1.0, -1.0)
    energies = _energies(p, spins, h_tick)
    elapsed = time.perf_counter() - t0
    return [
        SbSolution(spins=spins[r], energy=float(energies[r]), run_index=start + r, elapsed=elapsed)
        if finite[r]
        else None
        for r in range(len(rngs))
    ]


def _solved(sols: list[SbSolution | None], start: int) -> list[SbSolution]:
    for r, sol in enumerate(sols):
        if sol is None:
            raise DivergenceError(f"run {start + r} diverged; lower c0 or dt")
    return sols


def run(p: SplitProblem, params: SbParams, rng: np.random.Generator, run_index: int = 0) -> SbSolution:
    """A single run, the one-row batch: init from rng, iterate n_step steps, read out spin signs."""
    return _solved(run_batch(p, params, [rng], start=run_index), run_index)[0]


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic independent RNG stream for (seed, key...)."""
    return np.random.default_rng([int(seed), *map(int, key)])


def pick_best(sols: list[SbSolution]) -> SbSolution:
    """Lowest run index whose energy is within 1e-9 max(1, |E_min|) of the minimum.

    The tolerance makes the pick independent of summation order: rows ending in
    the same spins can differ by a few ULPs when their energies come from one GEMM.
    """
    e_min = min(sol.energy for sol in sols)
    tol = 1e-9 * max(1.0, abs(e_min))
    return min((sol for sol in sols if sol.energy <= e_min + tol), key=lambda sol: sol.run_index)


def solve(p: SplitProblem, params: SbParams) -> SbSolution:
    """Best of `restarts` rows of one batch on independent substreams (see pick_best)."""
    rngs = [substream(params.seed, i) for i in range(params.restarts)]
    return pick_best(_solved(run_batch(p, params, rngs), 0))


def update_tick(
    p: SplitProblem,
    sgn_dp: np.ndarray,
    abs_dp: np.ndarray,
    counter: WriteCounter | None = None,
) -> SplitProblem:
    """Replace the O(n) tick fields in O(n) time.

    Only the tick fields are checked; the day side, checked when p was built,
    is shared by identity, and so is its derived day_rms.
    """
    sgn_dp, abs_dp = _checked_tick(p.n, sgn_dp, abs_dp)
    if counter is not None:
        counter.add(sgn_dp.size + abs_dp.size)
    q = copy.copy(p)  # a shallow copy skips __post_init__ and its O(n^2) day checks
    q.sgn_dp, q.abs_dp = sgn_dp.copy(), abs_dp.copy()
    return q
