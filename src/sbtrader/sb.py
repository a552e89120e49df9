"""Ballistic simulated-bifurcation solver over day/tick split problems.

The day component (dense couplings from correlations and the group-size
penalty) is built once per day; the tick component (price deviations and the
long/short balance penalty) is O(N) data, so a quote change (`update_tick`)
never touches the dense storage. A batch folds the two into one (J, h) per
solve (`_folded`), O(k^2) for the k stocks it solves, and every step is one
matrix product with that J.

A decision solves only the stocks that may join a group. `restrict` fixes
every other spin at -1, which moves its couplings into the kept biases and a
constant into the offset, and gathers the kept blocks of the day matrices in
O(n + k^2) for k kept stocks; `expand` writes the spins back to length n. The
fixed stocks have no tick terms, so every assignment of the kept spins keeps
its energy, and the batch searches 2^k states instead of 2^n.

Restarts run as one batch (`run_batch`): positions and momenta are (R, N)
float32 matrices, and row r draws its initial momenta from the RNG stream the
caller passes for it, so a run keeps its key whichever batch it lands in. The
batch casts the folded J (it is symmetric) into a cache-line-aligned float32
buffer, tiles the folded h into an (R, N) float32 copy and casts the gaps and
scalars once; then one call of `_anneal` runs the whole loop in place, each
step a single `x @ J` product and 14 ufunc calls on operands of the state's
shape, with no array broadcast. The wall maps x to x/|x| wherever |x| > 1:
exactly +-1 for a finite x, NaN for an inf, and a NaN stays NaN. A row that
goes non-finite therefore stays so, and one check after the loop finds it; a
diverged row is reported as None while the other rows finish. A c0 or an
initial momentum outside float32 range is inf from the start, so its row
diverges. Each row's energy is read out in float64 from the folded
(J, h, offset), so equal spins give equal energies. `run` is the one-row batch
and `solve` is `pick_best` over the `restarts` rows of `solve_rows`. `pick_best`
is the one row rule, which the engine applies to its accepted rows: the lowest
energy, within a tolerance that absorbs the last-bit differences a batched
product can give rows with equal spins. `step` runs one step of the same
kernel on a float64 copy of an (N,) or (R, N) state, and `step_dense` runs it
over a materialized problem; they, `dense_reconstruct` and
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
    "solve_rows",
    "solve",
    "update_tick",
    "restrict",
    "expand",
    "default_c0",
]


class DivergenceError(RuntimeError):
    """Raised when oscillator state goes non-finite (bad c0/dt choice)."""


@dataclass
class SbParams:
    """Ballistic-SB parameters; the defaults are the one statement of the operating point.

    `EngineConfig` takes its solver defaults from these fields. n_step and dt
    default to 300 / 0.02; a0 ramps the pumping amplitude linearly from 0 over
    the run. Scaling a0 and c0 together only rescales time, so a0 sets the
    effective anneal length at fixed n_step*dt; the default pairing (a0=10
    with c0 = 1.5 a0 / (sqrt(n) * rms of nonzero day couplings)) was
    calibrated against the brute-force oracle on selection instances, where
    nothing is masked. On a restricted split (`restrict`), n and the rms are
    those of the k kept stocks. `run_batch` steps in float32, so a c0 beyond
    float32 range (about 3.4e38) makes every row diverge; SplitProblem
    rejects day couplings beyond that range.
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
    day_row_sum, derived next to it, holds the row sums of j_day, from which
    restrict reads the couplings to the fixed stocks; update_tick's shallow
    copy shares both by identity. run_batch steps with a float32 cast of j_day
    plus the tick coupling, so a j_day or h_day entry not finite in float32,
    which would diverge every row, is rejected; no folded or cast copy is
    stored.
    """

    j_day: np.ndarray
    h_day: np.ndarray
    sgn_dp: np.ndarray
    abs_dp: np.ndarray
    c1: float
    c3: float
    offset_day: float = 0.0

    def __post_init__(self) -> None:
        self.j_day = np.array(self.j_day, dtype=np.float64)
        self.h_day = np.asarray(self.h_day, dtype=np.float64)
        n = self.j_day.shape[0]
        if self.j_day.shape != (n, n):
            raise ValueError("j_day must be square")
        _check_vector("h_day", self.h_day, n)
        with np.errstate(over="ignore"):  # beyond float32 range casts to inf; before symmetry, as NaN != NaN
            if not all(np.isfinite(a.astype(np.float32)).all() for a in (self.j_day, self.h_day)):
                raise ValueError("j_day and h_day must be finite within float32 range (about 3.4e38)")
        if np.any(self.j_day != self.j_day.T) or np.any(np.diag(self.j_day) != 0.0):
            raise ValueError("j_day must be symmetric with zero diagonal")
        self.day_rms = _rms_nonzero(self.j_day)
        self.day_row_sum = self.j_day.sum(axis=1)
        self.sgn_dp, self.abs_dp = _checked_tick(n, self.sgn_dp, self.abs_dp)
        if self.c1 < 0.0 or self.c3 < 0.0:
            raise ValueError("c1 and c3 must be >= 0")

    @property
    def n(self) -> int:
        return self.j_day.shape[0]


def _cache_line_aligned(a: np.ndarray, dtype) -> np.ndarray:
    """A copy of `a` in dtype whose data starts on a 64-byte boundary, wherever malloc would have put it.

    At n=512 a coupling matrix starting mid cache line made x @ J 30-50% slower (OpenBLAS, one
    thread). The cast is written straight into the aligned buffer, with no full-size temporary.
    """
    nbytes = a.size * np.dtype(dtype).itemsize
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start : start + nbytes].view(dtype).reshape(a.shape)
    out[...] = a
    return out


def _rms_nonzero(j: np.ndarray) -> float:
    """rms of the nonzero entries of j, taken row-major; 0.0 when there are none."""
    nonzero = j[j != 0.0]
    return float(np.sqrt(np.mean(nonzero**2))) if nonzero.size else 0.0


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


def _folded(p: SplitProblem) -> tuple[np.ndarray, np.ndarray, float]:
    """The whole problem as float64 (J, h, offset): the tick coupling -(c3/2) sgn sgn^T folded into j_day.

    O(n^2), so a batch builds it once over its k solved stocks. It equals
    dense_reconstruct(p), which stays a separate construction as the tests' oracle.
    """
    j = p.j_day - (p.c3 / 2.0) * np.outer(p.sgn_dp, p.sgn_dp)
    np.fill_diagonal(j, 0.0)
    return j, p.h_day + compute_h_tick(p), p.offset_day + _tick_offset(p)


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


def _anneal(x, y, j, h, gaps, c0, a0, dt) -> None:
    """Run one ballistic-SB step of x and y in place for each gap in gaps, with the force J x - h.

    j is a folded J (symmetric, so each row of x @ J is J x); gaps holds each
    step's -(a0 - a(k)), and c0, a0 and dt are 0-d (see _scalars). Every
    operand is in the state's dtype, since a float64 one would make a ufunc on
    a float32 state compute in float64. run_batch passes an h of x's shape, as
    are the work buffers, so no call pays 2-3x for broadcasting an array. The
    15 calls a step do the operations of `reference_run_batch` in
    tests/helpers.py in its order, so the result is bit-identical to it in
    either dtype; prescaling by c0*dt would change the rounding and the step at
    which a row overflows. The wall zeroes y and maps x to x/|x| wherever
    |x| > 1, by dividing x by max(|x|, 1): exactly +-1 for a finite x, NaN for
    an inf, and a NaN stays NaN, so a row that goes non-finite stays so to the
    end, and since a non-finite y makes x non-finite in the same step, checking
    x covers y. Callers silence the overflow and invalid warnings and check x.
    """
    dy, tmp, over = np.empty_like(x), np.empty_like(x), np.empty(x.shape, dtype=bool)
    one, zero = np.ones((), x.dtype), np.zeros((), x.dtype)
    matmul, subtract, multiply, add = np.matmul, np.subtract, np.multiply, np.add
    absolute, greater, maximum, divide, putmask = np.absolute, np.greater, np.maximum, np.divide, np.putmask
    for gap in np.nditer(gaps):  # 0-d views: a ufunc takes one faster than the scalar that plain iteration gives
        matmul(x, j, dy)
        subtract(dy, h, dy)
        multiply(x, gap, tmp)
        multiply(dy, c0, dy)
        add(tmp, dy, tmp)
        multiply(tmp, dt, tmp)
        add(y, tmp, y)
        multiply(y, a0, tmp)
        multiply(tmp, dt, tmp)
        add(x, tmp, x)
        absolute(x, tmp)
        greater(tmp, one, over)
        maximum(tmp, one, out=tmp)  # a positional output is deprecated for np.maximum
        divide(x, tmp, x)
        putmask(y, over, zero)


def _scalars(params: SbParams, c0: float, dtype) -> tuple[np.ndarray, list[np.ndarray]]:
    """_anneal's gaps and scalars in dtype: the (n_step,) gaps, and c0, a0 and dt as 0-d arrays.

    Entry k is -(a0 - a(k)), where the pumping amplitude a(k) = a0 k / (n_step - 1)
    ramps linearly from 0 (a one-step run stays at 0). A Python float or a
    dtype scalar would cost a conversion on every ufunc call. Callers silence
    the overflow warning: a value beyond float32 range casts to inf.
    """
    pump = params.a0 * np.arange(params.n_step) / max(params.n_step - 1, 1)
    return (-(params.a0 - pump)).astype(dtype), [np.asarray(v, dtype) for v in (c0, params.a0, params.dt)]


def _stepped(state: OscillatorState, params: SbParams, c0: float, j: np.ndarray, h: np.ndarray) -> OscillatorState:
    """One float64 _anneal step of copies of state.x and state.y, over the gap of state.step."""
    if state.step >= params.n_step:
        raise ValueError(f"state.step={state.step} out of range for n_step={params.n_step}")
    x, y = np.array(state.x, dtype=np.float64), np.array(state.y, dtype=np.float64)
    gaps, scalars = _scalars(params, c0, np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        _anneal(x, y, j, h, gaps[state.step : state.step + 1], *scalars)
    if not np.isfinite(x).all():
        raise DivergenceError(f"state diverged at step {state.step}; lower c0 or dt")
    return OscillatorState(x=x, y=y, step=state.step + 1)


def step(state: OscillatorState, p: SplitProblem, params: SbParams) -> OscillatorState:
    """One ballistic-SB update of an (n,) or (R, n) state, by the kernel run_batch iterates, in float64."""
    j, h, _ = _folded(p)
    return _stepped(state, params, _c0(p, params), j, h)


def step_dense(state: OscillatorState, dense: IsingProblem, params: SbParams, c0: float) -> OscillatorState:
    """The same step over a materialized problem; oracle for :func:`step`."""
    return _stepped(state, params, c0, dense.j, dense.h)


def _energies(spins: np.ndarray, j: np.ndarray, h: np.ndarray, offset: float) -> np.ndarray:
    """-1/2 s.J.s + h.s + offset for each row s of spins; over _folded(p) it is ising_energy of dense_reconstruct(p)."""
    return -0.5 * np.einsum("ri,ri->r", spins @ j, spins) + spins @ h + offset


def run_batch(
    p: SplitProblem, params: SbParams, rngs: list[np.random.Generator], start: int = 0
) -> list[SbSolution | None]:
    """Runs start, start + 1, ... as one (R, n) float32 batch; row r starts from rngs[r].

    Every operand of the step kernel is float32 and cast once per batch: the
    folded couplings of _folded into a 64-byte-aligned buffer (O(k^2) on a
    restricted split), the folded biases tiled into a real (R, n) copy so no
    step broadcasts them, and the gaps and scalars of _scalars. One _anneal
    call then runs every step in place. A c0 or an initial momentum beyond
    float32 range casts to inf, so its row diverges. No step checks for
    divergence: the wall turns an inf into NaN, which every later step
    carries, so one check of x after the loop finds each row that went
    non-finite; such a row comes back as None. Energies are read out in
    float64 from the spins and the float64 (J, h, offset).
    """
    t0 = time.perf_counter()
    j, h, offset = _folded(p)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps, scalars = _scalars(params, _c0(p, params), np.float32)
        x = np.zeros((len(rngs), p.n), np.float32)
        y = np.array([initial_state(p, rng).y for rng in rngs], np.float32)
        h32 = np.tile(h.astype(np.float32), (len(rngs), 1))  # a copy: a stride-0 view would still broadcast
        _anneal(x, y, _cache_line_aligned(j, np.float32), h32, gaps, *scalars)
    finite = np.isfinite(x).all(axis=1)
    spins = np.where(x >= 0.0, 1.0, -1.0)
    energies = _energies(spins, j, h, offset)
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


def solve_rows(p: SplitProblem, params: SbParams) -> list[SbSolution]:
    """The `restarts` rows of one batch on independent substreams; DivergenceError if a row diverged."""
    rngs = [substream(params.seed, i) for i in range(params.restarts)]
    return _solved(run_batch(p, params, rngs), 0)


def solve(p: SplitProblem, params: SbParams) -> SbSolution:
    """Best of the rows of solve_rows (see pick_best)."""
    return pick_best(solve_rows(p, params))


def update_tick(
    p: SplitProblem,
    sgn_dp: np.ndarray,
    abs_dp: np.ndarray,
    counter: WriteCounter | None = None,
) -> SplitProblem:
    """Replace the O(n) tick fields in O(n) time.

    Only the tick fields are checked; the day side, checked when p was built,
    is shared by identity with its derived day_rms and day_row_sum; the split
    stores nothing that run_batch casts.
    """
    sgn_dp, abs_dp = _checked_tick(p.n, sgn_dp, abs_dp)
    if counter is not None:
        counter.add(sgn_dp.size + abs_dp.size)
    q = copy.copy(p)  # a shallow copy skips __post_init__ and its O(n^2) day checks
    q.sgn_dp, q.abs_dp = sgn_dp.copy(), abs_dp.copy()
    return q


def restrict(p: SplitProblem, keep: np.ndarray) -> SplitProblem:
    """The split over the stocks in keep, with every other spin fixed at -1; O(n + k^2) for k kept.

    Fixing spin m at -1 adds sum_m J_am to the bias of each kept stock a, and
    -1/2 sum_{m,m'} J_mm' - sum_m h_m to the offset. A fixed stock must have no
    tick terms (sgn_dp = abs_dp = 0, as for a masked stock), so each assignment
    of the kept spins keeps its energy. sum_m J_am is day_row_sum minus the
    kept block's row sums. The kept block of j_day is gathered unchecked, and
    day_rms and day_row_sum are the block's, so default_c0 sees k.
    """
    keep = np.asarray(keep, dtype=np.intp)
    fixed = np.ones(p.n, dtype=bool)
    fixed[keep] = False
    if np.any(p.sgn_dp[fixed] != 0.0):  # abs_dp is 0 wherever sgn_dp is (_checked_tick)
        raise ValueError("a fixed stock must have sgn_dp == 0")
    block = np.ix_(keep, keep)
    q = copy.copy(p)  # c1 and c3 carry over; every other field is replaced
    q.j_day = p.j_day[block]
    q.day_rms = _rms_nonzero(q.j_day)
    q.day_row_sum = q.j_day.sum(axis=1)
    to_fixed = p.day_row_sum[keep] - q.day_row_sum
    q.h_day = p.h_day[keep] + to_fixed
    q.sgn_dp, q.abs_dp = p.sgn_dp[keep], p.abs_dp[keep]
    fixed_pairs = float(p.day_row_sum[fixed].sum()) - float(to_fixed.sum())
    q.offset_day = p.offset_day - 0.5 * fixed_pairs - float(p.h_day[fixed].sum())
    return q


def expand(sols: list[SbSolution | None], keep: np.ndarray, n: int) -> list[SbSolution | None]:
    """Solutions of restrict(p, keep) as solutions of p: spins written back to length n, -1 outside keep.

    The energy is unchanged, since restrict keeps each assignment's energy; a None row stays None.
    """
    expanded = []
    for sol in sols:
        if sol is not None:
            spins = np.full(n, -1.0)
            spins[keep] = sol.spins
            sol = SbSolution(spins=spins, energy=sol.energy, run_index=sol.run_index, elapsed=sol.elapsed)
        expanded.append(sol)
    return expanded
