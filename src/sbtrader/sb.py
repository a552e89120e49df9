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
batch derives its step count and step size from its folded J (`schedule`,
see SbParams), casts that J (it is symmetric) into a cache-line-aligned
float32 buffer, tiles the folded h into an (R, N) float32 copy, casts the
gaps and scalars, and scales J and h by c0 dt and the gaps and a0 by dt, all
once; then one call of `_anneal` runs the loop in place until the batch
locks on the wall (every spin at +-1 and pushed outward by every later step,
so no later step changes it), each step a single `x @ J` product and 11 ufunc
calls on operands of the state's shape, with no array broadcast. The wall
maps x to x/|x| wherever |x| > 1: exactly +-1 for a finite x, NaN for an inf,
and a NaN stays NaN. A row that goes non-finite therefore stays so, never
locks, and one check after the loop finds it; a diverged row is reported as
None while the other rows finish. A c0 or an initial momentum outside float32
range is inf from the start, so its row diverges. Each row's energy is read
out in float64 from the folded (J, h, offset), so equal spins give equal
energies. `run` is the one-row batch
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
from typing import ClassVar

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
    "schedule",
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
    """Raised when oscillator state goes non-finite (a c0, coupling or momentum too large)."""


@dataclass
class SbParams:
    """Ballistic-SB parameters; the defaults are the one statement of the operating point.

    `EngineConfig` takes its solver defaults from these fields. a0 ramps the
    pumping amplitude linearly from 0 over the run. It is a constant, not a
    field: scaling a0 and c0 together only rescales time, which the derived
    schedule already sets. The pairing of a0 = 10 with c0 = 1.5 a0 / (sqrt(n) *
    rms of nonzero day couplings) was calibrated against the brute-force oracle
    on selection instances, where nothing is masked. On a restricted split
    (`restrict`), n and the rms are those of the k kept stocks.

    `schedule` derives dt per batch, and n_step too unless it is set. The
    symplectic-Euler step is stable only for dt < 2 / sqrt(a0 (a0 + c0 |l|)),
    l the lowest eigenvalue of J; past that limit the walls clip a growing
    oscillation and no feasible group comes out. The limit shrinks about as
    k^-1/4 (0.075 at k = 16, 0.040 at k = 256), so no fixed dt is both short
    and safe. The derived dt is m = 0.6 of the limit, with c0 the one the
    force uses (c0, else default_c0) and |l| bounded by the largest absolute
    row sum of the folded J (Gershgorin: O(k^2), no BLAS, and within 7% of
    eigvalsh on selection instances, whose two rank-one penalties dominate
    J). The derived n_step is ceil(T / dt) for the anneal time
    T = 6 max(1, sqrt(k / 128)): up to k = 128 that is the anneal length of
    the former fixed 300 x 0.02, and larger batches need a longer anneal to
    end in a feasible group (at k = 2048, 300 x 0.02 found one on none of 8
    instances, the derived 1685 x 0.014 on 4). A derived dt never falls
    below T / 3000, so no split makes a batch run more than 3000 steps. An
    explicit n_step is used as given, with the derived dt.

    m was calibrated like c0's 1.5, with R = 10: hits of the 30 tight n = 16
    instances and of criterion 3's 50, exact best-group hits on 40
    `random_instance(128, 4, penalty=3)` instances (c1 = 300; all 40 had a
    feasible row where marked *), instances of 32 with a feasible row at
    k = 256 and 512, and the steps at k = 16 / 512:

        m            tight  crit. 3  k=128  k=256  k=512  steps
        0.4          28     47       20*    30     25     209 / 905
        0.5          27     47       22     30     28     167 / 724
        0.6          28     48       19*    31     27     139 / 604
        0.7          27     46       23     32     22     120 / 518
        0.8          27     46       19     30     24     105 / 453
        300 x 0.02   27     47       18*    29     13     300 / 300
        150 x 0.04   28     48       17*     0      0     150 / 150

    The k = 256 and 512 counts flip whole instances under a 1% change of dt
    (300 x 0.02 perturbed by one step or 0.5% in dt reads 29-31 and 13-18).
    The steps column is the scheduled n_step; a batch runs fewer when it
    locks on the wall first (_anneal), with the same spins.

    `run_batch` steps in float32, so a c0 beyond float32 range (about 3.4e38)
    makes every row diverge; SplitProblem rejects day couplings beyond that
    range.
    """

    a0: ClassVar[float] = 10.0
    n_step: int | None = None
    c0: float | None = None
    restarts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN; None means a derived n_step or default_c0
        for ok, message in (
            (self.n_step is None or self.n_step >= 1, "n_step must be >= 1"),
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


_DT_MARGIN = 0.6  # the derived dt, as a fraction of the step's stability limit (SbParams)
_ANNEAL_TIME = 6.0  # n_step * dt of a derived schedule up to _LONGER_FROM stocks: the former fixed 300 x 0.02
_LONGER_FROM = 128  # past this many stocks the derived anneal time grows as sqrt(k)
_MAX_STEPS = 3000  # a derived dt never falls below anneal time / _MAX_STEPS


def _c0(p: SplitProblem, params: SbParams) -> float:
    """The c0 of the force: params.c0 where set, else default_c0."""
    return params.c0 if params.c0 is not None else default_c0(p, params.a0)


def _schedule(params: SbParams, j: np.ndarray, c0: float) -> tuple[int, float]:
    """(n_step, dt) for folded couplings j and the force's c0: dt derived, n_step too unless set (see SbParams).

    O(k^2) and BLAS-free, so the result does not depend on the BLAS build.
    Callers silence the overflow warning: a c0 g beyond float64 range makes
    the limit 0, and the dt floor then applies.
    """
    anneal_time = _ANNEAL_TIME * max(1.0, np.sqrt(j.shape[0] / _LONGER_FROM))
    g = np.abs(j).sum(axis=1).max(initial=0.0)  # >= |lambda_min(j)|, as j's diagonal is 0
    limit = 2.0 / np.sqrt(params.a0 * (params.a0 + c0 * g))
    dt = max(float(_DT_MARGIN * limit), anneal_time / _MAX_STEPS)
    n_step = params.n_step if params.n_step is not None else int(np.ceil(anneal_time / dt))
    return n_step, dt


def schedule(p: SplitProblem, params: SbParams) -> tuple[int, float]:
    """The (n_step, dt) that run_batch and step run p with."""
    with np.errstate(over="ignore"):
        return _schedule(params, _folded(p)[0], _c0(p, params))


def initial_state(p: SplitProblem, rng: np.random.Generator) -> OscillatorState:
    """Zero positions, momenta uniform in [-0.1, 0.1]."""
    return OscillatorState(x=np.zeros(p.n), y=rng.uniform(-0.1, 0.1, p.n), step=0)


_LOCK_CHUNK = 16  # _anneal checks the lock after every this many steps; 8 and 32 ran no faster
_LOCK_FORCE_BOUND = 2.0**64  # a locked row's x (x gap + x J - h) stays below this (_locked)


def _anneal(x, y, j, h, gaps, a0) -> int:
    """Run one ballistic-SB step of x and y in place for each gap in gaps, with the force J x - h, until the batch locks.

    Every operand comes prescaled by dt (_scalars): j and h are c0 dt times the
    folded J and h (j symmetric, so each row of x @ j is J x), gaps holds each
    step's -(a0 - a(k)) dt, and a0 is the 0-d a0 dt. So a step is
    y += gap x + (x J - h) and x += a0 y. Every operand is in the state's dtype,
    since a float64 one would make a ufunc on a float32 state compute in
    float64. run_batch passes an h of x's shape, as are the work buffers, so no
    call pays 2-3x for broadcasting an array. The 12 calls a step do the
    operations of `reference_run_batch` in tests/helpers.py in its order, so the
    result is bit-identical to it in either dtype. The wall zeroes y and maps x
    to x/|x| wherever |x| > 1, by dividing x by max(|x|, 1): exactly +-1 for a
    finite x, NaN for an inf, and a NaN stays NaN, so a row that goes
    non-finite stays so to the end, and since a non-finite y makes x
    non-finite in the same step, checking x covers y. Callers silence the
    overflow and invalid warnings and check x.

    The gaps run in chunks of _LOCK_CHUNK steps. Before each later chunk, the
    batch stops if every row is locked on the wall for the next gap (_locked):
    every |x| = 1, x y >= 0, and x (x gap + (x J - h)) >= 0 (and below a bound
    that keeps later steps finite), in this kernel's float32 operations. The
    gaps only rise toward 0, so every later step then
    pushes x outward and the wall puts it back at exactly +-1: the x it returns
    is that of running every gap, bit for bit. A NaN fails every comparison, so
    a batch with a diverged row runs every gap. Returns the number of steps run.
    """
    dy, tmp, over = np.empty_like(x), np.empty_like(x), np.empty(x.shape, dtype=bool)
    one, zero = np.ones((), x.dtype), np.zeros((), x.dtype)
    matmul, subtract, multiply, add = np.matmul, np.subtract, np.multiply, np.add
    absolute, greater, maximum, divide, putmask = np.absolute, np.greater, np.maximum, np.divide, np.putmask
    n_step = len(gaps)
    for start in range(0, n_step, _LOCK_CHUNK):
        # 0-d views: a ufunc takes one faster than the scalar that plain iteration gives
        for gap in np.nditer(gaps[start : start + _LOCK_CHUNK]):
            matmul(x, j, dy)
            subtract(dy, h, dy)
            multiply(x, gap, tmp)
            add(tmp, dy, tmp)
            add(y, tmp, y)
            multiply(y, a0, tmp)
            add(x, tmp, x)
            absolute(x, tmp)
            greater(tmp, one, over)
            maximum(tmp, one, out=tmp)  # a positional output is deprecated for np.maximum
            divide(x, tmp, x)
            putmask(y, over, zero)
        stop = start + _LOCK_CHUNK
        if stop < n_step and _locked(x, y, j, h, gaps[stop, ...], dy, tmp):
            return stop
    return n_step


def _locked(x, y, j, h, gap, dy, tmp) -> bool:
    """Whether every row is locked on the wall for gap and every later, larger gap: no such step can change x.

    For every stock: |x| = 1, x y >= 0, and 0 <= x (x gap + (x J - h)) < _LOCK_FORCE_BOUND,
    the last computed as a step of _anneal computes it, into its work buffers dy and
    tmp. With x = +-1, x (x gap' + f) rounds as gap' + x f does, which cannot fall as
    gap' rises, and x J - h keeps its bits while x does; so each later step keeps
    x y >= 0, moves x outward or not at all, and the wall puts it back at exactly
    +-1. The bound keeps y and x + a0 y finite, where an overflow would make x NaN at
    the wall. The wall keeps |x| <= 1, so min |x| = 1 means every |x| is 1.
    """
    np.absolute(x, tmp)
    if not tmp.min() == 1.0:
        return False
    np.multiply(x, y, tmp)
    if not tmp.min() >= 0.0:
        return False
    np.matmul(x, j, dy)
    np.subtract(dy, h, dy)
    np.multiply(x, gap, tmp)
    np.add(tmp, dy, tmp)
    np.multiply(x, tmp, tmp)
    return bool(tmp.min() >= 0.0 and tmp.max() < _LOCK_FORCE_BOUND)


def _scalars(params: SbParams, n_step: int, dt: float, c0: float, steps: np.ndarray, dtype):
    """_anneal's gaps and a0, and the scale of J and h, in dtype: (gaps dt, a0 dt, c0 dt) for the given steps.

    Gap k is -(a0 - a(k)), where the pumping amplitude a(k) = a0 k / (n_step - 1)
    ramps linearly from 0 (a one-step run stays at 0). Each value is cast to
    dtype before it is multiplied by dt, so a c0 beyond float32 range is inf
    and its rows diverge. The scalars are 0-d arrays: a Python float or a
    dtype scalar would cost a conversion on every ufunc call. Callers silence
    the overflow warning.
    """
    pump = params.a0 * steps / max(n_step - 1, 1)
    dt, a0, c0 = (np.asarray(v, dtype) for v in (dt, params.a0, c0))
    return (pump - params.a0).astype(dtype) * dt, np.asarray(a0 * dt), np.asarray(c0 * dt)


def _stepped(state: OscillatorState, params: SbParams, c0: float, j: np.ndarray, h: np.ndarray) -> OscillatorState:
    """One float64 _anneal step of copies of state.x and state.y, with the force's c0 and state.step's gap alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        n_step, dt = _schedule(params, j, c0)
        if state.step >= n_step:
            raise ValueError(f"state.step={state.step} out of range for n_step={n_step}")
        x, y = np.array(state.x, dtype=np.float64), np.array(state.y, dtype=np.float64)
        gap, a0, scale = _scalars(params, n_step, dt, c0, np.arange(state.step, state.step + 1), np.float64)
        _anneal(x, y, j * scale, h * scale, gap, a0)
    if not np.isfinite(x).all():
        raise DivergenceError(f"state diverged at step {state.step}; lower c0")
    return OscillatorState(x=x, y=y, step=state.step + 1)


def step(state: OscillatorState, p: SplitProblem, params: SbParams) -> OscillatorState:
    """One ballistic-SB update of an (n,) or (R, n) state, by the kernel run_batch iterates, in float64."""
    j, h, _ = _folded(p)
    return _stepped(state, params, _c0(p, params), j, h)


def step_dense(state: OscillatorState, dense: IsingProblem, params: SbParams, c0: float) -> OscillatorState:
    """The same step over a materialized problem; oracle for :func:`step`.

    c0 stands in for default_c0, which a materialized problem cannot derive:
    pass default_c0 of the split to match step. params.c0 overrides it, as in step.
    """
    return _stepped(state, params, params.c0 if params.c0 is not None else c0, dense.j, dense.h)


def _energies(spins: np.ndarray, j: np.ndarray, h: np.ndarray, offset: float) -> np.ndarray:
    """-1/2 s.J.s + h.s + offset for each row s of spins; over _folded(p) it is ising_energy of dense_reconstruct(p)."""
    return -0.5 * np.einsum("ri,ri->r", spins @ j, spins) + spins @ h + offset


def run_batch(
    p: SplitProblem, params: SbParams, rngs: list[np.random.Generator], start: int = 0
) -> list[SbSolution | None]:
    """Runs start, start + 1, ... as one (R, n) float32 batch; row r starts from rngs[r].

    The schedule comes from the folded couplings of _folded (see SbParams).
    Every operand of the step kernel is float32, cast once per batch and then
    scaled by c0 dt in float32: the folded couplings into a 64-byte-aligned
    buffer (O(k^2) on a restricted split), the folded biases tiled into a real
    (R, n) copy so no step broadcasts them, and the gaps and a0 of _scalars.
    One _anneal call then runs the steps in place, and stops early once every
    row is locked on the wall: each |x| = 1, each y points outward, and the
    next step's force pushes each x outward. The gaps rise monotonically toward
    0 in float32, so no later step can move a locked x, and the spins and
    energies are those of the full schedule, bit for bit. A c0, coupling, bias or
    initial momentum beyond float32 range casts to inf, so its row diverges.
    No step checks for divergence: the wall turns an inf into NaN, which every
    later step carries, so one check of x after the loop finds each row that
    went non-finite; such a row comes back as None. Energies are read out in
    float64 from the spins and the float64 (J, h, offset).
    """
    t0 = time.perf_counter()
    j, h, offset = _folded(p)
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = _c0(p, params)
        n_step, dt = _schedule(params, j, c0)
        gaps, a0, scale = _scalars(params, n_step, dt, c0, np.arange(n_step), np.float32)
        x = np.zeros((len(rngs), p.n), np.float32)
        y = np.array([initial_state(p, rng).y for rng in rngs], np.float32)
        j32 = _cache_line_aligned(j, np.float32)
        j32 *= scale
        h32 = np.tile(h.astype(np.float32), (len(rngs), 1))  # a copy: a stride-0 view would still broadcast
        h32 *= scale
        _anneal(x, y, j32, h32, gaps, a0)
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
            raise DivergenceError(f"run {start + r} diverged; lower c0")
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
