"""Selection-problem construction: deviations, correlations, QUBO/split assembly.

The stock-selection objective rewards large deviations of mid price from
VWAP (instantaneous expected return), penalizes pairwise correlation, and
enforces group size and long/short balance through quadratic penalties.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import typing
from dataclasses import dataclass

import numpy as np

from .ising import QuboProblem, qubo_to_ising, save_matrix, load_matrix, validate_bits
from .sb import SbSolution, SplitProblem, WriteCounter

__all__ = [
    "Stock",
    "Universe",
    "StrategyParams",
    "DeviationVector",
    "CorrelationMatrix",
    "ConstraintReport",
    "CandidateEvaluation",
    "lot_size",
    "compute_deviation",
    "daily_correlation",
    "day_sigma_matrix",
    "correlation_matrix",
    "build_qubo",
    "build_split",
    "cost_energy",
    "check_constraints",
    "evaluate_candidate",
    "random_instance",
    "load_universe",
    "save_universe",
    "read_kv",
    "config_from_kv",
    "save_correlation",
    "load_correlation",
]


@dataclass(frozen=True)
class Stock:
    code: str
    base_price: float
    min_lot: int

    def __post_init__(self) -> None:
        if not 0 < self.base_price < math.inf:  # NaN fails the chained comparison
            raise ValueError(f"{self.code}: base_price must be positive and finite")
        if self.min_lot < 1:
            raise ValueError(f"{self.code}: min_lot must be >= 1")


@dataclass
class Universe:
    """The fixed list of tradable stocks; index order defines vector order.

    The per-stock codes and base prices are derived once here; the price
    array is read-only and shared by every caller.
    """

    stocks: list[Stock]

    def __post_init__(self) -> None:
        self.codes = [s.code for s in self.stocks]
        if len(set(self.codes)) != len(self.codes):
            raise ValueError("duplicate stock codes in universe")
        self._index = {code: i for i, code in enumerate(self.codes)}
        self._base = np.array([s.base_price for s in self.stocks], dtype=np.float64)
        self._base.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.stocks)

    def index(self, code: str) -> int:
        return self._index[code]

    def base_prices(self) -> np.ndarray:
        return self._base


@dataclass
class StrategyParams:
    """Group size, position cap, sizing budget, and cost/penalty coefficients."""

    n_s: int = 4
    p_max: int = 4
    a_trans: float = 4_000_000.0
    c1: float = 1.0
    c2: float = 0.1
    c3: float = 0.1
    accept_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.n_s < 2 or self.n_s % 2 != 0:
            raise ValueError("n_s must be even and >= 2 (delta-neutral groups pair long/short)")
        if self.p_max < self.n_s:
            raise ValueError("p_max must be >= n_s (a smaller cap leaves no room for a group)")
        # chained comparisons are False for NaN
        for ok, message in (
            (0 < self.a_trans < math.inf, "a_trans must be positive and finite"),
            (0 < self.c1 < math.inf, "c1 must be positive and finite"),
            (0 <= self.c2 < math.inf, "c2 must be >= 0 and finite"),
            (0 <= self.c3 < math.inf, "c3 must be >= 0 and finite"),
        ):
            if not ok:
                raise ValueError(message)
        if math.isnan(self.accept_threshold):
            raise ValueError("accept_threshold must not be NaN (+-inf is allowed)")


@dataclass
class DeviationVector:
    """Per-stock VWAP deviations; the mask marks the stocks that may not join a group.

    A masked stock must have dp == 0, and dp == 0 (no side: long below VWAP, short above) is masked.
    """

    dp: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.dp = np.asarray(self.dp, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.dp.shape != self.mask.shape or self.dp.ndim != 1:
            raise ValueError("dp and mask must be equal-length vectors")
        if np.any(self.dp[self.mask] != 0.0):
            raise ValueError("masked entries must have dp == 0")
        self.mask = self.dp == 0.0

    @property
    def n(self) -> int:
        return self.dp.shape[0]

    def sgn(self) -> np.ndarray:
        return np.sign(self.dp)


@dataclass
class CorrelationMatrix:
    """Normalized pairwise correlation factors in [0, 1]; diagonal unused."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        n = self.sigma.shape[0]
        if self.sigma.shape != (n, n):
            raise ValueError("sigma must be square")
        if not np.all(np.isfinite(self.sigma)):
            raise ValueError("sigma contains non-finite entries")
        if np.any(self.sigma != self.sigma.T):
            raise ValueError("sigma must be symmetric")
        if np.any(self.sigma < 0.0) or np.any(self.sigma > 1.0):
            raise ValueError("sigma entries must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def lot_size(a_trans: float, s_min: float, p_b: float) -> int:
    """Lots per order targeting a common transaction amount; 0 means priced out."""
    if a_trans <= 0 or s_min <= 0 or p_b <= 0:
        raise ValueError("lot_size inputs must be positive")
    lots = a_trans / (s_min * p_b)
    if not math.isfinite(lots):
        raise ValueError(f"lot count a_trans / (min_lot * base_price) = {lots} is not finite")
    return int(math.floor(lots))


def compute_deviation(
    universe: Universe,
    ask: np.ndarray,
    bid: np.ndarray,
    quote_valid: np.ndarray,
    vwap: np.ndarray | None,
    excluded: np.ndarray,
) -> DeviationVector:
    """Per-stock (mid - VWAP) / base_price, masked where a stock may not join a group.

    Masked: the `excluded` stocks (the engine passes its open positions and
    the stocks priced out of the lot budget), stocks without a valid quote or
    a published VWAP, and stocks whose mid equals the VWAP (dp == 0 has no
    side). When no VWAP vector has been published yet, everything is masked.
    """
    n = universe.n
    if vwap is None:
        return DeviationVector(dp=np.zeros(n), mask=np.ones(n, dtype=bool))
    ask = np.asarray(ask, dtype=np.float64)
    bid = np.asarray(bid, dtype=np.float64)
    base = universe.base_prices()
    mask = (
        ~np.asarray(quote_valid, dtype=bool)
        | ~np.isfinite(np.asarray(vwap, dtype=np.float64))
        | np.asarray(excluded, dtype=bool)
    )
    mid = (ask + bid) / 2.0
    dp = np.where(mask, 0.0, (mid - vwap) / base)
    return DeviationVector(dp=dp, mask=mask)


def daily_correlation(dev_i: np.ndarray, dev_j: np.ndarray) -> float:
    """One-day correlation factor of two sampled deviation-from-VWAP series.

    sum_k d_i d_j / (sum_k |d_i| * sum_k |d_j|); 0 when either series is
    identically zero (a flat-at-VWAP stock carries no diversification signal).
    """
    d_i = np.asarray(dev_i, dtype=np.float64)
    d_j = np.asarray(dev_j, dtype=np.float64)
    if d_i.shape != d_j.shape or d_i.ndim != 1 or d_i.size < 1:
        raise ValueError("series must be equal-length vectors with >= 1 sample")
    den = float(np.abs(d_i).sum()) * float(np.abs(d_j).sum())
    if den == 0.0:
        return 0.0
    return float(d_i @ d_j) / den


def day_sigma_matrix(samples: np.ndarray) -> np.ndarray:
    """Pairwise one-day correlation factors from a (T, n) sample matrix.

    NaN marks seconds where a stock had no valid quote or VWAP; each pair is
    evaluated over the seconds where both stocks have samples. Degenerate
    pairs (empty overlap or a zero denominator factor) get 0.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples must be a (T, n) matrix")
    valid = np.isfinite(samples)
    d0 = np.where(valid, samples, 0.0)
    num = d0.T @ d0
    abs_common = np.abs(d0).T @ valid.astype(np.float64)
    den = abs_common * abs_common.T
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma_hat = np.where(den > 0.0, num / den, 0.0)
    return sigma_hat


def correlation_matrix(daily: list[np.ndarray], window: int = 5) -> CorrelationMatrix:
    """Average the last `window` one-day matrices and map [-1,1] -> [0,1]."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not daily:
        raise ValueError("no correlation history available")
    stack = np.stack([np.asarray(m, dtype=np.float64) for m in daily[-window:]])
    mean = stack.mean(axis=0)
    sigma = np.clip((mean + 1.0) / 2.0, 0.0, 1.0)
    sigma = (sigma + sigma.T) / 2.0
    return CorrelationMatrix(sigma=sigma)


def _check_dims(dev: DeviationVector, corr: CorrelationMatrix) -> int:
    if dev.n != corr.n:
        raise ValueError(f"deviation length {dev.n} != correlation size {corr.n}")
    return dev.n


def build_qubo(dev: DeviationVector, corr: CorrelationMatrix, params: StrategyParams) -> QuboProblem:
    """Assemble the full selection QUBO (cost plus expanded penalties).

    Off-diagonal: sigma_ij + c2 + c3 sgn_i sgn_j; diagonal: -c1|dp_i|
    + c2(1 - 2 n_s) + c3 sgn_i^2. The constant c2 n_s^2 from expanding the
    group-size penalty is dropped (it shifts every configuration equally).
    """
    n = _check_dims(dev, corr)
    sgn = dev.sgn()
    q = corr.sigma + params.c2 + params.c3 * np.outer(sgn, sgn)
    diag = -params.c1 * np.abs(dev.dp) + params.c2 * (1.0 - 2.0 * params.n_s) + params.c3 * sgn**2
    np.fill_diagonal(q, diag)
    return QuboProblem(q=q)


def _day_qubo(corr: CorrelationMatrix, params: StrategyParams) -> np.ndarray:
    q = corr.sigma + params.c2
    np.fill_diagonal(q, params.c2 * (1.0 - 2.0 * params.n_s))
    return q


def build_split(
    dev: DeviationVector,
    corr: CorrelationMatrix,
    params: StrategyParams,
    counter: WriteCounter | None = None,
) -> SplitProblem:
    """Split assembly: day side from sigma/c2 terms, tick side from dp/c1/c3.

    dense_reconstruct of the result equals qubo_to_ising(build_qubo(...)).
    The optional counter tallies day-side element writes (the O(n^2) rebuild
    cost that a tick update avoids).
    """
    _check_dims(dev, corr)
    day = qubo_to_ising(QuboProblem(_day_qubo(corr, params)))
    if counter is not None:
        counter.add(day.j.size + day.h.size)
    return SplitProblem(
        j_day=day.j,
        h_day=day.h,
        sgn_dp=dev.sgn(),
        abs_dp=np.abs(dev.dp),
        c1=params.c1,
        c3=params.c3,
        offset_day=day.offset,
    )


def cost_energy(bits: np.ndarray, dev: DeviationVector, corr: CorrelationMatrix, params: StrategyParams) -> float:
    """The objective part alone: -c1 sum |dp_i| b_i + sum_{i != j} sigma_ij b_i b_j."""
    b = validate_bits(bits, _check_dims(dev, corr))
    sel = np.flatnonzero(b)
    pair = corr.sigma[np.ix_(sel, sel)]  # a copy of the selected block, O(n_s^2)
    np.fill_diagonal(pair, 0.0)
    return float(-params.c1 * (np.abs(dev.dp) @ b) + pair.sum())


@dataclass(frozen=True)
class ConstraintReport:
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_constraints(bits: np.ndarray, dev: DeviationVector, n_s: int) -> ConstraintReport:
    """Group-size and long/short balance checks, plus the no-masked-stock rule."""
    b = np.asarray(bits, dtype=np.float64)
    if b.shape != (dev.n,):
        raise ValueError("bit vector length mismatch")
    reasons = []
    if int(round(b.sum())) != n_s:
        reasons.append(f"count: selected {int(round(b.sum()))} != n_s {n_s}")
    balance = int(round(float(dev.sgn() @ b)))
    if balance != 0:
        reasons.append(f"balance: sum sgn(dp) b = {balance} != 0")
    if np.any(b[dev.mask] > 0):
        reasons.append("masked: selection includes a masked stock")
    return ConstraintReport(ok=not reasons, reasons=tuple(reasons))


@dataclass(frozen=True)
class CandidateEvaluation:
    accepted: bool
    feasible: bool
    h_cost: float
    reasons: tuple[str, ...] = ()


def evaluate_candidate(
    sol: SbSolution,
    dev: DeviationVector,
    corr: CorrelationMatrix,
    params: StrategyParams,
) -> CandidateEvaluation:
    """Reject constraint violations, then accept iff the cost part clears the threshold."""
    bits = (np.asarray(sol.spins) + 1.0) / 2.0
    report = check_constraints(bits, dev, params.n_s)
    if not report:
        return CandidateEvaluation(accepted=False, feasible=False, h_cost=math.nan, reasons=report.reasons)
    h_cost = cost_energy(bits, dev, corr, params)
    if h_cost > params.accept_threshold:
        return CandidateEvaluation(
            accepted=False,
            feasible=True,
            h_cost=h_cost,
            reasons=(f"cost {h_cost:.6g} above threshold {params.accept_threshold:.6g}",),
        )
    return CandidateEvaluation(accepted=True, feasible=True, h_cost=h_cost)


def random_instance(
    n: int,
    n_s: int,
    rng: np.random.Generator,
    dp_scale: float = 0.0075,
    c1: float = 300.0,
    penalty: float | None = None,
) -> tuple[DeviationVector, CorrelationMatrix, StrategyParams]:
    """Random selection instance, feasible by construction.

    At least n_s/2 long and n_s/2 short candidates are guaranteed. When
    `penalty` is None, c2 = c3 are set large enough to dominate the whole
    cost range, so the global QUBO minimum is always a feasible group.
    """
    dp = rng.normal(0.0, dp_scale, n)
    half = n_s // 2
    dp[:half] = np.abs(dp[:half]) + dp_scale / 10.0
    dp[half : 2 * half] = -(np.abs(dp[half : 2 * half]) + dp_scale / 10.0)
    raw = rng.uniform(-1.0, 1.0, (n, n))
    sigma_hat = (raw + raw.T) / 2.0
    corr = CorrelationMatrix(np.clip((sigma_hat + 1.0) / 2.0, 0.0, 1.0))
    if penalty is None:
        penalty = n_s * c1 * float(np.max(np.abs(dp))) + n_s * (n_s - 1) * float(np.max(corr.sigma)) + 1.0
    dev = DeviationVector(dp=dp, mask=np.zeros(n, dtype=bool))
    params = StrategyParams(
        n_s=n_s,
        p_max=n_s,
        c1=c1,
        c2=penalty,
        c3=penalty,
        accept_threshold=float("inf"),
    )
    return dev, corr, params


# --- file formats owned by this module -------------------------------------

UNIVERSE_HEADER = ["code", "base_price", "min_lot"]


def load_universe(path) -> Universe:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != UNIVERSE_HEADER:
            raise ValueError(f"{path}: expected header {','.join(UNIVERSE_HEADER)}")
        stocks = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields")
            try:
                stocks.append(Stock(code=row[0], base_price=float(row[1]), min_lot=int(row[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return Universe(stocks=stocks)


def save_universe(path, universe: Universe) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(UNIVERSE_HEADER)
        for s in universe.stocks:
            writer.writerow([s.code, repr(float(s.base_price)), s.min_lot])


def save_correlation(path, corr: CorrelationMatrix, days: list[str]) -> None:
    """Matrix text format with a manifest line naming the source days."""
    save_matrix(path, corr.sigma, manifest="days: " + ",".join(days))


def load_correlation(path) -> CorrelationMatrix:
    return CorrelationMatrix(sigma=load_matrix(path))


def read_kv(path) -> dict[str, str]:
    """Read a key=value file into raw strings; `config_from_kv` describes the format."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def config_from_kv(cls, kv: dict[str, str]):
    """Build the config dataclass `cls` (StrategyParams, EngineConfig, SynthSpec) from key=value pairs.

    Format: one `key=value` per line; blank lines and lines starting with `#`
    are skipped. Each key is a field name of `cls` and its value is parsed
    with the field's type (`float | None` parses as float). A field that is
    itself a config dataclass, such as `EngineConfig.strategy`, is filled
    from the same flat keys. A field whose metadata names a `kv_seconds` key
    is read from that key in seconds and stored as integer microseconds
    (`session_close_s` and `t_force_s` fill `session_close_us` and
    `t_force_us`). Unknown keys are rejected. Every value goes to the
    constructor, so the class's `__post_init__` is the one place it is checked.
    """
    unread = dict(kv)
    config = _fill(cls, unread)
    if unread:
        raise ValueError(f"unknown config key: {', '.join(sorted(unread))}")
    return config


def _fill(cls, unread: dict[str, str]):
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = _fill(hint, unread)
            continue
        key = f.metadata.get("kv_seconds", f.name)
        if key not in unread:
            continue
        text = unread.pop(key)
        cast = typing.get_args(hint)[0] if typing.get_args(hint) else hint
        try:
            kwargs[f.name] = cast(text) if key == f.name else int(float(text) * 1e6)
        except (ValueError, OverflowError):
            raise ValueError(f"config key {key}: cannot parse {text!r}") from None
    return cls(**kwargs)
