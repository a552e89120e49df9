"""QUBO and Ising problem representations with exact conversion and a brute-force oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuboProblem",
    "IsingProblem",
    "validate_bits",
    "validate_spins",
    "qubo_energy",
    "ising_energy",
    "qubo_to_ising",
    "brute_force_min",
    "load_matrix",
    "save_matrix",
]

BRUTE_FORCE_MAX_VARS = 24
_ENUM_CHUNK = 1 << 16


@dataclass
class QuboProblem:
    """Minimize sum_{i,j} Q[i,j] * b_i * b_j over binary vectors b.

    ``q`` is a dense real matrix; it need not be symmetric on input, but
    conversion to Ising form requires a symmetrized matrix (see
    :meth:`symmetrized`).
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.ndim != 2 or self.q.shape[0] != self.q.shape[1]:
            raise ValueError(f"Q must be square, got shape {self.q.shape}")
        if not np.all(np.isfinite(self.q)):
            raise ValueError("Q contains non-finite entries")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def symmetrized(self) -> "QuboProblem":
        """Return an equivalent problem with q replaced by (q + q.T) / 2."""
        return QuboProblem((self.q + self.q.T) / 2.0)

    def is_symmetric(self) -> bool:
        return bool(np.all(self.q == self.q.T))


@dataclass
class IsingProblem:
    """Spin problem H(s) = -1/2 sum_{i,j} J[i,j] s_i s_j + sum_i h_i s_i + offset.

    J must be symmetric with an exactly zero diagonal. The scalar ``offset``
    makes the Ising energy agree exactly with the QUBO energy of the problem
    it was converted from, not merely up to a constant.
    """

    j: np.ndarray
    h: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        self.j = np.asarray(self.j, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.float64)
        self.offset = float(self.offset)
        if self.j.ndim != 2 or self.j.shape[0] != self.j.shape[1]:
            raise ValueError(f"J must be square, got shape {self.j.shape}")
        if self.h.shape != (self.j.shape[0],):
            raise ValueError(
                f"h has shape {self.h.shape}, expected ({self.j.shape[0]},)"
            )
        if not (np.all(np.isfinite(self.j)) and np.all(np.isfinite(self.h))):
            raise ValueError("J/h contain non-finite entries")
        if np.any(self.j != self.j.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diag(self.j) != 0.0):
            raise ValueError("J must have a zero diagonal")

    @property
    def n(self) -> int:
        return self.j.shape[0]


def validate_bits(bits: np.ndarray, n: int | None = None) -> np.ndarray:
    """Check entries are 0/1 (and the length, when given); returns a float64 copy."""
    b = np.asarray(bits, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("bit vector must be one-dimensional")
    if n is not None and b.shape[0] != n:
        raise ValueError(f"bit vector has length {b.shape[0]}, expected {n}")
    if not np.all((b == 0.0) | (b == 1.0)):
        raise ValueError("bit vector entries must be 0 or 1")
    return b


def validate_spins(spins: np.ndarray, n: int | None = None) -> np.ndarray:
    """Check entries are -1/+1 (and the length, when given); returns a float64 copy."""
    s = np.asarray(spins, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("spin vector must be one-dimensional")
    if n is not None and s.shape[0] != n:
        raise ValueError(f"spin vector has length {s.shape[0]}, expected {n}")
    if not np.all((s == -1.0) | (s == 1.0)):
        raise ValueError("spin vector entries must be -1 or +1")
    return s


def qubo_energy(problem: QuboProblem, bits: np.ndarray) -> float:
    """Evaluate sum_{i,j} Q[i,j] b_i b_j."""
    b = validate_bits(bits, problem.n)
    return float(b @ problem.q @ b)


def ising_energy(problem: IsingProblem, spins: np.ndarray) -> float:
    """Evaluate -1/2 s.J.s + h.s + offset."""
    s = validate_spins(spins, problem.n)
    return float(-0.5 * (s @ problem.j @ s) + problem.h @ s + problem.offset)


def qubo_to_ising(problem: QuboProblem) -> IsingProblem:
    """Convert a symmetrized QUBO to the equivalent Ising problem.

    Under s = 2b - 1:  J = -Q/2 off the diagonal, h_i = (row sum of Q)/2,
    and offset = tr(Q)/2 + sum_{i<j} Q[i,j]/2, so that the two energies agree
    exactly on every configuration.

    Raises ValueError if q is not symmetric; callers symmetrize first.
    """
    if not problem.is_symmetric():
        raise ValueError("QUBO matrix must be symmetrized before conversion")
    q = problem.q
    j = -q / 2.0
    np.fill_diagonal(j, 0.0)
    h = q.sum(axis=1) / 2.0
    trace = float(np.trace(q))
    upper = (float(q.sum()) - trace) / 2.0
    offset = trace / 2.0 + upper / 2.0
    return IsingProblem(j=j, h=h, offset=offset)


def brute_force_min(problem: QuboProblem) -> tuple[np.ndarray, float]:
    """Exhaustive QUBO minimizer, the test oracle for every solver check.

    Ties are broken toward the bit vector with the lowest integer value read
    LSB-first (bit i contributes b_i * 2**i), which makes oracle output
    reproducible. Guarded to n <= 24.
    """
    n = problem.n
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_VARS}, got {n}")
    q = problem.q
    powers = np.arange(n, dtype=np.uint64)
    best_energy = np.inf
    best_key = 0
    for start in range(0, 1 << n, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, 1 << n)
        keys = np.arange(start, stop, dtype=np.uint64)
        bits = ((keys[:, None] >> powers[None, :]) & 1).astype(np.float64)
        energies = np.einsum("ki,ij,kj->k", bits, q, bits)
        idx = int(np.argmin(energies))
        if energies[idx] < best_energy:
            best_energy = float(energies[idx])
            best_key = start + idx
    best_bits = ((best_key >> np.arange(n)) & 1).astype(np.float64)
    return best_bits, best_energy


def save_matrix(path, m: np.ndarray, manifest: str | None = None) -> None:
    """Write a square matrix in the plain-text format: `n`, then n rows of n decimals.

    An optional manifest string is written first as a `#` comment line.
    """
    m = np.asarray(m, dtype=np.float64)
    with open(path, "w") as fh:
        if manifest is not None:
            fh.write(f"# {manifest}\n")
        fh.write(f"{m.shape[0]}\n")
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a square matrix written by :func:`save_matrix`.

    Blank lines and `#` comments (the manifest) are skipped; parse failures
    raise ValueError with the offending line number.
    """
    rows: list[list[float]] = []
    n = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if n is None:
                try:
                    n = int(line)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected matrix size, got {line!r}")
                if n < 1:
                    raise ValueError(f"{path}:{lineno}: matrix size must be >= 1")
                continue
            try:
                values = [float(tok) for tok in line.split()]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric matrix entry")
            if len(values) != n:
                raise ValueError(f"{path}:{lineno}: expected {n} entries, got {len(values)}")
            rows.append(values)
    if n is None:
        raise ValueError(f"{path}: empty matrix file")
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} rows, got {len(rows)}")
    return np.array(rows, dtype=np.float64)
