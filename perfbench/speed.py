"""Machine-speed probe: scales measured times to a host of fixed speed.

Small shared virtual machines change speed by up to about 45% in phases of a
few seconds (a fixed pure-Python loop on a 2-vCPU VM reads 13 ms in one
phase and 19 ms in the next, on either vCPU). A 20-second run's median then
depends on how much of the run fell in slow phases, and moved 20-30% from
run to run. The probe is a fixed loop of small numpy operations with Python
overhead, the shape of one solver step, that does not touch the program. It
is timed right after every decision, after every chunk of feed events that
is timed, and between backcast calls; each measured time is multiplied by
NOMINAL_S / (the probe time next to it): the time the work would have taken
on a host where the probe takes NOMINAL_S.
On the 2-vCPU VM the benchmark was tuned on, a decision's latency and the
probe after it correlate at 0.73-0.79, and scaling cut the spread of the
decision median over 20-second windows from 0.26 to 0.04 on live-n16 and
from 0.17 to 0.03 on wide-n512 (with the large probe).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe vector sizes and the probe's time on the nominal host: round values
# near its readings during runs on the 2-vCPU VM the benchmark was tuned on,
# where the caches hold the workload's data rather than the probe's. The
# small probe is dominated by Python and numpy call overhead, like the solver
# at small N and the feed path; the large one by a 512 x 512 GEMV, like the
# solver at N=512, whose slow phases differ from those of interpreter-bound
# work.
SMALL = 64
LARGE = 512
NOMINAL_S = {SMALL: 0.002, LARGE: 0.006}
_STEPS = {SMALL: 150, LARGE: 60}
_MATRICES = {size: np.random.default_rng(0).standard_normal((size, size)) for size in (SMALL, LARGE)}


def size_for(n: int) -> int:
    """The probe size for a universe of `n` stocks."""
    return LARGE if n >= LARGE else SMALL


def probe(size: int) -> float:
    """Seconds one fixed probe loop of the given size takes right now."""
    j = _MATRICES[size]
    steps = _STEPS[size]
    x = np.zeros(size)
    y = np.full(size, 0.05)
    t0 = time.perf_counter()
    for k in range(steps):
        y = y + (-(1.0 - k / steps) * x + 0.001 * (j @ x)) * 0.02
        x = x + y * 0.02
        over = np.abs(x) > 1.0
        if over.any():
            x = np.where(over, np.sign(x), x)
    return time.perf_counter() - t0


def scale(size: int, readings) -> float:
    """Factor that takes a time measured among these probe readings to the nominal host."""
    return NOMINAL_S[size] / statistics.median(readings)
