"""Wall-clock scaling of the per-quote-change work: `update_tick` and the energy readout.

The paper's cost claim is that a quote change costs O(N). Splits are built
once per size; the sweep then times the tick update and the readout that
`sb.run` does after every run (`ising_energy(dense_reconstruct(p), spins)`)
and fits the log-log slope between the two largest sizes.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from sbtrader import sb
from sbtrader import strategy as st

SIZES = (16, 128, 512, 2048)


def _median_time(fn, budget_s: float, min_reps: int) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaling_sweep(seed: int, budget_s: float, min_reps: int) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    tick_us = {}
    readout_us = {}
    for n in SIZES:
        rng = np.random.default_rng([seed, n])
        dev, corr, params = st.random_instance(n, 4, rng)
        split = st.build_split(dev, corr, params)
        sgn, mag = dev.sgn(), np.abs(dev.dp)
        spins = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        tick_us[n] = 1e6 * _median_time(lambda: sb.update_tick(split, sgn, mag), budget_s, min_reps)
        readout_us[n] = 1e6 * _median_time(
            lambda: sb.ising_energy(sb.dense_reconstruct(split), spins), budget_s, min_reps
        )
        out[f"sb.update_tick.us.n{n}"] = (tick_us[n], "us")
        out[f"sb.readout.us.n{n}"] = (readout_us[n], "us")
    lo, hi = SIZES[-2], SIZES[-1]
    span = math.log(hi / lo)
    out["sb.update_tick.scaling_exponent"] = (math.log(tick_us[hi] / tick_us[lo]) / span, "ratio")
    out["sb.readout.scaling_exponent"] = (math.log(readout_us[hi] / readout_us[lo]) / span, "ratio")
    return out
