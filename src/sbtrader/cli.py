"""Command-line entry points: solve, gen-feed, corr, backcast.

Exit codes: 0 success or `--help`, 1 usage or input errors (argparse's usage
errors included), 2 solver finished but found no acceptable (feasible and
below-threshold) selection.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import backcast as bc
from . import engine as eng
from . import feed as fd
from . import ising
from . import sb
from . import strategy as st

__all__ = ["main"]


def _load_deviations(path, n: int) -> st.DeviationVector:
    """One line per stock: `dp` or `dp,mask` (mask 0 or 1); a mask of 1 or a dp of 0 (no side) masks it."""
    dp = []
    mask = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (1, 2):
                raise ValueError(f"{path}:{lineno}: expected `dp` or `dp,mask`")
            try:
                dp.append(float(parts[0]))
                flag = int(parts[1]) if len(parts) == 2 else 0
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse deviation entry") from None
            if not np.isfinite(dp[-1]):
                raise ValueError(f"{path}:{lineno}: deviation must be finite")
            if flag not in (0, 1):
                raise ValueError(f"{path}:{lineno}: mask must be 0 or 1")
            mask.append(flag == 1)
    if len(dp) != n:
        raise ValueError(f"{path}: {len(dp)} deviations for a universe of {n}")
    dp_arr = np.array(dp)
    mask_arr = np.array(mask)
    dp_arr[mask_arr] = 0.0
    return st.DeviationVector(dp=dp_arr, mask=mask_arr)


def nonnegative_int(text: str) -> int:
    """The argparse type of --seed: numpy's seed sequences take integers >= 0 only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _config(cls, path):
    return st.config_from_kv(cls, st.read_kv(path)) if path else cls()


def _spin_string(spins: np.ndarray) -> str:
    return "".join("+" if s > 0 else "-" for s in spins)


def cmd_solve(args) -> int:
    config = _config(eng.EngineConfig, args.config)
    params = dataclasses.replace(config.sb_params(), seed=args.seed)
    if args.qubo:
        problem = ising.QuboProblem(ising.load_matrix(args.qubo)).symmetrized()
        split = sb.split_from_ising(ising.qubo_to_ising(problem))
        sol = sb.solve(split, params)
        print(f"spins={_spin_string(sol.spins)}")
        print(f"bits={''.join(str(int((s + 1) // 2)) for s in sol.spins)}")
        print(f"energy={sol.energy!r}")
        print(f"run_index={sol.run_index}")
        print(f"elapsed_s={sol.elapsed:.6f}")
        return 0
    universe = st.load_universe(args.universe)
    corr = st.load_correlation(args.corr)
    dev = _load_deviations(args.deviations, universe.n)
    split = st.build_split(dev, corr, config.strategy)
    sol = sb.solve(split, params)
    verdict = st.evaluate_candidate(sol, dev, corr, config.strategy)
    selected = np.flatnonzero(np.asarray(sol.spins) > 0)
    sides = ["long" if dev.dp[i] < 0 else "short" for i in selected]
    print(f"spins={_spin_string(sol.spins)}")
    print("selected=" + ",".join(f"{universe.codes[i]}:{side}" for i, side in zip(selected, sides)))
    print(f"energy={sol.energy!r}")
    print(f"feasible={verdict.feasible}")
    for reason in verdict.reasons:
        print(f"reason={reason}")
    print(f"h_cost={verdict.h_cost!r}")
    print(f"accepted={verdict.accepted}")
    print(f"elapsed_s={sol.elapsed:.6f}")
    return 0 if verdict.accepted else 2


def cmd_gen_feed(args) -> int:
    universe = st.load_universe(args.universe)
    spec = _config(fd.SynthSpec, args.spec)
    count = fd.synth_generate(universe, spec, args.seed, args.out)
    print(f"events={count}")
    print(f"out={args.out}")
    return 0


def cmd_corr(args) -> int:
    universe = st.load_universe(args.universe)
    daily = [bc.replay_day_sigma(universe, path) for path in args.feeds]
    days = [Path(path).stem for path in args.feeds]
    corr = st.correlation_matrix(daily, window=args.window)
    st.save_correlation(args.out, corr, days)
    print(f"days={','.join(days)}")
    print(f"out={args.out}")
    return 0


def cmd_backcast(args) -> int:
    universe = st.load_universe(args.universe)
    config = _config(eng.EngineConfig, args.config)
    feed_dir = Path(args.feed_dir)
    if not feed_dir.is_dir():
        raise ValueError(f"feed directory not found: {feed_dir}")
    day_feeds = [(p.stem, str(p)) for p in sorted(feed_dir.glob("*.csv"))]
    corr_override = st.load_correlation(args.corr) if args.corr else None
    report = bc.run_backcast(day_feeds, universe, config, seed=args.seed, corr_override=corr_override)
    report.write(args.out)
    print(f"days={len(report.days)}")
    print(f"total_transactions={report.total_transactions()!r}")
    print(f"total_pnl={report.total_pnl()!r}")
    print(f"sharpe={report.stats.sharpe!r}")
    print(f"out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbtrader", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a QUBO file or a strategy instance")
    p.add_argument("--qubo", help="matrix text file (first line n, then n rows)")
    p.add_argument("--universe", help="universe CSV (code,base_price,min_lot)")
    p.add_argument("--deviations", help="per-stock deviation file (dp[,mask] per line)")
    p.add_argument("--corr", help="correlation matrix text file")
    p.add_argument(
        "--config",
        help="key=value file in the backcast format (field names of EngineConfig and StrategyParams; "
        "unknown keys are rejected). Its solver keys (n_step, dt, restarts, a0, c0) set the solver; its "
        "strategy keys are used only with --universe/--deviations/--corr; the other keys are checked "
        "and ignored",
    )
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gen-feed", help="generate a deterministic synthetic tick feed")
    p.add_argument("--universe", required=True)
    p.add_argument(
        "--spec",
        help="key=value file whose keys are the field names of SynthSpec (duration_s is in seconds); "
        "unknown keys are rejected",
    )
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_feed)

    p = sub.add_parser("corr", help="build a correlation matrix from day feeds")
    p.add_argument("feeds", nargs="+", help="feed CSVs, one per day, oldest first")
    p.add_argument("--universe", required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_corr)

    p = sub.add_parser("backcast", help="replay day feeds through the trading engine")
    p.add_argument("--feed-dir", required=True, dest="feed_dir")
    p.add_argument("--universe", required=True)
    p.add_argument(
        "--config",
        help="key=value file whose keys are the field names of EngineConfig and StrategyParams, with "
        "session_close_s and t_force_s in seconds; unknown keys are rejected",
    )
    p.add_argument("--corr", help="correlation matrix override (skips warm-up)")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_backcast)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.fn is cmd_solve:
            strategy_inputs = (args.universe, args.deviations, args.corr)
            if args.qubo and any(strategy_inputs):
                parser.error("--qubo and strategy inputs are mutually exclusive")
            if not args.qubo and not all(strategy_inputs):
                parser.error("provide --qubo or all of --universe/--deviations/--corr")
    except SystemExit as exc:  # argparse's exit: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, sb.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
