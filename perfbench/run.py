"""Run one benchmark workload and print its metrics; the last stdout line is the JSON result.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload live-n16 --seed 0 --seconds 25 --trace 0

Workloads: live-n16, wide-n512, replay-n128 (see perfbench/README.md).
--trace 0 times the workload with no tracing and prints the end-to-end
metrics. --trace 1 times it, then repeats it with every layer traced, and
prints the per-layer metrics, the tracing overhead and the scaling sweep of
the tick update and readout. Both check the outputs. The BLAS thread count
is pinned before numpy loads and recorded with the versions in the `env`
line. Exit code 0 means a result was printed; its `correct` field says
whether every output check passed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
# One BLAS thread: never more than the machine has, and free of thread
# hand-off noise on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: small inputs for the smoke test")
    return p.parse_args(argv)


def blas_record(np) -> dict:
    """BLAS name, version and the thread count the library reports, where it can be asked."""
    record = {"requested_threads": BLAS_THREADS, "effective_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                record["effective_threads"] = int(fn())
                return record
    return record


class _FormatAndDrop(logging.Handler):
    """Formats each record, as a deployed handler would, and discards it.

    Rejected quotes are logged one by one; the cost of building those records
    stays in the measurement while the log itself stays off the output.
    """

    def emit(self, record):
        self.format(record)


def _quantile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def run(args, work: Path) -> dict:
    import numpy as np

    import workloads as wl

    w = wl.WORKLOADS[args.size][args.workload]
    env = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    print("env " + json.dumps(env), flush=True)

    inputs, setup_times, setup_scaled = wl.timed_setups(w, args.seed, work, SETUP_REPS)
    print(f"setup reps={len(setup_times)} wall_s={[round(t, 4) for t in setup_times]} events={inputs.events} "
          f"crossed_quotes={inputs.crossed}")
    out_dir = work / "report"
    calls = wl.measure(w, inputs, args.seconds, out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = {}
    all_calls = list(calls)

    def throughput(results, scaled=True):
        rates = [c.events / (c.scaled_busy() if scaled else c.busy) for c in results if c.checks["completed"]]
        return statistics.median(rates) if rates else 0.0

    if args.trace:
        from tracing import Tracer, instrument, layer_metrics
        from sweep import scaling_sweep

        tracer = Tracer()
        with ExitStack() as stack:
            instrument(stack, tracer)
            traced = wl.measure(w, inputs, args.seconds, out_dir, tracer=tracer)
        trace_path = TRACE_DIR / f"trace-{w.name}-s{args.seed}.json"
        tracer.write(trace_path)
        print(f"trace spans={len(tracer.spans)} written={trace_path.relative_to(ROOT)}")
        all_calls += traced
        untraced_rate = throughput(calls, scaled=False)  # the traced calls take no probes inside to scale by
        metrics = layer_metrics(tracer, traced)
        metrics["trace.overhead"] = (throughput(traced, scaled=False) / untraced_rate if untraced_rate else 0.0, "ratio")
        tiny = args.size == "tiny"
        metrics.update(scaling_sweep(args.seed, budget_s=0.0 if tiny else 0.3, min_reps=1 if tiny else 3))
        oracle = None
    else:
        oracle = wl.oracle(w.oracle_instances)
        if w.trades:
            latencies = [t for c in calls for t in c.scaled_latencies()]
            raw = [t for c in calls for t in c.obs.latencies]
            kind = "decisions"
        else:
            # feed latency: per-event service time averaged over chunks of events
            latencies = [t for c in calls for t in c.chunk_means()]
            raw = [t for c in calls for t in c.chunk_means(scaled=False)]
            kind = f"chunks_of_{wl.CHUNK_EVENTS}_events"
        samples = len(latencies)
        p50, p90, raw50, raw90 = (_quantile(v, q) for v, q in ((latencies, 50), (latencies, 90), (raw, 50), (raw, 90)))
        print(f"samples {kind}={samples} beyond_p90={sum(t > p90 for t in latencies)}")
        probes = [t for c in calls for t in (c.speed_before, *c.obs.speeds)]
        print(f"unscaled events_per_s={throughput(calls, scaled=False):.6g} decision_ms_p50={1e3 * raw50:.6g} "
              f"decision_ms_p90={1e3 * raw90:.6g} setup_s={statistics.median(setup_times):.6g} "
              f"speed_probe_ms_median={1e3 * statistics.median(probes):.4f}")
        checks["latency_sampled"] = samples > 0
        checks["oracle_consistent"] = oracle.consistent
        metrics = {
            "events_per_s": (throughput(calls), "events/s"),
            "decision_ms_p50": (1e3 * p50, "ms"),
            "decision_ms_p90": (1e3 * p90, "ms"),
            "oracle_exact_rate": (oracle.exact_rate, "ratio"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    done = [c for c in all_calls if c.checks["completed"]]
    digests = {c.digest for c in done}
    for c in all_calls:
        for name, ok in c.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["digest_repeats"] = len(digests) == 1
    print(f"calls n={len(all_calls)} wall_s={[round(c.wall, 4) for c in all_calls]} "
          f"orders={[c.orders for c in all_calls]}")
    print(f"digest sha256={' '.join(sorted(digests)) or '-'}")
    print("checks " + json.dumps(checks))

    ops = {
        "decisions": (sum(c.obs.decisions for c in all_calls), sum(c.obs.skipped for c in all_calls)),
        "replayed_events": (sum(c.events for c in all_calls), sum(c.events for c in all_calls if not c.checks["completed"])),
    }
    if oracle is not None:
        ops["oracle_solves"] = (oracle.solves, oracle.failed)
    for name, (attempted, failed) in ops.items():
        print(f"ops {name} attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    return {
        "correct": all(checks.values()),
        "attempted": sum(a for a, _ in ops.values()),
        "failed": sum(f for _, f in ops.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sbtrader" / "__init__.py").is_file():
        print(f"error: no sbtrader sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.WORKLOADS[args.size]:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS[args.size])}",
              file=sys.stderr)
        return 2
    log = logging.getLogger("sbtrader")
    log.addHandler(_FormatAndDrop())
    log.propagate = False
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK_DIR))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
