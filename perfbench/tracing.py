"""Spans around the calls into each layer, and the per-layer metrics made from them.

Layers are timed from outside: each wrapper replaces the module attribute
that the caller looks up (for example `sbtrader.engine.sb_run`, which the
engine calls, or `sbtrader.sb.step`, which `sb.run` calls), so no program
file changes. A span holds a name, start, end, parent and decision id; a
layer's self time is its duration minus the time its child spans cover.
Calls made once per event or per solver step are only aggregated, since
keeping a span for each would dwarf the work; the others are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from sbtrader import backcast as bc
from sbtrader import engine as eng
from sbtrader import sb

from workloads import CallResult, patch


class Tracer:
    """Spans in memory, with per-name totals of calls, time and self time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.decision: int | None = None
        self._stack: list[list] = []
        self._next_id = 0

    def begin(self, name: str) -> list:
        """Open a span; returns its frame [name, id, start, child seconds]."""
        self._next_id += 1
        frame = [name, self._next_id, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def end(self, frame: list, keep: bool = True) -> None:
        end = time.perf_counter()
        name, span_id, start, child = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if keep:
            self.spans.append((span_id, name, start, end, parent[1] if parent else None, self.decision))

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[0]

    def per_call(self, name: str, scale: float, self_time: bool = False) -> float:
        calls, total, own = self.totals.get(name, (0, 0.0, 0.0))
        return scale * (own if self_time else total) / calls if calls else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "decision")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans], "totals": self.totals}, fh)


def _timed(tracer: Tracer, name: str, fn, keep: bool = True):
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame, keep)

    return wrapper


def _traced_replay(tracer: Tracer, replay):
    """Time the parse of each event: the span covers the generator's `next`."""

    def traced(path):
        it = replay(path)
        while True:
            frame = tracer.begin("feed.replay")
            try:
                e = next(it, None)
            finally:
                tracer.end(frame, keep=False)
            if e is None:
                return
            yield e

    return traced


def _counted_evaluate(tracer: Tracer, evaluate):
    timed = _timed(tracer, "strategy.evaluate_candidate", evaluate)

    def wrapper(*args, **kwargs):
        verdict = timed(*args, **kwargs)
        tracer.counts["strategy.accepted"] += verdict.accepted
        tracer.counts["strategy.feasible"] += verdict.feasible
        return verdict

    return wrapper


def _counted_run(tracer: Tracer, run):
    timed = _timed(tracer, "sb.run", run)

    def wrapper(*args, **kwargs):
        try:
            return timed(*args, **kwargs)
        except sb.DivergenceError:
            tracer.counts["sb.divergences"] += 1
            raise

    return wrapper


def instrument(stack: ExitStack, tracer: Tracer) -> None:
    """Wrap every layer boundary until `stack` closes.

    The engine and session methods (process, on_quote_change, close_policy,
    advance, apply) are traced by the observer classes in `workloads`.
    """
    patch(stack, bc, "replay", _traced_replay(tracer, bc.replay))
    patch(stack, bc, "day_sigma_matrix", _timed(tracer, "strategy.day_sigma_matrix", bc.day_sigma_matrix))
    patch(stack, bc, "correlation_matrix", _timed(tracer, "strategy.correlation_matrix", bc.correlation_matrix))
    patch(stack, eng, "build_split", _timed(tracer, "strategy.build_split", eng.build_split))
    patch(stack, eng, "compute_deviation", _timed(tracer, "strategy.compute_deviation", eng.compute_deviation))
    patch(stack, eng, "evaluate_candidate", _counted_evaluate(tracer, eng.evaluate_candidate))
    patch(stack, eng, "update_tick", _timed(tracer, "sb.update_tick", eng.update_tick))
    patch(stack, eng, "sb_run", _counted_run(tracer, eng.sb_run))
    patch(stack, sb, "step", _timed(tracer, "sb.step", sb.step, keep=False))
    patch(stack, sb, "default_c0", _timed(tracer, "sb.default_c0", sb.default_c0))
    patch(stack, sb, "dense_reconstruct", _timed(tracer, "sb.dense_reconstruct", sb.dense_reconstruct))
    patch(stack, sb, "ising_energy", _timed(tracer, "sb.ising_energy", sb.ising_energy))


def layer_metrics(tracer: Tracer, calls: list[CallResult]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced loop. Counts are per backcast call; a layer never entered reads 0."""
    n_calls = len(calls)
    events = sum(c.events for c in calls)
    decisions = sum(c.obs.decisions for c in calls)
    runs = tracer.calls("sb.run")
    evaluated = tracer.calls("strategy.evaluate_candidate")
    readout_s = tracer.totals.get("sb.dense_reconstruct", [0, 0.0])[1] + tracer.totals.get("sb.ising_energy", [0, 0.0])[1]
    backcast_self = tracer.totals.get("backcast", [0, 0.0, 0.0])[2]
    return {
        "feed.replay.us_per_event": (1e6 * tracer.totals.get("feed.replay", [0, 0.0])[1] / events if events else 0.0, "us"),
        "feed.advance.us_per_call": (tracer.per_call("feed.advance", 1e6), "us"),
        "feed.apply.us_per_call": (tracer.per_call("feed.apply", 1e6), "us"),
        "feed.quotes_rejected": (sum(c.rejected for c in calls) / n_calls, "count"),
        "feed.samples": (sum(c.samples for c in calls) / n_calls, "count"),
        "strategy.day_sigma_matrix.ms_per_call": (tracer.per_call("strategy.day_sigma_matrix", 1e3), "ms"),
        "strategy.correlation_matrix.ms_per_call": (tracer.per_call("strategy.correlation_matrix", 1e3), "ms"),
        "strategy.compute_deviation.us_per_call": (tracer.per_call("strategy.compute_deviation", 1e6), "us"),
        "strategy.evaluate_candidate.us_per_call": (tracer.per_call("strategy.evaluate_candidate", 1e6), "us"),
        "strategy.accept_ratio": (tracer.counts["strategy.accepted"] / evaluated if evaluated else 0.0, "ratio"),
        "strategy.feasible_ratio": (tracer.counts["strategy.feasible"] / evaluated if evaluated else 0.0, "ratio"),
        "strategy.build_split.ms_per_call": (tracer.per_call("strategy.build_split", 1e3), "ms"),
        "sb.step.us_per_call": (tracer.per_call("sb.step", 1e6), "us"),
        "sb.run.ms_per_call": (tracer.per_call("sb.run", 1e3), "ms"),
        "sb.update_tick.us_per_call": (tracer.per_call("sb.update_tick", 1e6), "us"),
        "sb.readout.ms_per_call": (1e3 * readout_s / runs if runs else 0.0, "ms"),
        "sb.default_c0.ms_per_call": (tracer.per_call("sb.default_c0", 1e3), "ms"),
        "sb.run.calls": (runs / n_calls, "count"),
        "sb.divergences": (tracer.counts["sb.divergences"] / n_calls, "count"),
        "engine.decisions": (decisions / n_calls, "count"),
        "engine.runs_per_decision": (runs / decisions if decisions else 0.0, "ratio"),
        "engine.preprocess_per_decision": (tracer.calls("sb.update_tick") / decisions if decisions else 0.0, "ratio"),
        "engine.orders": (sum(c.orders for c in calls) / n_calls, "count"),
        "engine.on_quote_change.self_us": (tracer.per_call("engine.on_quote_change", 1e6, self_time=True), "us"),
        "engine.close_policy.us_per_call": (tracer.per_call("engine.close_policy", 1e6), "us"),
        "backcast.self_us_per_event": (1e6 * backcast_self / events if events else 0.0, "us"),
    }
