"""Timing loop: set-ups, rounds of operations, checks and metrics.

Only ``op.call()`` and ``workload.build()`` are timed.  Checks, input
generation and the speed reference run between timed calls.
"""
from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import layers
from oracles import CheckFailed
from refclock import REF_NOMINAL_S, RefClock, quantile
from tracer import Tracer

# a run goes on past --seconds until it has this many updates, so that
# update_ms_p90 always has ten samples beyond it
MIN_UPDATES = 100
# the speed reference is timed before an operation when this long has
# passed since it was last timed: before nearly every operation of
# apsp-ring, about once a round on reporter-gnp
REF_EVERY_S = 0.03


@dataclass
class Phase:
    rounds: int = 0
    raw: dict = field(default_factory=dict)      # kind -> [seconds]
    scaled: dict = field(default_factory=dict)   # kind -> [seconds at nominal speed]
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)   # operations that raised
    wrong: list = field(default_factory=list)    # answers that failed a check
    refs: list = field(default_factory=list)     # reference times, seconds

    def op_seconds(self) -> float:
        return sum(sum(xs) for xs in self.scaled.values())

    def op_count(self) -> int:
        return sum(len(xs) for xs in self.scaled.values())


def _short_trace() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def timed_setup(workload, clock: RefClock):
    """Build the structure; returns it and its (raw, scaled) set-up time."""
    gc.collect()
    before = clock.measure()
    t0 = time.perf_counter()
    st = workload.build()
    raw = time.perf_counter() - t0
    after = clock.measure()
    return st, (raw, raw * 2 * REF_NOMINAL_S / (before + after))


def run_phase(instances, clock: RefClock, *, seconds=None, rounds=None,
              min_updates=0, tracer: Tracer | None = None) -> Phase:
    """Whole rounds until `seconds` have passed (and `min_updates` updates
    ran), or exactly `rounds` rounds.  Rounds go to the (workload,
    structure) instances in turn."""
    phase = Phase()
    samples: dict[str, list] = {}
    refs = phase.refs
    gens = [workload.rounds(st) for workload, st in instances]
    gc.collect()
    deadline = time.perf_counter() + (seconds or 0)
    last_ref = -math.inf
    while True:
        if rounds is not None:
            if phase.rounds >= rounds:
                break
        elif time.perf_counter() >= deadline and phase.attempted["update"] >= min_updates:
            break
        for op in next(gens[phase.rounds % len(gens)]):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(clock.measure())
                last_ref = time.perf_counter()
            phase.attempted[op.kind] += 1
            try:
                with tracer.span(f"op.{op.kind}") if tracer else nullcontext():
                    t0 = time.perf_counter()
                    out = op.call()
                    dt = time.perf_counter() - t0
            except Exception:  # a failed operation is counted, and the run goes on
                phase.failed[op.kind] += 1
                phase.errors.append(f"{op.kind}: {_short_trace()}")
                continue
            samples.setdefault(op.kind, []).append((len(refs) - 1, dt))
            try:
                op.check(out)
            except CheckFailed as exc:
                phase.wrong.append(f"{op.kind}: {exc}")
            except Exception:  # an answer the check cannot read is a wrong answer
                phase.wrong.append(f"{op.kind}: {_short_trace()}")
        phase.rounds += 1
    refs.append(clock.measure())
    # a sample is scaled by the reference times on either side of it
    factor = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    for kind, xs in samples.items():
        phase.raw[kind] = [dt for _, dt in xs]
        phase.scaled[kind] = [dt * factor[r] for r, dt in xs]
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase: Phase, setup_times) -> dict:
    ms = {kind: [x * 1e3 for x in xs] for kind, xs in phase.scaled.items()}
    values = {
        "setup_s": statistics.median(s for _, s in setup_times),
        "update_ms_p50": quantile(ms.get("update", []), 0.5),
        "update_ms_p90": quantile(ms.get("update", []), 0.9),
        "dist_ms_p50": quantile(ms.get("dist", []), 0.5),
        "path_ms_p50": quantile(ms.get("path", []), 0.5),
        "ops_per_s": phase.op_count() / phase.op_seconds(),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    return {name: {"value": value, "unit": units.get(name, "ms")} for name, value in values.items()}


def run_untraced(workload_cls, seed: int, seconds: float):
    """workload_cls.instances structures, each built from its own inputs
    on this seed; set-up time is the median of their builds."""
    clock = RefClock()
    instances, setup_times = [], []
    for i in range(workload_cls.instances):
        workload = workload_cls(seed, i)
        st, times = timed_setup(workload, clock)
        instances.append((workload, st))
        setup_times.append(times)
    phase = run_phase(instances, clock, seconds=seconds, min_updates=MIN_UPDATES)
    workloads = [w for w, _ in instances]
    return workloads, phase, setup_times, end_to_end(phase, setup_times)


def run_traced(workload_cls, seed: int, seconds: float):
    """The same fixed number of rounds, untraced and then traced.

    The number of rounds is set by `seconds` and the workload's
    rounds_per_s, not by the clock, so the per-layer counts repeat
    exactly.  Both phases start from a fresh build on the same seed and
    run identical operations; the ratio of their scaled operation times
    is the tracing overhead."""
    rounds = max(1, round(workload_cls.rounds_per_s * seconds / 4))
    clock = RefClock()
    plain = workload_cls(seed)
    st, _ = timed_setup(plain, clock)
    base = run_phase([(plain, st)], clock, rounds=rounds)
    st = None
    gc.collect()
    workload = workload_cls(seed)
    tracer, counts = Tracer(), {}
    layers.install(tracer, counts)
    try:
        with tracer.span("setup"):
            st = workload.build()
        phase = run_phase([(workload, st)], clock, rounds=rounds, tracer=tracer)
    finally:
        tracer.restore()
    overhead = 100 * (phase.op_seconds() / base.op_seconds() - 1)
    metrics = layers.per_layer_metrics(tracer, counts, workload.facts, overhead)
    return workload, base, phase, tracer, metrics
