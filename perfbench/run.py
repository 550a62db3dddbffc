"""Run one benchmark workload on one seed and print its metrics.

    python3 perfbench/run.py --workload reporter-gnp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: dynsp is imported from its ``src/``,
never from an installed copy.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it give per operation kind the number attempted and
failed, raw and scaled timings, and the figures the checks collected.
With ``--trace 1`` the metrics are the per-layer ones from a traced run.
A copy of the result (and, when tracing, the spans) is written under
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("reporter-gnp", "apsp-ring", "spanner-alg-gnp", "steiner-grid")


def _one_blas_thread() -> None:
    """One BLAS thread: dynsp's matrices are small enough that a second
    thread does not speed it up, and idle BLAS threads that spin while
    another process holds the CPU make timings erratic."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _ms(xs) -> str:
    return f"{statistics.median(xs) * 1e3:.3f}" if xs else "-"


def _print_phase(label: str, phase) -> None:
    for kind in sorted(phase.attempted):
        print(
            f"{label} {kind}: attempted={phase.attempted[kind]} failed={phase.failed[kind]}"
            f" p50_ms={_ms(phase.scaled.get(kind, []))} raw_p50_ms={_ms(phase.raw.get(kind, []))}"
        )
    for line in phase.errors[:5] + phase.wrong[:5]:
        print(f"{label} problem: {line}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dynsp" / "__init__.py").is_file():
        print(f"error: no dynsp sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    _one_blas_thread()
    sys.path.insert(0, str(SRC))
    import runner
    import dynsp
    from workloads import WORKLOADS

    if Path(dynsp.__file__).resolve().parent != (SRC / "dynsp").resolve():
        print(f"error: dynsp imported from {dynsp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        workload, base, phase, tracer, metrics = runner.run_traced(cls, args.seed, args.seconds)
        _print_phase("untraced", base)
        _print_phase("traced", phase)
        phases, instances = (base, phase), [workload]
        tracer.dump(f"{stem}-spans.npz")
        print(f"spans: {len(tracer.start)} written to {stem.name}-spans.npz")
    else:
        instances, phase, setup_times, metrics = runner.run_untraced(cls, args.seed, args.seconds)
        _print_phase("run", phase)
        print("setup_s raw=" + ",".join(f"{r:.3f}" for r, _ in setup_times)
              + " scaled=" + ",".join(f"{s:.3f}" for _, s in setup_times))
        phases = (phase,)
        record["setup_raw_s"] = [r for r, _ in setup_times]
    for i, workload in enumerate(instances):
        for key, value in sorted({**workload.facts, **workload.notes}.items()):
            print(f"instance {i} {key}: {value:.4g}")
    result = {
        "correct": not any(p.wrong for p in phases),
        "attempted": sum(sum(p.attempted.values()) for p in phases),
        "failed": sum(sum(p.failed.values()) for p in phases),
        "metrics": metrics,
    }
    record.update(result)
    record.update(
        rounds=[p.rounds for p in phases],
        ref_ms_median=statistics.median(phases[-1].refs) * 1e3,
        facts=[w.facts for w in instances],
        notes=[w.notes for w in instances],
        problems=[line for p in phases for line in p.errors + p.wrong],
        raw_ms={k: [x * 1e3 for x in xs] for k, xs in phases[-1].raw.items()},
        scaled_ms={k: [x * 1e3 for x in xs] for k, xs in phases[-1].scaled.items()},
    )
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
