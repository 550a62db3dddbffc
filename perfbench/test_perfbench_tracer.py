"""The tracer on small versions of the four workloads."""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from refclock import quantile, tail_rank  # noqa: E402


class TinyReporter(workloads.ReporterGnp):
    n, m0, D = 16, 24, 4


class TinyApsp(workloads.ApspRing):
    n, D, chords = 24, 8, 3


class TinySpanner(workloads.SpannerAlgGnp):
    n, m0 = 24, 48


class TinySteiner(workloads.SteinerGrid):
    side, D, chords, t_min, t_max = 4, 3, 2, 2, 4


def dynsp_objects():
    """Every attribute of every dynsp module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "dynsp" or name.startswith("dynsp."):
            for key, value in vars(mod).items():
                seen[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("dynsp"):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


@pytest.mark.parametrize("cls", [TinyReporter, TinyApsp, TinySpanner, TinySteiner])
def test_traced_run(cls):
    before = dynsp_objects()
    workload, base, phase, tracer, metrics = runner.run_traced(cls, 5, 0.4)
    assert not base.wrong and not phase.wrong and not phase.failed
    assert phase.rounds == base.rounds >= 1

    nid, start, end, parent = tracer.arrays()
    assert len(start) > phase.op_count()
    has = parent >= 0
    assert (parent[has] < np.flatnonzero(has)).all()
    assert (start[has] >= start[parent[has]]).all()
    assert (end[has] <= end[parent[has]]).all()
    assert (end >= start).all()

    # the self times of each root span's tree add up to its duration,
    # and the root spans are the set-up and the timed operations
    root = np.arange(len(parent))
    for i in np.flatnonzero(has):
        root[i] = root[parent[i]]
    own = tracer.self_times()
    roots = np.flatnonzero(~has)
    sums = np.bincount(root, weights=own, minlength=len(parent))[roots]
    assert np.allclose(sums, (end - start)[roots], rtol=0, atol=1e-9)
    root_names = {tracer.names[nid[r]] for r in roots}
    assert root_names == {"setup"} | {f"op.{k}" for k in phase.attempted}
    ops = [r for r in roots if tracer.names[nid[r]] != "setup"]
    assert len(ops) == phase.op_count()
    traced_s = sum(sum(xs) for xs in phase.raw.values())
    assert sum(end[r] - start[r] for r in ops) >= 0.99 * traced_s

    totals = tracer.totals()
    assert totals["inverse.dinv_update"][0] > 0
    assert totals["kernels.mat_mul_mod"][0] > 0   # reached through names imported elsewhere
    assert metrics["trace.overhead_pct"]["unit"] == "%"
    assert all(math.isfinite(m["value"]) for m in metrics.values())

    after = dynsp_objects()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed


def test_layer_spans_per_workload():
    spans = {}
    for cls in (TinyApsp, TinySpanner, TinySteiner):
        *_, tracer, _ = runner.run_traced(cls, 2, 2.0)
        spans[cls.name] = {name for name, (calls, _) in tracer.totals().items() if calls}
    assert {"apsp.exact_update", "apsp.exact_dist", "apsp.exact_path", "inverse.query_rows"} <= spans["apsp-ring"]
    assert {"spanner_alg.alg_update", "spanner_alg.greedy_spanner", "graph.bfs_dist_bounded"} <= spans["spanner-alg-gnp"]
    assert {"steiner.edge_update", "steiner.terminal", "apsp.approx_dist", "graph.bfs_dist"} <= spans["steiner-grid"]


def test_untraced_run_reports_every_end_to_end_metric():
    _, phase, setups, metrics = runner.run_untraced(TinyReporter, 1, 0.2)
    assert len(setups) == TinyReporter.instances
    assert phase.attempted["update"] >= runner.MIN_UPDATES
    assert set(metrics) == {
        "setup_s", "update_ms_p50", "update_ms_p90", "dist_ms_p50", "path_ms_p50",
        "ops_per_s", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    _, _, _, metrics = runner.run_untraced(TinyReporter, 1, 0.1)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, m["unit"]) for name, m in metrics.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_tail_needs_ten_samples_beyond_it():
    assert tail_rank(100, 0.9) == 89
    assert tail_rank(99, 0.9) is None
    assert quantile(range(1, 101), 0.9) == 90
    assert quantile(range(1, 50), 0.9) is None
    assert quantile([3, 1, 2], 0.5) == 2


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in HERE.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reporter-gnp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
