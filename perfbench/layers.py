"""Which dynsp functions the traced run wraps, and the per-layer metrics.

Every wrapped function is public API of its module (or a public method
of its class) and is wrapped from here, outside the package.  Counters
that are not span counts (resets, rows of N, hops, fallbacks, Gflop)
are read at the same boundaries through small hooks.
"""
from __future__ import annotations

import sys

from dynsp import _kernels, apsp, estree, graph, polymat, reporter, ring, spanner_alg, spanner_comb, steiner
from dynsp.inverse import InverseState

# (metric name, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("kernels.mat_mul_mod.calls", "count", "lower"),
    ("kernels.mat_mul_mod.self_s", "s", "lower"),
    ("kernels.mat_mul_mod.gflop", "Gflop", "lower"),
    ("kernels.poly_mat_mul.calls", "count", "lower"),
    ("kernels.poly_mat_mul.self_s", "s", "lower"),
    ("kernels.conv_trunc.calls", "count", "lower"),
    ("kernels.conv_trunc.self_s", "s", "lower"),
    ("kernels.mul_mod.self_s", "s", "lower"),
    ("ring.poly_inv.calls", "count", "lower"),
    ("ring.poly_inv.self_s", "s", "lower"),
    ("polymat.encode.self_s", "s", "lower"),
    ("inverse.dinv_update.calls", "count", "lower"),
    ("inverse.dinv_update.self_s", "s", "lower"),
    ("inverse.resets", "count", "lower"),
    ("inverse.nrows_max", "rows", "lower"),
    ("inverse.query_col.self_s", "s", "lower"),
    ("inverse.query_rows.self_s", "s", "lower"),
    ("reporter.pr_dist.self_s", "s", "lower"),
    ("reporter.pr_path.self_s", "s", "lower"),
    ("reporter.copy_values.calls", "count", "lower"),
    ("reporter.copy_values.self_s", "s", "lower"),
    ("reporter.copy_values_per_hop", "hops/call", "higher"),
    ("apsp.exact_update.self_s", "s", "lower"),
    ("apsp.exact_dist.self_s", "s", "lower"),
    ("apsp.exact_path.self_s", "s", "lower"),
    ("apsp.hitting_set_size", "vertices", "lower"),
    ("apsp.stitched_share", "ratio", "lower"),
    ("apsp.approx_dist.self_s", "s", "lower"),
    ("apsp.approx_path.self_s", "s", "lower"),
    ("apsp.spanner_fallbacks", "count", "lower"),
    ("spanner_comb.rebuilds", "count", "lower"),
    ("spanner_comb.rebuild.self_s", "s", "lower"),
    ("spanner_comb.rebuilds_per_update", "1/update", "lower"),
    ("estree.build.calls", "count", "lower"),
    ("estree.build.self_s", "s", "lower"),
    ("spanner_alg.alg_update.self_s", "s", "lower"),
    ("spanner_alg.greedy_spanner.self_s", "s", "lower"),
    ("spanner_alg.fallback_pairs", "count", "lower"),
    ("spanner_alg.reinits", "count", "lower"),
    ("spanner_alg.h_edges_mean", "edges", "lower"),
    ("steiner.edge_update.self_s", "s", "lower"),
    ("steiner.terminal.calls", "count", "lower"),
    ("steiner.terminal.self_s", "s", "lower"),
    ("steiner.weight_mean", "edges", "lower"),
    ("graph.bfs_dist.calls", "count", "lower"),
    ("graph.bfs_dist.self_s", "s", "lower"),
    ("graph.bfs_dist_bounded.calls", "count", "lower"),
    ("graph.bfs_dist_bounded.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _dynsp_modules():
    return [m for name, m in sys.modules.items() if name == "dynsp" or name.startswith("dynsp.")]


def install(tracer, counts: dict) -> None:
    """Wrap dynsp's public functions; hooks add to `counts` in place."""
    mods = _dynsp_modules()

    def add(key, amount=1):
        counts[key] = counts.get(key, 0) + amount

    def gflop(args, out, state):
        a, b = args[0], args[1]
        add("kernels.mat_mul_mod.gflop", 2e-9 * a.shape[0] * a.shape[1] * b.shape[1])

    def rows_before(args):
        self, i = args[0], args[1]
        counts["inverse.nrows_max"] = max(
            counts.get("inverse.nrows_max", 0), len(set(self.nrows) | {i})
        )

    def reset_seen(args, out, state):
        if args[0].updates_since_reset == 0:
            add("inverse.resets")

    def hops(args, out, state):
        add("reporter.path_hops", len(out) - 1)

    def dist_fallback(args, out, state):
        if out > args[0].D:
            add("apsp.spanner_fallbacks")

    def path_fallback(args, out, state):
        if len(out) - 1 > args[0].D:
            add("apsp.spanner_fallbacks")

    for attr in ("mat_mul_mod", "poly_mat_mul", "conv_trunc", "mul_mod"):
        tracer.wrap_function(
            _kernels, attr, f"kernels.{attr}", mods,
            post=gflop if attr == "mat_mul_mod" else None,
        )
    tracer.wrap_function(ring, "poly_inv", "ring.poly_inv", mods)
    tracer.wrap_function(polymat, "encode", "polymat.encode", mods)
    tracer.wrap_method(InverseState, "dinv_update", "inverse.dinv_update", pre=rows_before, post=reset_seen)
    tracer.wrap_method(InverseState, "query_col", "inverse.query_col")
    tracer.wrap_method(InverseState, "query_rows", "inverse.query_rows")
    tracer.wrap_method(reporter.PathReporter, "pr_dist", "reporter.pr_dist")
    tracer.wrap_method(reporter.PathReporter, "pr_path", "reporter.pr_path", post=hops)
    tracer.wrap_method(reporter.PathReporter, "copy_values", "reporter.copy_values")
    for attr in ("exact_update", "exact_dist", "exact_path"):
        tracer.wrap_method(apsp.HittingSetApsp, attr, f"apsp.{attr}")
    tracer.wrap_method(apsp.ApproxApsp, "approx_dist", "apsp.approx_dist", post=dist_fallback)
    tracer.wrap_method(apsp.ApproxApsp, "approx_path", "apsp.approx_path", post=path_fallback)
    tracer.wrap_function(spanner_comb, "sp_rebuild_update", "spanner_comb.rebuild", mods)
    tracer.wrap_method(estree.EsTree, "__init__", "estree.build")
    tracer.wrap_method(spanner_alg.AlgSpannerState, "alg_update", "spanner_alg.alg_update")
    tracer.wrap_function(spanner_alg, "greedy_spanner", "spanner_alg.greedy_spanner", mods)
    tracer.wrap_method(steiner.SteinerState, "steiner_edge_update", "steiner.edge_update")
    tracer.wrap_method(steiner.SteinerState, "steiner_add_terminal", "steiner.terminal")
    tracer.wrap_method(steiner.SteinerState, "steiner_remove_terminal", "steiner.terminal")
    tracer.wrap_function(graph, "bfs_dist", "graph.bfs_dist", mods)
    tracer.wrap_function(graph, "bfs_dist_bounded", "graph.bfs_dist_bounded", mods)


def per_layer_metrics(tracer, counts: dict, facts: dict, overhead_pct: float) -> dict:
    """Every per-layer metric; 0 where the layer did not run on this workload."""
    totals = tracer.totals()
    values = dict(counts)
    values.update(facts)
    for span, (calls, secs) in totals.items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = secs
    cv_calls = values.get("reporter.copy_values.calls", 0)
    if cv_calls:
        values["reporter.copy_values_per_hop"] = values.get("reporter.path_hops", 0) / cv_calls
    rebuilds = values.get("spanner_comb.rebuild.calls", 0)
    values["spanner_comb.rebuilds"] = rebuilds
    if facts.get("edge_updates"):
        values["spanner_comb.rebuilds_per_update"] = rebuilds / facts["edge_updates"]
    values["trace.overhead_pct"] = overhead_pct
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
