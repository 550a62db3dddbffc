"""Command-line front end: generate scripts, run structures, verify, bench.

Subcommands:

    gen     write an update script (gadget constructions or random graphs)
    run     replay a script against one structure, emit answers as CSV
    verify  replay against the structure AND the BFS oracle, compare
    bench   timed replay with warmup; per-update/per-query percentiles

Every piece of randomness flows from the single --seed through
counter-based splitting, so identical invocations produce byte-identical
gen/run output.  Exit codes: 0 ok, 1 verification failure, 2 usage.

Distance answers are serialized as integers, with "inf" for
unreachable.  CSV outputs start with the versioned header line
"dynsp-csv v1".
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from ._kernels import derive_seed
from .apsp import ApproxApsp, HittingSetApsp
from .gadgets import (
    GadgetScript,
    OuMvInstance,
    ParamDomain,
    gen_kcycle,
    gen_oumv_decremental,
    gen_oumv_fully,
    gen_oumv_incremental,
)
from .graph import (
    AddTerminal,
    DeleteEdge,
    DistQuery,
    DynamicGraph,
    InsertEdge,
    PathQuery,
    PhaseMark,
    RemoveTerminal,
    UpdateScript,
    apply_update,
    bfs_dist,
    parse_script,
    serialize_script,
    validate_path,
)
from .reporter import BEYOND, PathReporter
from .spanner_alg import AlgSpannerState
from .spanner_comb import RebuildSpanner
from .steiner import SteinerState

CSV_HEADER = "dynsp-csv v1"
INF = math.inf

STRUCTURES = (
    "exact-apsp",
    "approx-apsp",
    "path-reporter",
    "spanner-comb",
    "spanner-alg",
    "steiner",
    "bfs-oracle",
)


def _fmt(x) -> str:
    return "inf" if x == INF else str(int(x))


# ---- structure adapters ----------------------------------------------------


class _Adapter:
    """Uniform face over the structures: apply / dist / path / extra row."""

    exact = False

    def apply(self, ev) -> None:
        raise NotImplementedError

    def dist(self, u, v) -> float:
        raise NotImplementedError

    def path(self, u, v):
        return None

    def extra(self) -> str:
        return ""


class _BfsAdapter(_Adapter):
    exact = True

    def __init__(self, g: DynamicGraph, args) -> None:
        self.g = g

    def apply(self, ev) -> None:
        apply_update(self.g, ev)

    def dist(self, u, v) -> float:
        return bfs_dist(self.g, u)[v]

    def path(self, u, v):
        d = bfs_dist(self.g, v)
        if d[u] == INF:
            return None
        path, cur = [u], u
        while cur != v:
            cur = min(w for w in self.g.adj[cur] if d[w] == d[cur] - 1)
            path.append(cur)
        return path


class _ExactApspAdapter(_Adapter):
    exact = True

    def __init__(self, g: DynamicGraph, args) -> None:
        self.st = HittingSetApsp(g, args.D, kappa=args.kappa, seed=args.seed)

    def apply(self, ev) -> None:
        self.st.exact_update(ev)

    def dist(self, u, v) -> float:
        return self.st.exact_dist(u, v)

    def path(self, u, v):
        if self.st.exact_dist(u, v) == INF:
            return None
        return self.st.exact_path(u, v)


class _ApproxApspAdapter(_Adapter):
    def __init__(self, g: DynamicGraph, args) -> None:
        self.st = ApproxApsp(
            g, args.eps, seed=args.seed, D=args.D, spanner_k=args.k
        )
        self.eps = args.eps
        self.beta = self.st.spanner.beta_certificate

    def apply(self, ev) -> None:
        self.st.apply(ev)

    def dist(self, u, v) -> float:
        return self.st.approx_dist(u, v)

    def path(self, u, v):
        if self.st.approx_dist(u, v) == INF:
            return None
        return self.st.approx_path(u, v)


class _ReporterAdapter(_Adapter):
    exact = True

    def __init__(self, g: DynamicGraph, args) -> None:
        self.st = PathReporter(g, args.D, kappa=args.kappa, seed=args.seed)
        self.D = args.D

    def apply(self, ev) -> None:
        self.st.apply(ev)

    def dist(self, u, v) -> float:
        d = self.st.pr_dist(u, v)
        return INF if d is BEYOND else float(d)

    def path(self, u, v):
        if self.st.pr_dist(u, v) is BEYOND:
            return None
        return self.st.pr_path(u, v)

    def exact_up_to(self) -> float:
        return self.D


class _SpannerAdapter(_Adapter):
    def __init__(self, g: DynamicGraph, args, algebraic: bool) -> None:
        if algebraic:
            self.alg = AlgSpannerState(
                g, args.eps, kappa=args.kappa, seed=args.seed, k=args.k, b=args.b
            )
            self.rebuild = None
            self.beta = self.alg.beta_certificate
        else:
            self.rebuild = RebuildSpanner(g, args.eps, args.seed, k=args.k)
            self.alg = None
            self.beta = self.rebuild.beta_certificate
        self.eps = args.eps

    def _h_graph(self) -> DynamicGraph:
        if self.alg is not None:
            n = self.alg.g.n
            edges = self.alg.H
        else:
            n = self.rebuild.g.n
            edges = self.rebuild.edges()
        h = DynamicGraph(n)
        for u, v in edges:
            h.insert_edge(u, v)
        return h

    def apply(self, ev) -> None:
        if self.alg is not None:
            self.alg.alg_update(ev)
        else:
            self.rebuild.apply(ev)

    def dist(self, u, v) -> float:
        return bfs_dist(self._h_graph(), u)[v]

    def extra(self) -> str:
        size = len(self.alg.H) if self.alg is not None else len(self.rebuild.edges())
        return f"hsize={size}"


class _SteinerAdapter(_Adapter):
    def __init__(self, g: DynamicGraph, args) -> None:
        self.st = SteinerState(g, [], eps=args.eps, seed=args.seed)

    def apply(self, ev) -> None:
        if isinstance(ev, AddTerminal):
            self.st.steiner_add_terminal(ev.v)
        elif isinstance(ev, RemoveTerminal):
            self.st.steiner_remove_terminal(ev.v)
        else:
            self.st.steiner_edge_update(ev)

    def dist(self, u, v) -> float:
        return self.st.provider.approx_dist(u, v)

    def extra(self) -> str:
        return f"weight={self.st.tree.weight}"


def build_structure(name: str, g: DynamicGraph, args) -> _Adapter:
    if name == "bfs-oracle":
        return _BfsAdapter(g, args)
    if name == "exact-apsp":
        return _ExactApspAdapter(g, args)
    if name == "approx-apsp":
        return _ApproxApspAdapter(g, args)
    if name == "path-reporter":
        return _ReporterAdapter(g, args)
    if name == "spanner-comb":
        return _SpannerAdapter(g, args, algebraic=False)
    if name == "spanner-alg":
        return _SpannerAdapter(g, args, algebraic=True)
    if name == "steiner":
        return _SteinerAdapter(g, args)
    raise ValueError(f"unknown structure {name!r}")


# ---- gen -------------------------------------------------------------------


def _random_script(n: int, p: float, updates: int, seed: int) -> UpdateScript:
    import numpy as np

    rng = np.random.default_rng(derive_seed(seed, 0xC1))
    g = DynamicGraph(n)
    initial = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.insert_edge(u, v)
                initial.append((u, v))
    events = []
    present = set(initial)
    for _ in range(updates):
        if present and rng.random() < 0.5:
            e = sorted(present)[int(rng.integers(len(present)))]
            present.discard(e)
            g.delete_edge(*e)
            events.append(DeleteEdge(*e))
        else:
            while True:
                u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
                if (u, v) not in present:
                    break
            present.add((u, v))
            g.insert_edge(u, v)
            events.append(InsertEdge(u, v))
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        events.append(DistQuery(u, v, bfs_dist(g, u)[v]))
        events.append(PathQuery(u, v))
    return UpdateScript(n=n, directed=False, initial_edges=initial, events=events)


def _random_matrix_instance(n: int, seed: int) -> OuMvInstance:
    import numpy as np

    rng = np.random.default_rng(derive_seed(seed, 0xC2))
    M = tuple(tuple(int(x) for x in rng.integers(0, 2, n)) for _ in range(n))
    pairs = tuple(
        (
            tuple(int(x) for x in rng.integers(0, 2, n)),
            tuple(int(x) for x in rng.integers(0, 2, n)),
        )
        for _ in range(n)
    )
    return OuMvInstance(M, pairs)


def _write_gadget(gs: GadgetScript, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_script(gs.script))
    meta = {
        "label": gs.label,
        "thresholds": gs.phase_thresholds,
        "expected_bits": gs.expected_bits,
        "query_pair": list(gs.query_pair),
        "restore_marks": gs.restore_marks,
    }
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_gen(args) -> int:
    if args.kind == "random":
        script = _random_script(args.n, args.p, args.updates, args.seed)
        script.validate()
        with open(args.out, "w") as fh:
            fh.write(serialize_script(script))
    elif args.kind.startswith("oumv-"):
        inst = _random_matrix_instance(args.n, args.seed)
        if args.kind == "oumv-fully":
            gs = gen_oumv_fully(inst, args.alpha, args.beta)
        elif args.kind == "oumv-incremental":
            gs = gen_oumv_incremental(inst, args.beta)
        else:
            gs = gen_oumv_decremental(inst, args.beta)
        gs.script.validate()
        _write_gadget(gs, args.out)
    elif args.kind == "kcycle":
        with open(args.graph) as fh:
            g = _parse_directed(fh.read())
        mode = {"kind": args.mode}
        if args.mode == "fully":
            mode["c"] = args.c
        else:
            mode["beta"] = args.beta
        for r, gs in enumerate(gen_kcycle(g, args.k, mode, seed=args.seed)):
            _write_gadget(gs, f"{args.out}.rep{r:03d}")
    else:
        raise ParamDomain(f"unknown kind {args.kind!r}")
    return 0


def _parse_directed(text: str) -> DynamicGraph:
    """Directed edge-list: first line 'n', then 'u v' per line."""
    lines = [l.split("#")[0].strip() for l in text.splitlines()]
    lines = [l for l in lines if l]
    g = DynamicGraph(int(lines[0]), directed=True)
    for line in lines[1:]:
        u, v = map(int, line.split())
        g.insert_edge(u, v)
    return g


# ---- run / verify ----------------------------------------------------------


def _load(args) -> tuple[UpdateScript, _Adapter]:
    with open(args.script) as fh:
        script = parse_script(fh.read())
    adapter = build_structure(args.structure, script.initial_graph(), args)
    return script, adapter


def cmd_run(args) -> int:
    script, st = _load(args)
    rows = [CSV_HEADER, "index,kind,u,v,answer,extra"]
    for idx, ev in enumerate(script.events):
        if isinstance(ev, DistQuery):
            rows.append(f"{idx},dist,{ev.u},{ev.v},{_fmt(st.dist(ev.u, ev.v))},")
        elif isinstance(ev, PathQuery):
            p = st.path(ev.u, ev.v)
            ans = "none" if p is None else "-".join(map(str, p))
            rows.append(f"{idx},path,{ev.u},{ev.v},{ans},")
        elif isinstance(ev, PhaseMark):
            rows.append(f"{idx},phase,{ev.i},,,{st.extra()}")
        else:
            st.apply(ev)
            if isinstance(ev, (InsertEdge, DeleteEdge)):
                rows.append(f"{idx},update,{ev.u},{ev.v},,{st.extra()}")
            else:
                rows.append(f"{idx},terminal,{ev.v},,,{st.extra()}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    script, st = _load(args)
    oracle = script.initial_graph()
    eps = getattr(st, "eps", None)
    beta = getattr(st, "beta", 0)
    exact_cap = st.exact_up_to() if hasattr(st, "exact_up_to") else INF
    checked = 0
    for idx, ev in enumerate(script.events):
        if isinstance(ev, DistQuery):
            got = st.dist(ev.u, ev.v)
            want = bfs_dist(oracle, ev.u)[ev.v]
            if st.exact:
                if want > exact_cap:  # bounded structures may answer beyond-D
                    ok = got >= want
                else:
                    ok = got == want
            else:
                ok = got >= want and (
                    want == INF or got <= (1 + eps) * want + beta
                )
            if not ok:
                print(
                    f"FAIL at event {idx}: dist({ev.u},{ev.v}) = {_fmt(got)}, "
                    f"oracle {_fmt(want)}"
                )
                return 1
            checked += 1
        elif isinstance(ev, PathQuery):
            p = st.path(ev.u, ev.v)
            want = bfs_dist(oracle, ev.u)[ev.v]
            if p is not None:
                if not validate_path(oracle, p) or p[0] != ev.u or p[-1] != ev.v:
                    print(f"FAIL at event {idx}: invalid path {p}")
                    return 1
                if st.exact and want <= exact_cap and len(p) - 1 != want:
                    print(
                        f"FAIL at event {idx}: path length {len(p) - 1}, "
                        f"oracle {_fmt(want)}"
                    )
                    return 1
            checked += 1
        elif isinstance(ev, PhaseMark):
            pass
        else:
            st.apply(ev)
            if isinstance(ev, (InsertEdge, DeleteEdge)):
                apply_update(oracle, ev)
    print(f"PASS ({checked} queries checked)")
    return 0


def cmd_bench(args) -> int:
    with open(args.script) as fh:
        script = parse_script(fh.read())

    def one_pass():
        st = build_structure(args.structure, script.initial_graph(), args)
        up, q = [], []
        for ev in script.events:
            t0 = time.perf_counter()
            if isinstance(ev, DistQuery):
                st.dist(ev.u, ev.v)
                q.append(time.perf_counter() - t0)
            elif isinstance(ev, PathQuery):
                st.path(ev.u, ev.v)
                q.append(time.perf_counter() - t0)
            elif isinstance(ev, PhaseMark):
                pass
            else:
                st.apply(ev)
                up.append(time.perf_counter() - t0)
        return up, q

    one_pass()  # warmup
    up, q = one_pass()

    def pct(xs, f):
        if not xs:
            return 0.0
        xs = sorted(xs)
        return xs[min(len(xs) - 1, int(f * len(xs)))]

    rows = [CSV_HEADER, "metric,count,median_s,p90_s,p99_s"]
    for name, xs in (("update", up), ("query", q)):
        med = statistics.median(xs) if xs else 0.0
        rows.append(
            f"{name},{len(xs)},{med:.6g},{pct(xs, 0.9):.6g},{pct(xs, 0.99):.6g}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---- argument parsing ------------------------------------------------------


def _add_structure_args(sp) -> None:
    sp.add_argument("--structure", required=True, choices=STRUCTURES)
    sp.add_argument("--script", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--D", type=int, default=8)
    sp.add_argument("--kappa", type=float, default=0.529)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dynsp", description="dynamic shortest-paths toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an update script")
    g.add_argument(
        "kind",
        choices=["random", "oumv-fully", "oumv-incremental", "oumv-decremental", "kcycle"],
    )
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--p", type=float, default=0.2)
    g.add_argument("--updates", type=int, default=50)
    g.add_argument("--alpha", type=float, default=0.0)
    g.add_argument("--beta", type=int, default=0)
    g.add_argument("--c", type=int, default=1)
    g.add_argument("--k", type=int, default=3)
    g.add_argument("--mode", choices=["fully", "incremental", "decremental"], default="fully")
    g.add_argument("--graph", default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    for name, fn in (("run", cmd_run), ("verify", cmd_verify), ("bench", cmd_bench)):
        sp = sub.add_parser(name)
        _add_structure_args(sp)
        sp.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "D", 1) < 1:
        print(f"error: --D must be at least 1, got {args.D}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ParamDomain, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
