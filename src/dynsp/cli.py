"""Command-line front end: generate scripts, run structures, verify, bench.

Subcommands:

    gen     write an update script (gadget constructions or random graphs)
    run     replay a script against one structure, emit answers as CSV;
            with --stats, also print the structure's stats() counters as
            one JSON line on stderr (every structure but bfs-oracle)
    verify  replay against the structure AND the BFS oracle, check every
            answer against the structure's certificate
    bench   timed replay with warmup; per-update/per-query percentiles,
            over the queries the structure answers

All three replay through graph.replay, so a path query to a structure
without path() calls nothing: run prints "none" for it, and verify and
bench skip it.

Every piece of randomness flows from the single --seed through
counter-based splitting, so identical invocations produce byte-identical
gen/run output.

Exit statuses:

    0  success (for verify: every checked answer passed)
    1  verify found a wrong answer
    2  usage error: bad arguments, a path that cannot be opened (a
       directory included), malformed input (a query or terminal vertex
       outside [0, n) included), an event the structure does not take (a
       terminal event for an edge-only one), or --stats without stats()
    3  the structure failed on a valid script: the Steiner terminals
       are disconnected (steiner.Disconnected), or a randomised
       witness search failed (reporter.NoWitnessFound,
       apsp.StitchFailure); one line on stderr names it

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
from typing import Callable, NamedTuple

from ._kernels import derive_seed
from .apsp import ApproxApsp, HittingSetApsp, StitchFailure
from .gadgets import (
    BfsProvider,
    GadgetScript,
    OuMvInstance,
    ParamDomain,
    gen_kcycle,
    gen_oumv_decremental,
    gen_oumv_fully,
    gen_oumv_incremental,
)
from .graph import (
    DeleteEdge,
    DistQuery,
    DynamicGraph,
    InsertEdge,
    PathQuery,
    PhaseMark,
    UpdateScript,
    apply_update,
    bfs_dist,
    graph_of,
    parse_script,
    replay,
    serialize_script,
    validate_path,
)
from .reporter import NoWitnessFound, PathReporter
from .spanner_alg import AlgSpannerState
from .spanner_comb import RebuildSpanner
from .steiner import Disconnected, SteinerState

CSV_HEADER = "dynsp-csv v1"
INF = math.inf


def _fmt(x) -> str:
    return "inf" if x == INF else str(int(x))


# ---- the structures --------------------------------------------------------
#
# Every structure answers apply(ev) and dist(u, v), which is inf when v is
# unreachable or past the structure's cap; those that report paths also
# answer path(u, v), which is None when dist is inf.  A certificate
# (eps, beta, exact_up_to) promises dist(u, v) >= d, and
# dist(u, v) <= (1 + eps) d + beta whenever d <= exact_up_to, for the
# true distance d.


class Structure(NamedTuple):
    make: Callable  # (initial graph, args) -> structure
    certificate: Callable  # structure -> (eps, beta, exact_up_to)
    extra: Callable = lambda st: ""  # structure -> the CSV "extra" column


def _exact(st):
    return 0, 0, INF


def _approx(apsp: ApproxApsp):
    return apsp.eps, apsp.spanner.beta_certificate, INF


def _spanner(st):
    return st.eps, st.beta_certificate, INF


def _hsize(st) -> str:
    return f"hsize={len(st.edges())}"


REGISTRY = {
    "exact-apsp": Structure(
        lambda g, a: HittingSetApsp(g, a.D, kappa=a.kappa, seed=a.seed), _exact
    ),
    "approx-apsp": Structure(
        lambda g, a: ApproxApsp(g, a.eps, seed=a.seed, D=a.D, kappa=a.kappa, spanner_k=a.k),
        _approx,
    ),
    "path-reporter": Structure(
        lambda g, a: PathReporter(g, a.D, kappa=a.kappa, seed=a.seed),
        lambda st: (0, 0, st.D),
    ),
    "spanner-comb": Structure(
        lambda g, a: RebuildSpanner(g, a.eps, a.seed, k=a.k), _spanner, _hsize
    ),
    "spanner-alg": Structure(
        lambda g, a: AlgSpannerState(g, a.eps, kappa=a.kappa, seed=a.seed, k=a.k, b=a.b),
        _spanner,
        _hsize,
    ),
    "steiner": Structure(
        lambda g, a: SteinerState(
            g,
            [],
            provider=ApproxApsp(
                g, a.eps / 2, seed=a.seed, D=a.D, kappa=a.kappa, spanner_k=a.k
            ),
        ),
        lambda st: _approx(st.provider),
        lambda st: f"weight={st.tree.weight}",
    ),
    "bfs-oracle": Structure(lambda g, a: BfsProvider(g), _exact),
}
STRUCTURES = tuple(REGISTRY)


def _certified(got, want, certificate) -> bool:
    eps, beta, exact_up_to = certificate
    return got >= want and (
        want == INF or want > exact_up_to or got <= (1 + eps) * want + beta
    )


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
        if args.graph is None:
            raise ParamDomain("gen kcycle needs --graph")
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
    if not lines:
        raise ValueError("graph file is missing its n header line")
    arcs = [tuple(map(int, line.split())) for line in lines[1:]]
    return graph_of(int(lines[0]), arcs, directed=True)


# ---- run / verify ----------------------------------------------------------


def _load(args) -> tuple[UpdateScript, object]:
    with open(args.script) as fh:
        script = parse_script(fh.read())
    return script, REGISTRY[args.structure].make(script.initial_graph(), args)


def _emit(rows: list[str], out: str | None) -> None:
    """The CSV rows as lines, to the file out or else to stdout."""
    text = "\n".join(rows) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    script, st = _load(args)
    if args.stats and not hasattr(st, "stats"):
        raise ParamDomain(f"--stats: structure {args.structure!r} keeps no counters")
    extra = REGISTRY[args.structure].extra
    rows = [CSV_HEADER, "index,kind,u,v,answer,extra"]
    for idx, ev, ans, _ in replay(st, script.events):
        if isinstance(ev, DistQuery):
            rows.append(f"{idx},dist,{ev.u},{ev.v},{_fmt(ans)},")
        elif isinstance(ev, PathQuery):
            path = "none" if ans is None else "-".join(map(str, ans))
            rows.append(f"{idx},path,{ev.u},{ev.v},{path},")
        elif isinstance(ev, PhaseMark):
            rows.append(f"{idx},phase,{ev.i},,,{extra(st)}")
        elif isinstance(ev, (InsertEdge, DeleteEdge)):
            rows.append(f"{idx},update,{ev.u},{ev.v},,{extra(st)}")
        else:
            rows.append(f"{idx},terminal,{ev.v},,,{extra(st)}")
    _emit(rows, args.out)
    if args.stats:
        print(json.dumps(st.stats(), sort_keys=True), file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    script, st = _load(args)
    certificate = REGISTRY[args.structure].certificate(st)
    oracle = script.initial_graph()
    checked = 0
    for idx, ev, ans, seconds in replay(st, script.events):
        if isinstance(ev, (InsertEdge, DeleteEdge)):
            apply_update(oracle, ev)
        if seconds is None or not isinstance(ev, (DistQuery, PathQuery)):
            continue  # only answered queries are checked
        want = bfs_dist(oracle, ev.u)[ev.v]
        got = ans if isinstance(ev, DistQuery) else INF if ans is None else len(ans) - 1
        if isinstance(ev, PathQuery) and ans is not None and (
            not validate_path(oracle, ans) or ans[0] != ev.u or ans[-1] != ev.v
        ):
            print(f"FAIL at event {idx}: invalid path {ans}")
            return 1
        if not _certified(got, want, certificate):
            what = f"dist({ev.u},{ev.v}) =" if isinstance(ev, DistQuery) else "path length"
            print(f"FAIL at event {idx}: {what} {_fmt(got)}, oracle {_fmt(want)}")
            return 1
        checked += 1
    print(f"PASS ({checked} queries checked)")
    return 0


def cmd_bench(args) -> int:
    def one_pass():
        script, st = _load(args)
        up, q = [], []
        for _, ev, _, seconds in replay(st, script.events):
            if seconds is not None:
                (q if isinstance(ev, (DistQuery, PathQuery)) else up).append(seconds)
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
    _emit(rows, args.out)
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
        if name == "run":
            sp.add_argument("--stats", action="store_true")
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
    except (ParamDomain, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Disconnected, NoWitnessFound, StitchFailure) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
