"""End-to-end acceptance runs for every structure in the package.

Each test drives one structure at fixed sizes and seeds and audits its
answers against independent oracles: breadth-first search, from-scratch
series inversion, fraction-free determinants, and exhaustive search.
Elapsed wall time is printed for information; only correctness is
asserted.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from test_inverse import oracle_det
from test_steiner import opt_steiner

from dynsp._kernels import min_degree_arr, poly_mat_mul, sub_mod
from dynsp.apsp import ApproxApsp, HittingSetApsp
from dynsp.estree import DECREMENTAL, INCREMENTAL
from dynsp.gadgets import (
    BfsProvider,
    OuMvInstance,
    SpannerBfsProvider,
    gen_kcycle,
    gen_oumv_decremental,
    gen_oumv_fully,
    gen_oumv_incremental,
    harness_run,
)
from dynsp.graph import (
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    apply_update,
    bfs_dist,
    validate_path,
)
from dynsp.inverse import InverseState
from dynsp.polymat import PolyMatrix, encode, series_inverse
from dynsp.reporter import BEYOND, NoWitnessFound, PathReporter
from dynsp.ring import FieldParams
from dynsp.spanner_alg import alg_init, alg_update
from dynsp.spanner_comb import sp_init
from dynsp.steiner import (
    Disconnected,
    SteinerState,
    steiner_add_terminal,
    steiner_edge_update,
    steiner_remove_terminal,
)

INF = math.inf
P61 = (1 << 61) - 1


# ---- shared helpers --------------------------------------------------------


def np_all_pairs_adj(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances from a boolean adjacency matrix."""
    n = adj.shape[0]
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    reach = np.eye(n, dtype=bool)
    frontier = reach.copy()
    d = 0
    while True:
        d += 1
        nxt = (frontier @ adj) & ~reach
        if not nxt.any():
            break
        dist[nxt] = d
        reach |= nxt
        frontier = nxt
    return dist


def graph_adj(g: DynamicGraph) -> np.ndarray:
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges():
        adj[u, v] = True
        if not g.directed:
            adj[v, u] = True
    return adj


def np_all_pairs(g: DynamicGraph) -> np.ndarray:
    return np_all_pairs_adj(graph_adj(g))


def edge_adj(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def path_graph(n):
    g = DynamicGraph(n)
    for v in range(n - 1):
        g.insert_edge(v, v + 1)
    return g


def cycle_graph(n):
    g = path_graph(n)
    g.insert_edge(0, n - 1)
    return g


def grid_graph(side):
    g = DynamicGraph(side * side)
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                g.insert_edge(v, v + 1)
            if r + 1 < side:
                g.insert_edge(v, v + side)
    return g


def gnp_graph(n, p, seed):
    rng = random.Random(seed)
    g = DynamicGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.insert_edge(u, v)
    return g


def mixed_events(g: DynamicGraph, rng: random.Random, count: int):
    """Random legal insert/delete stream for an undirected graph."""
    present = set(g.edges())
    for _ in range(count):
        if present and rng.random() < 0.5:
            e = rng.choice(sorted(present))
            present.discard(e)
            yield DeleteEdge(*e)
        else:
            while True:
                u, v = rng.sample(range(g.n), 2)
                e = (min(u, v), max(u, v))
                if e not in present:
                    break
            present.add(e)
            yield InsertEdge(*e)


# ---- dynamic inverse and distance encoding ---------------------------------

INVERSE_COMBOS = [(n, D) for n in (8, 16, 32) for D in (4, 8, 16)]


@pytest.fixture(scope="module")
def inverse_runs():
    """Shared update streams for the inverse and encoding audits.

    For each seed: 200 random legal entry updates on a directed
    instance.  After every update the maintained representation is
    checked against the inverse identity (which pins it to the unique
    series inverse); every tenth state is additionally compared with a
    from-scratch series inversion, and on the smallest instances the
    determinant is compared with a fraction-free elimination oracle.
    """
    bad = {"series": [], "det": [], "dist": []}
    t0 = time.time()
    for seed in range(10):
        n, D = INVERSE_COMBOS[seed % len(INVERSE_COMBOS)]
        rng = random.Random(seed)
        params = FieldParams(p=P61, rng_seed=seed)
        g = DynamicGraph(n, directed=True)
        A = encode(g, params, D)
        st = InverseState(A, kappa=0.529)
        ident = PolyMatrix.identity(P61, n, D).data
        adj = np.zeros((n, n), dtype=bool)
        present = set()
        for step in range(200):
            u, v = rng.sample(range(n), 2)
            if (u, v) in present:
                present.discard((u, v))
                adj[u, v] = False
            else:
                present.add((u, v))
                adj[u, v] = True
            st.update_edge(u, v, (u, v) in present)
            full = st.query_full()
            prod = poly_mat_mul(
                sub_mod(ident, A.matrix.data, P61), full, P61
            )
            if not np.array_equal(prod, ident):
                bad["series"].append((seed, step, "identity"))
            if step % 10 == 9 or step == 199:
                if not np.array_equal(full, series_inverse(A.matrix).data):
                    bad["series"].append((seed, step, "direct"))
            if n == 8 and st.det_poly() != oracle_det(A, D, P61):
                bad["det"].append((seed, step))
            md = min_degree_arr(full).astype(float)
            dist = np_all_pairs_adj(adj)
            sel = dist <= D
            if not np.array_equal(md[sel], dist[sel]):
                bad["dist"].append((seed, step))
    print(f"\ninverse runs: {time.time() - t0:.1f}s")
    return bad


def test_01_dynamic_inverse_is_exact_under_updates(inverse_runs):
    assert inverse_runs["series"] == []
    assert inverse_runs["det"] == []


def test_02_min_degrees_encode_bfs_distances(inverse_runs):
    assert inverse_runs["dist"] == []


# ---- path reporting --------------------------------------------------------


def test_03_reported_paths_are_valid_shortest_paths():
    t0 = time.time()
    n, D = 32, 8
    no_witness = []
    for seed in range(10):
        rng = random.Random(seed)
        g = gnp_graph(n, 0.08, seed)
        pr = PathReporter(g.copy(), D, kappa=0.529, seed=seed)
        for step, ev in enumerate(mixed_events(g.copy(), rng, 100)):
            apply_update(g, ev)
            pr.apply(ev)
            cache = {}
            for _ in range(50):
                i, j = rng.sample(range(n), 2)
                if i not in cache:
                    cache[i] = bfs_dist(g, i)
                truth = cache[i][j]
                d = pr.pr_dist(i, j)
                if d is BEYOND:
                    assert truth > D, (seed, step, i, j)
                    continue
                assert d == truth, (seed, step, i, j)
                if d == 0:
                    continue
                try:
                    p = pr.pr_path(i, j)
                except NoWitnessFound:
                    no_witness.append((seed, step, i, j))
                    continue
                assert p[0] == i and p[-1] == j
                assert len(p) - 1 == truth
                assert validate_path(g, p)
    assert no_witness == [], f"witness extraction failed at {no_witness}"
    print(f"\npath reporting: {time.time() - t0:.1f}s")


# ---- exact APSP ------------------------------------------------------------


@pytest.mark.parametrize(
    "name,maker",
    [
        ("path", lambda: path_graph(128)),
        ("cycle", lambda: cycle_graph(128)),
        ("grid", lambda: grid_graph(11)),
        ("gnp", lambda: gnp_graph(128, 0.05, 40)),
    ],
)
def test_04_exact_apsp_matches_bfs_everywhere(name, maker):
    t0 = time.time()
    g = maker()
    rng = random.Random(41)
    ap = HittingSetApsp(g.copy(), D=8, kappa=0.529, seed=42)
    for step, ev in enumerate(mixed_events(g.copy(), rng, 100)):
        apply_update(g, ev)
        ap.exact_update(ev)
        truth = np_all_pairs(g)
        mat = ap.exact_dist_matrix()
        assert np.array_equal(mat, truth), (name, step)
        for _ in range(5):
            i, j = rng.sample(range(g.n), 2)
            if truth[i, j] == INF:
                with pytest.raises(ValueError):
                    ap.exact_path(i, j)
                continue
            p = ap.exact_path(i, j)
            assert p[0] == i and p[-1] == j
            assert len(p) - 1 == truth[i, j]
            assert validate_path(g, p)
    print(f"\nexact apsp [{name}]: {time.time() - t0:.1f}s")


def test_04b_sampled_hitting_set_stitches_exact_distances_and_paths():
    """A hitting set smaller than V: every pair beyond D must be stitched."""
    t0 = time.time()
    n, D = 96, 32
    g = cycle_graph(n)
    rng = random.Random(43)
    ap = HittingSetApsp(g.copy(), D=D, kappa=0.529, seed=44)
    assert len(ap.H) == 55
    stitched = 0
    for step, ev in enumerate(mixed_events(g.copy(), rng, 6)):
        apply_update(g, ev)
        ap.exact_update(ev)
        truth = np_all_pairs(g)
        assert np.array_equal(ap.exact_dist_matrix(), truth), step
        far = [(int(i), int(j)) for i, j in np.argwhere((truth > D) & (truth < INF))]
        pairs = rng.sample(far, min(10, len(far)))
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(10)]
        for i, j in pairs:
            assert ap.exact_dist(i, j) == truth[i, j], (step, i, j)
            if truth[i, j] == INF:
                with pytest.raises(ValueError):
                    ap.exact_path(i, j)
                continue
            p = ap.exact_path(i, j)
            assert p[0] == i and p[-1] == j
            assert len(p) - 1 == truth[i, j]
            assert validate_path(g, p)
            stitched += truth[i, j] > D
    assert stitched >= 30  # the regime under test: pairs beyond D
    print(f"\nexact apsp [sampled H]: {time.time() - t0:.1f}s")


# ---- combinatorial spanner -------------------------------------------------


def _check_comb_state(st, g):
    for u, v in st.H:
        assert g.has_edge(u, v)
    dg = np_all_pairs(g)
    dh = np_all_pairs_adj(edge_adj(g.n, st.H))
    mask = np.isfinite(dg)
    assert (dh[mask] <= 2 * dg[mask] + 2 * math.ceil(8**3)).all()
    assert len(st.H) <= 8 * g.n**1.5 * math.log2(g.n) ** 2
    assert st.active == st.recompute_active_from_scratch()


def test_05_combinatorial_spanner_decremental_and_incremental():
    t0 = time.time()
    base = gnp_graph(256, 0.1, 50)
    rng = random.Random(51)
    doomed = rng.sample(sorted(base.edges()), 500)

    g = base.copy()
    st = sp_init(g, eps=1, seed=52, mode=DECREMENTAL, k=2)
    _check_comb_state(st, g)
    for e in doomed:
        st.sp_update(DeleteEdge(*e))
        _check_comb_state(st, g)

    g2 = base.copy()
    for e in doomed:
        g2.delete_edge(*e)
    st2 = sp_init(g2, eps=1, seed=53, mode=INCREMENTAL, k=2)
    _check_comb_state(st2, g2)
    for e in reversed(doomed):
        st2.sp_update(InsertEdge(*e))
        _check_comb_state(st2, g2)
    print(f"\ncombinatorial spanner: {time.time() - t0:.1f}s")


# ---- algebraic spanner -----------------------------------------------------


def test_06_algebraic_spanner_certificate_and_activeness():
    t0 = time.time()
    g = gnp_graph(128, 0.15, 60)
    rng = random.Random(61)
    st = alg_init(g, eps=1, kappa=0.5, seed=62, k=2, b=5)
    slack = float(1 + 20 * 3 * Fraction(1, 20 * 3))

    def check():
        for u, v in st.H:
            assert st.g.has_edge(u, v)
        dg = np_all_pairs(st.g)
        dh = np_all_pairs_adj(edge_adj(st.g.n, st.H))
        mask = np.isfinite(dg)
        assert (dh[mask] <= slack * dg[mask] + 5**3).all()
        assert st.active == st.brute_force_active()

    check()
    for ev in mixed_events(st.g.copy(), rng, 200):
        alg_update(st, ev)
        check()
    print(f"\nalgebraic spanner: {time.time() - t0:.1f}s")


# ---- approximate APSP ------------------------------------------------------


@pytest.mark.parametrize(
    "name,maker",
    [("long-path", lambda: path_graph(512)), ("grid", lambda: grid_graph(22))],
)
def test_07_approx_apsp_never_underestimates(name, maker):
    t0 = time.time()
    g = maker()
    rng = random.Random(70)
    aa = ApproxApsp(g.copy(), eps=1, seed=71, D=16, spanner_k=1)
    beta = aa.spanner.beta_certificate
    for ev in mixed_events(g.copy(), rng, 8):
        apply_update(g, ev)
        aa.apply(ev)
        cache = {}
        for q in range(40):
            i, j = rng.sample(range(g.n), 2)
            if i not in cache:
                cache[i] = bfs_dist(g, i)
            truth = cache[i][j]
            d = aa.approx_dist(i, j)
            assert d >= truth
            if truth == INF:
                continue
            assert d <= 2 * truth + beta
            if q < 10:
                p = aa.approx_path(i, j)
                assert p[0] == i and p[-1] == j
                assert validate_path(g, p)
                assert len(p) - 1 <= 2 * truth + beta
    print(f"\napprox apsp [{name}]: {time.time() - t0:.1f}s")


# ---- Steiner ---------------------------------------------------------------


def _check_steiner(st, g, eps=1):
    tree = st.tree
    for u, v in tree.edges:
        assert g.has_edge(u, v)
    assert set(st.S) <= set(tree.vertices)
    opt = opt_steiner(g, st.S)
    assert opt <= tree.weight <= (2 + eps) * opt


def test_08_steiner_weight_stays_near_optimal():
    t0 = time.time()
    for seed in range(50):
        rng = random.Random(100 + seed)
        n = 12
        g = gnp_graph(n, 0.3, 200 + seed)
        S = rng.sample(range(n), rng.randint(2, 4))
        try:
            st = SteinerState(g.copy(), S, eps=1, seed=seed)
        except Disconnected:
            assert opt_steiner(g, S) == INF
            continue
        _check_steiner(st, g)
        for ev in mixed_events(g.copy(), rng, 3):
            apply_update(g, ev)
            try:
                steiner_edge_update(st, ev)
            except Disconnected:
                assert opt_steiner(g, st.S) == INF
                continue
            _check_steiner(st, g)
        spare = [v for v in range(n) if v not in st.S]
        try:
            steiner_add_terminal(st, rng.choice(spare))
            _check_steiner(st, g)
        except Disconnected:
            assert opt_steiner(g, st.S) == INF
        if len(st.S) > 1:
            try:
                steiner_remove_terminal(st, rng.choice(sorted(st.S)))
                _check_steiner(st, g)
            except Disconnected:
                assert opt_steiner(g, st.S) == INF
    print(f"\nsteiner: {time.time() - t0:.1f}s")


# ---- gadget soundness ------------------------------------------------------


def test_09_gadget_replay_reproduces_expected_bits():
    t0 = time.time()
    rng = random.Random(90)
    for trial in range(50):
        n = rng.randint(2, 16)
        M = tuple(
            tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)
        )
        pairs = tuple(
            (
                tuple(rng.randint(0, 1) for _ in range(n)),
                tuple(rng.randint(0, 1) for _ in range(n)),
            )
            for _ in range(n)
        )
        inst = OuMvInstance(M, pairs)
        alpha = rng.choice([0, 0.25, 0.5])
        beta = rng.randint(0, 3)
        fully = gen_oumv_fully(inst, alpha, beta)
        c = fully.phase_thresholds[0] // 5
        report = harness_run(fully, BfsProvider)
        assert report.mismatches == []
        for ph in report.phases:
            if ph.expected == 1:
                assert ph.estimate == 3 * c, (trial, ph)
            else:
                assert ph.estimate >= 5 * c, (trial, ph)
        for gs in (
            gen_oumv_incremental(inst, rng.randint(0, 2)),
            gen_oumv_decremental(inst, rng.randint(0, 2)),
        ):
            report = harness_run(gs, BfsProvider)
            assert report.mismatches == [], (trial, gs.label)
    for trial in range(20):
        n = rng.randint(4, 12)
        g = DynamicGraph(n, directed=True)
        arcs = set()
        for _ in range(int(0.3 * n * (n - 1))):
            u, v = rng.sample(range(n), 2)
            if (u, v) not in arcs:
                arcs.add((u, v))
                g.insert_edge(u, v)
        mode = [
            {"kind": "fully", "c": rng.randint(1, 2)},
            {"kind": "incremental", "beta": rng.randint(0, 1)},
            {"kind": "decremental", "beta": rng.randint(0, 1)},
        ][trial % 3]
        for gs in gen_kcycle(g, 3, mode, seed=trial):
            report = harness_run(gs, BfsProvider)
            assert report.mismatches == [], (trial, gs.label)
    print(f"\ngadgets: {time.time() - t0:.1f}s")


# ---- end-to-end reduction demo ---------------------------------------------


def test_10_spanner_backed_harness_recovers_every_bit():
    t0 = time.time()
    from dynsp.spanner_comb import RebuildSpanner

    eps = 0.5
    beta = RebuildSpanner(DynamicGraph(4), eps, 0, k=0).beta_certificate
    for seed in range(5):
        rng = random.Random(110 + seed)
        n = 4
        M = tuple(
            tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)
        )
        pairs = tuple(
            (
                tuple(rng.randint(0, 1) for _ in range(n)),
                tuple(rng.randint(0, 1) for _ in range(n)),
            )
            for _ in range(n)
        )
        gs = gen_oumv_fully(OuMvInstance(M, pairs), 0.5, beta)
        report = harness_run(
            gs, lambda g: SpannerBfsProvider(g, eps, seed=seed, k=0)
        )
        assert report.mismatches == []
        assert report.bits == gs.expected_bits
    print(f"\nreduction demo: {time.time() - t0:.1f}s")
