"""Combinatorial spanner: subgraph, stretch, and block-state maintenance."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dynsp import spanner_comb
from dynsp._kernels import derive_seed
from dynsp.estree import DECREMENTAL, INCREMENTAL, EsTree, ModeViolation
from dynsp.graph import (
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    all_pairs_dist,
    bfs_dist_bounded,
    graph_of,
)
from dynsp.spanner_comb import (
    RebuildSpanner,
    SpannerState,
    beta_certificate,
    blocked_vertices,
    default_k,
    level_tables,
    resolve_k,
    sample_levels,
    sp_rebuild_update,
)
from dynsp.spanner_alg import AlgSpannerState


def random_graph(n, m, seed):
    rng = random.Random(seed)
    g = DynamicGraph(n)
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            g.insert_edge(*e)
    return g, rng


def bfs_active(g, levels, floors) -> list[bool]:
    """The activeness predicate from one bounded BFS per vertex above
    level 0 (the reference for blocked_vertices, which both spanners use).

    floors[j][i] is the floor of the threshold between a level-j blocker
    and a level-i blockee.
    """
    active = [True] * g.n
    for a in range(g.n):
        j = levels[a]
        if j == 0:
            continue
        for x, dx in bfs_dist_bounded(g, [a], max(floors[j][:j])).items():
            i = levels[x]
            if i < j and dx <= floors[j][i]:
                active[x] = False
    return active


def brute_force_active(g, levels, floors) -> list[bool]:
    """The activeness predicate evaluated directly on all-pairs distances."""
    dist = all_pairs_dist(g)
    return [
        not any(
            levels[a] > levels[x] and dist[a][x] <= floors[levels[a]][levels[x]]
            for a in range(g.n)
        )
        for x in range(g.n)
    ]


def spanner_bfs_active(st: SpannerState) -> dict[int, bool]:
    """bfs_active for a SpannerState, keyed by vertex as its activeness is."""
    return dict(enumerate(bfs_active(st.g, st.level, st._floors)))


def estree_rebuild(g, eps, seed, k=None, activeness=None) -> tuple[set, int]:
    """The static construction as SpannerState once ran it in a rebuild
    mode (the reference for sp_rebuild_update): one EsTree per active
    vertex, its blocks recorded from the ball and checked against the
    predicate, and H the union of the trees' edges.  Returns H and the
    number of balls.

    The tables are derived here from the exact thresholds.
    activeness(g, levels, floors) -> list[bool] decides the active
    vertices; by default the activeness pass does.
    """
    k = default_k(g.n) if k is None else k
    inv_pow = [(Fraction(eps) / 8) ** -(i + 1) for i in range(k + 1)]
    radii = [min(g.n, math.ceil(x)) for x in inv_pow]
    floors = [[math.floor(x - y) for y in inv_pow] for x in inv_pow]
    levels = sample_levels(g.n, k, derive_seed(seed, 0x5E))
    if activeness is None:
        blocked = blocked_vertices(g, levels, floors)
        active = [v not in blocked for v in range(g.n)]
    else:
        active = activeness(g, levels, floors)
    blocks_of = [set() for _ in range(g.n)]
    H, balls = set(), 0
    for a in range(g.n):
        if not active[a]:
            continue
        tree = EsTree(g, a, radii[levels[a]], DECREMENTAL)
        j = levels[a]
        for x, dx in tree.level.items():
            if levels[x] < j and dx <= floors[j][levels[x]]:
                blocks_of[x].add(a)
        H |= tree.tree_edges()
        balls += 1
    assert all(active[v] == (not blocks_of[v]) for v in range(g.n)), "block invariant"
    return H, balls


def check_state(st: SpannerState):
    g = st.g
    for u, v in st.H:
        assert g.has_edge(u, v)
    h = DynamicGraph(g.n)
    for u, v in st.H:
        h.insert_edge(u, v)
    dg = all_pairs_dist(g)
    dh = all_pairs_dist(h)
    for i in range(g.n):
        for j in range(g.n):
            if dg[i][j] < math.inf:
                assert dh[i][j] <= (1 + st.eps) * dg[i][j] + st.beta_certificate
    assert st.active == spanner_bfs_active(st) == st.recompute_active_from_scratch()


def test_decremental_maintenance_matches_scratch():
    g, rng = random_graph(40, 90, seed=1)
    st = SpannerState(g, eps=1, seed=2, mode=DECREMENTAL, k=2)
    check_state(st)
    edges = sorted(g.edges())
    rng.shuffle(edges)
    for step, e in enumerate(edges[:40]):
        delta = st.sp_update(DeleteEdge(*e))
        assert delta["added"].isdisjoint(delta["removed"])
        if step % 5 == 4:
            check_state(st)


def test_incremental_maintenance_matches_scratch():
    g = DynamicGraph(36)
    rng = random.Random(3)
    st = SpannerState(g, eps=1, seed=4, mode=INCREMENTAL, k=2)
    present = set()
    for step in range(60):
        while True:
            u, v = rng.sample(range(36), 2)
            e = (min(u, v), max(u, v))
            if e not in present:
                break
        present.add(e)
        st.sp_update(InsertEdge(*e))
        if step % 8 == 7:
            check_state(st)


def test_mode_violations():
    g, _ = random_graph(10, 15, seed=5)
    dec = SpannerState(g.copy(), eps=1, seed=0, mode=DECREMENTAL, k=1)
    with pytest.raises(ModeViolation):
        dec.sp_update(InsertEdge(0, 9))
    with pytest.raises(ValueError, match="unknown mode"):
        SpannerState(g.copy(), eps=1, seed=0, mode="rebuild", k=1)


def test_parameter_domains():
    g = DynamicGraph(4)
    with pytest.raises(ValueError):
        SpannerState(g, eps=0, seed=0, mode=DECREMENTAL)
    with pytest.raises(ValueError):
        SpannerState(g, eps=2, seed=0, mode=DECREMENTAL)
    with pytest.raises(ValueError):
        SpannerState(DynamicGraph(4, directed=True), eps=1, seed=0, mode=DECREMENTAL)
    for eps in (0, -1, 2):  # beta is read without a construction, and still checks eps
        with pytest.raises(ValueError):
            RebuildSpanner(g, eps, seed=0).beta_certificate


@pytest.mark.parametrize("k", [-1, -2])
def test_negative_levels_are_rejected_before_any_construction(k):
    g = DynamicGraph(10)
    g.insert_edge(0, 1)
    message = f"need k >= 0, got k = {k}"
    with pytest.raises(ValueError, match=message):
        RebuildSpanner(g, 1, seed=0, k=k)
    with pytest.raises(ValueError, match=message):
        level_tables(g, 1, seed=0, k=k)
    with pytest.raises(ValueError, match=message):
        sp_rebuild_update(g, 1, seed=0, k=k)
    for mode in (DECREMENTAL, INCREMENTAL):
        with pytest.raises(ValueError, match=message):
            SpannerState(g.copy(), eps=1, seed=0, mode=mode, k=k)


def test_level_zero_alone_keeps_every_distance_within_its_radius():
    g, _ = random_graph(20, 30, seed=4)
    k, beta, level, radii, _ = level_tables(g, 1, seed=0, k=0)
    assert (k, beta, radii) == (0, 16, [8]) and set(level) == {0}
    H = graph_of(g.n, sp_rebuild_update(g, 1, seed=0, k=0)[0])
    dg, dh = all_pairs_dist(g), all_pairs_dist(H)
    assert all(dh[x][y] == dg[x][y] for x in range(20) for y in range(20) if dg[x][y] <= 8)


def test_thresholds_are_exact_rationals():
    # eps = 1, so eps' = 1/8 and threshold(j, i) = 8^(j+1) - 8^(i+1)
    k, beta, _, radii, floors = level_tables(DynamicGraph(8), 1, seed=1, k=2)
    assert k == 2 and beta == 2 * 8**3
    assert floors == [[0, -56, -504], [56, 0, -448], [504, 448, 0]]
    assert radii == [8, 8, 8]  # capped at n
    st = SpannerState(DynamicGraph(8), eps=1, seed=1, mode=DECREMENTAL, k=2)
    assert (st.beta_certificate, st._radii, st._floors) == (beta, radii, floors)


@pytest.mark.parametrize("eps", [1, Fraction(1, 2), Fraction(3, 4), 0.3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_threshold_floors_agree_with_the_exact_thresholds(eps, k):
    _, _, _, radii, floors = level_tables(DynamicGraph(16), eps, seed=1, k=k)
    eps_prime = Fraction(eps) / 8
    for j in range(k + 1):
        for i in range(k + 1):
            thr = eps_prime ** -(j + 1) - eps_prime ** -(i + 1)
            floor = floors[j][i]
            ds = set(range(radii[j] + 3)) | set(range(floor - 1, floor + 3))
            for d in ds:
                assert (d <= floor) == (Fraction(d) <= thr), (j, i, d)


def fresh_level_tables(g, eps, seed, k=None):
    """level_tables as it computed everything on every call (the reference)."""
    beta = beta_certificate(g.n, eps, k)
    if g.directed:
        raise ValueError("spanners are defined for undirected graphs")
    k = resolve_k(g.n, k)
    inv_pow = [(Fraction(eps) / 8) ** -(i + 1) for i in range(k + 1)]
    radii = [min(g.n, math.ceil(x)) for x in inv_pow]
    floors = [[math.floor(x - y) for y in inv_pow] for x in inv_pow]
    return k, beta, sample_levels(g.n, k, derive_seed(seed, 0x5E)), radii, floors


@pytest.mark.parametrize("n", [1, 2, 5, 9, 64, 300])
@pytest.mark.parametrize("eps", [1, Fraction(1, 2), Fraction(1, 4), 0.3])
@pytest.mark.parametrize("k", [None, 0, 1, 3])
def test_level_tables_equal_a_fresh_computation(n, eps, k):
    g = DynamicGraph(n)
    for seed in (0, 1, 0):  # the repeat reads the seed-free part back
        got = level_tables(g, eps, seed, k)
        assert got == fresh_level_tables(g, eps, seed, k)
        _, _, _, radii, floors = got
        radii.append(-1)  # each call owns its lists
        floors[0].append(-1)
    assert level_tables(g, eps, 1, k) == fresh_level_tables(g, eps, 1, k)


@pytest.mark.parametrize(
    "eps, k, directed",
    [(0, -1, True), (2, -1, True), (1, -1, True), (1, None, True), (0.5, 0, True), (1, -1, False)],
)
def test_level_tables_check_eps_then_k_then_the_graph(eps, k, directed):
    g = DynamicGraph(6, directed=directed)
    with pytest.raises(ValueError) as want:
        fresh_level_tables(g, eps, 0, k)
    for _ in range(2):  # a failed check is not cached
        with pytest.raises(ValueError) as got:
            level_tables(g, eps, 0, k)
        assert str(got.value) == str(want.value)


def test_graphs_of_different_sizes_never_share_tables():
    # at eps = 1 the radii are capped at n, and the default k grows with n
    sizes = [3, 4, 5, 3, 64, 4, 1000, 5]
    for eps in (1, 1.0, Fraction(1)):
        for n in sizes:
            for k in (None, 2, None):
                g = DynamicGraph(n)
                assert level_tables(g, eps, 7, k) == fresh_level_tables(g, eps, 7, k), (n, k)
    assert level_tables(DynamicGraph(4), 1, 7, 1)[3] == [4, 4]
    assert level_tables(DynamicGraph(5), 1, 7, 1)[3] == [5, 5]


def test_rebuild_provider_is_lazy_but_faithful():
    g, rng = random_graph(24, 50, seed=6)
    lazy = RebuildSpanner(g.copy(), 1, seed=7, k=2)
    counter = balls = 0
    edges = sorted(g.edges())
    rng.shuffle(edges)
    for e in edges[:10]:
        lazy.apply(DeleteEdge(*e))
        g.delete_edge(*e)
        counter += 1
        seed = derive_seed(lazy.seed, counter)
        eager, trees = sp_rebuild_update(g.copy(), 1, seed, k=2)
        H, active_balls = estree_rebuild(g, 1, seed, k=2)
        assert lazy.edges() == eager == H and trees == active_balls
        balls += active_balls
    assert lazy.stats() == {"updates": 10, "rebuilds": 10, "trees": balls}


@pytest.mark.parametrize("n", [1, 24, 300])
@pytest.mark.parametrize("eps", [1, 0.3])
@pytest.mark.parametrize("k", [None, 2])
def test_reading_beta_runs_no_construction(n, eps, k):
    sp = RebuildSpanner(DynamicGraph(n), eps, seed=3, k=k)
    beta = sp.beta_certificate
    assert sp.stats()["rebuilds"] == 0
    # the value a construction on the same (n, eps, k) certifies
    assert beta == SpannerState(DynamicGraph(n), eps, 3, DECREMENTAL, k=k).beta_certificate
    sp.edges()
    assert sp.stats()["rebuilds"] == 1 and sp.beta_certificate == beta


def test_tree_input_never_underestimates():
    g = DynamicGraph(15)
    for v in range(1, 15):
        g.insert_edge(v, (v - 1) // 2)  # binary tree
    st = SpannerState(g, eps=1, seed=8, mode=DECREMENTAL, k=1)
    h = DynamicGraph(15)
    for u, v in st.H:
        h.insert_edge(u, v)
    dg = all_pairs_dist(g)
    dh = all_pairs_dist(h)
    for i in range(15):
        for j in range(15):
            assert dh[i][j] >= dg[i][j]


def _nested_levels(n, k, seed):
    """The level sampler as each spanner had its own copy (the reference)."""
    rng = np.random.default_rng(seed)
    level = [0] * n
    prev_prob = 1.0
    alive = list(range(n))
    for i in range(1, k + 1):
        prob = min(1.0, n ** (-i / k) * math.log(n)) if n > 1 else 1.0
        keep_p = prob / prev_prob if prev_prob > 0 else 0.0
        coins = rng.random(len(alive))
        alive = [v for v, c in zip(alive, coins) if c < keep_p]
        for v in alive:
            level[v] = i
        prev_prob = prob
    return level


@pytest.mark.parametrize("n", [1, 2, 9, 40, 128])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_shared_level_sampler_matches_the_per_spanner_copies(n, k):
    for seed in (0, 1, 7, 2**40 + 3):
        assert sample_levels(n, k, seed) == _nested_levels(n, k, seed)
    g, _ = random_graph(max(n, 2), min(max(n, 2) - 1, 30), seed=n + k)
    _, _, comb_level, _, _ = level_tables(g, 1, seed=5, k=k)
    assert comb_level == _nested_levels(g.n, k, derive_seed(5, 0x5E))
    alg = AlgSpannerState(g.copy(), 1, kappa=0.5, seed=5, k=k, b=3)
    assert alg.level == _nested_levels(g.n, k, derive_seed(5, 0x6A, 0))


def test_rebuild_spanner_distances_are_bfs_on_its_edges():
    g, rng = random_graph(20, 40, seed=10)
    sp = RebuildSpanner(g, 1, seed=11, k=1)
    for e in sorted(g.edges())[:5]:
        sp.apply(DeleteEdge(*e))
        h = all_pairs_dist(sp.subgraph())
        assert sorted(sp.subgraph().edges()) == sorted(sp.edges())
        for _ in range(10):
            u, v = rng.sample(range(20), 2)
            assert sp.dist(u, v) == h[u][v]


# ---- the BFS-tree construction against the EsTree-based one -------------------


def with_chords(n, edges, chords, seed):
    """The graph on [0, n) with the given edges and that many random chords."""
    rng = random.Random(seed)
    edges = set(edges)
    target = len(edges) + chords
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return graph_of(n, edges), rng


def grid_with_chords(side, chords, seed):
    edges = {(v, v + 1) for v in range(side * side) if (v + 1) % side}
    edges |= {(v, v + side) for v in range(side * (side - 1))}
    return with_chords(side * side, edges, chords, seed)


FAMILIES = {
    # the steiner-grid benchmark's spanner shape
    "grid": lambda seed: grid_with_chords(8, 6, seed),
    # longer than the level-1 floor (56) and the level-0 radius (8) at
    # eps = 1, so some blocks and balls stop short of a component
    "path": lambda seed: with_chords(240, {(v, v + 1) for v in range(239)}, 2, seed),
    "gnp": lambda seed: random_graph(48, 110, seed),
}


def mixed_stream(g, rng, steps):
    """Alternately delete a present edge and insert an absent one, in place."""
    for step in range(steps):
        if step % 2 == 0 and g.edge_count:
            g.delete_edge(*rng.choice(sorted(g.edges())))
        else:
            while g.has_edge(*(e := rng.sample(range(g.n), 2))):
                pass
            g.insert_edge(*e)
        yield step


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 2), 1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_bfs_trees_equal_the_estree_construction_after_every_update(family, eps, k):
    g, rng = FAMILIES[family](k)
    most_balls = 0
    for step in mixed_stream(g, rng, 16):
        seed = derive_seed(k, step)
        H, trees = sp_rebuild_update(g, eps, seed, k=k)
        assert (H, trees) == estree_rebuild(g, eps, seed, k=k), step
        most_balls = max(most_balls, trees)
    if (family, eps, k) == ("grid", Fraction(1, 4), 3):
        assert most_balls >= 3


def test_the_static_construction_builds_no_es_tree(monkeypatch):
    def no_tree(*args):
        raise AssertionError("an EsTree was built")

    g, rng = grid_with_chords(8, 6, seed=3)
    want = estree_rebuild(g, Fraction(1, 4), seed=5, k=3)
    monkeypatch.setattr(spanner_comb, "EsTree", no_tree)
    assert sp_rebuild_update(g, Fraction(1, 4), seed=5, k=3) == want
    sp = RebuildSpanner(g.copy(), Fraction(1, 4), seed=5, k=3)
    sp.apply(DeleteEdge(*sorted(g.edges())[0]))
    assert sp.edges() and sp.stats()["trees"] > 0
    with pytest.raises(AssertionError, match="EsTree"):  # the patch does bite
        SpannerState(g, Fraction(1, 4), seed=5, mode=DECREMENTAL, k=3)


# ---- the activeness pass against one BFS per vertex ----------------------------


@hst.composite
def leveled_graphs(draw):
    """(graph, k, eps, levels): sparse enough to be disconnected often,
    with levels drawn freely, so some levels hold no vertex."""
    n = draw(hst.integers(1, 18))
    k = draw(hst.sampled_from([1, 2, 3]))
    eps = draw(hst.sampled_from([1, Fraction(1, 2), Fraction(1, 4)]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(hst.lists(hst.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    levels = draw(hst.lists(hst.integers(0, k), min_size=n, max_size=n))
    # floors below the graph's diameter, non-increasing in the blockee
    # level as the real ones are: the real floors (>= 56) exceed every
    # distance in a graph this small
    floors = [
        sorted(draw(hst.lists(hst.integers(0, n), min_size=k + 1, max_size=k + 1)), reverse=True)
        for _ in range(k + 1)
    ]
    return graph_of(n, edges), k, eps, levels, floors


@given(case=leveled_graphs(), seed=hst.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
@example(case=(graph_of(1, []), 1, 1, [1], [[0, 0], [1, 0]]), seed=0)
@example(
    case=(
        graph_of(6, [(0, 1), (2, 3)]), 3, Fraction(1, 4), [0, 3, 0, 3, 1, 0],
        [[0] * 4, [1] * 4, [2] * 4, [3, 1, 1, 0]],
    ),
    seed=1,
)
def test_budgeted_activeness_equals_one_bfs_per_vertex(case, seed):
    g, k, eps, levels, floors = case
    st = SpannerState(g, eps=eps, seed=seed, mode=DECREMENTAL, k=k)
    assert st.active == spanner_bfs_active(st) == st.recompute_active_from_scratch()
    st.level = levels
    assert st.recompute_active_from_scratch() == spanner_bfs_active(st)
    st._floors = floors
    assert st.recompute_active_from_scratch() == spanner_bfs_active(st)
    assert bfs_active(g, levels, floors) == brute_force_active(g, levels, floors)


def test_budgeted_activeness_on_a_path_stops_at_the_floor():
    # eps = 1, k = 1: floors[1][0] = 64 - 8 = 56, so on an 80-path the
    # level-1 end blocks exactly vertices 1..56
    path = graph_of(80, [(v, v + 1) for v in range(79)])
    st = SpannerState(path, eps=1, seed=0, mode=DECREMENTAL, k=1)
    st.level = [1] + [0] * 79
    active = st.recompute_active_from_scratch()
    assert [v for v in range(80) if not active[v]] == list(range(1, 57))
    assert active == spanner_bfs_active(st)


def blocked_from_every_level(g, levels, floors) -> set[int]:
    """blocked_vertices with a pass from every level above 0, also those
    at or below the lowest level, which can block nobody (the reference
    for skipping them)."""
    blocked = set()
    for j in range(1, max(levels, default=0) + 1):
        sources = [a for a in range(g.n) if levels[a] == j]
        reach = bfs_dist_bounded(g, sources, max(floors[j][:j]))
        blocked.update(x for x, d in reach.items() if levels[x] < j and d <= floors[j][levels[x]])
    return blocked


@given(case=leveled_graphs(), data=hst.data())
@settings(max_examples=150, deadline=None)
def test_blocked_vertices_skips_the_levels_that_can_block_nobody(case, data):
    g, k, _eps, levels, floors = case
    lowest = data.draw(hst.integers(0, k))  # raise the lowest level, as on steiner-grid
    levels = [max(lowest, level) for level in levels]
    passes = []

    def recording(g, sources, radius):
        passes.append(list(sources))
        return bfs_dist_bounded(g, sources, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spanner_comb, "bfs_dist_bounded", recording)
        blocked = blocked_vertices(g, levels, floors)
    assert blocked == blocked_from_every_level(g, levels, floors)
    # one pass per level above the lowest, none from the lowest or below
    assert len(passes) == max(levels) - min(levels)
    assert all(levels[a] > min(levels) for sources in passes for a in sources)


@given(
    n=hst.integers(2, 80),
    chords=hst.integers(0, 10),
    k=hst.integers(1, 3),
    mode=hst.sampled_from([DECREMENTAL, INCREMENTAL]),
    updates=hst.integers(1, 15),
    seed=hst.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
# deleting (6, 7) cuts 7 (level 2) and 8 (level 1) off every level-3
# vertex; 7 turns active and blocks 8, which must stay inactive
@example(n=9, chords=0, k=3, mode=DECREMENTAL, updates=1, seed=0)
def test_maintained_activeness_equals_the_per_vertex_oracles_after_every_update(
    n, chords, k, mode, updates, seed
):
    # a path with a few chords: longer than the level-1 floor of 56 at
    # eps = 1 when n is large, so a blocker reaches only part of it
    rng = random.Random(seed)
    edges = {(v, v + 1) for v in range(n - 1)}
    for _ in range(chords):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = graph_of(n, edges)
    st = SpannerState(g, eps=1, seed=seed, mode=mode, k=k)
    for step in range(updates + 1):
        if step:
            if mode == DECREMENTAL:
                if not g.edge_count:
                    break
                st.sp_update(DeleteEdge(*rng.choice(sorted(g.edges()))))
            else:
                u, v = sorted(rng.sample(range(n), 2))
                if g.has_edge(u, v):
                    continue
                st.sp_update(InsertEdge(u, v))
        oracle = dict(enumerate(brute_force_active(g, st.level, st._floors)))
        assert st.active == spanner_bfs_active(st) == oracle
