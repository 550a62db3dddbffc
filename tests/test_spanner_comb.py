"""Combinatorial spanner: subgraph, stretch, and block-state maintenance."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dynsp._kernels import derive_seed
from dynsp.estree import DECREMENTAL, INCREMENTAL, ModeViolation
from dynsp.graph import (
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    all_pairs_dist,
    bfs_dist_bounded,
    graph_of,
)
from dynsp.spanner_comb import (
    REBUILD,
    RebuildSpanner,
    SpannerState,
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
    reb = SpannerState(g.copy(), eps=1, seed=0, mode=REBUILD, k=1)
    with pytest.raises(ModeViolation):
        reb.sp_update(DeleteEdge(*sorted(g.edges())[0]))


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


def test_thresholds_are_exact_rationals():
    g = DynamicGraph(8)
    st = SpannerState(g, eps=1, seed=1, mode=DECREMENTAL, k=2)
    assert st.eps_prime == Fraction(1, 8)
    assert st.threshold(2, 0) == Fraction(512 - 8, 1)
    assert st.beta_certificate == 2 * 8**3
    assert st.radius_for_level(0) == 8  # capped at n


@pytest.mark.parametrize("eps", [1, Fraction(1, 2), Fraction(3, 4), 0.3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_threshold_floors_agree_with_the_exact_thresholds(eps, k):
    st = SpannerState(DynamicGraph(16), eps=eps, seed=1, mode=DECREMENTAL, k=k)
    for j in range(k + 1):
        for i in range(k + 1):
            thr, floor = st.threshold(j, i), st._floors[j][i]
            ds = set(range(st.radius_for_level(j) + 3)) | set(range(floor - 1, floor + 3))
            for d in ds:
                assert (d <= floor) == (Fraction(d) <= thr), (j, i, d)


def test_rebuild_provider_is_lazy_but_faithful():
    g, rng = random_graph(24, 50, seed=6)
    lazy = RebuildSpanner(g.copy(), 1, seed=7, k=2)
    counter = 0
    edges = sorted(g.edges())
    rng.shuffle(edges)
    for e in edges[:10]:
        lazy.apply(DeleteEdge(*e))
        g.delete_edge(*e)
        counter += 1
        eager = sp_rebuild_update(g.copy(), 1, _same_seed(lazy, counter), k=2)
        assert lazy.edges() == set(eager.H)


@pytest.mark.parametrize("n", [1, 24, 300])
@pytest.mark.parametrize("eps", [1, 0.3])
@pytest.mark.parametrize("k", [None, 2])
def test_reading_beta_runs_no_construction(n, eps, k):
    sp = RebuildSpanner(DynamicGraph(n), eps, seed=3, k=k)
    beta = sp.beta_certificate
    assert sp.stats()["rebuilds"] == 0
    # the value a construction on the same (n, eps, k) certifies
    assert beta == SpannerState(DynamicGraph(n), eps, seed=3, k=k).beta_certificate
    sp.edges()
    assert sp.stats()["rebuilds"] == 1 and sp.beta_certificate == beta


def _same_seed(lazy: RebuildSpanner, counter: int) -> int:
    from dynsp._kernels import derive_seed

    return derive_seed(lazy.seed, counter)


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
    comb = SpannerState(g.copy(), 1, seed=5, k=k)
    assert comb.level == _nested_levels(g.n, k, derive_seed(5, 0x5E))
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
    st = SpannerState(g, eps=eps, seed=seed, k=k)
    assert st.active == spanner_bfs_active(st) == st.recompute_active_from_scratch()
    st.level = levels
    assert st.recompute_active_from_scratch() == spanner_bfs_active(st)
    st._floors = floors
    assert st.recompute_active_from_scratch() == spanner_bfs_active(st)
    assert bfs_active(g, levels, floors) == brute_force_active(g, levels, floors)


def test_budgeted_activeness_on_a_path_stops_at_the_floor():
    # eps = 1, k = 1: floors[1][0] = 64 - 8 = 56, so on an 80-path the
    # level-1 end blocks exactly vertices 1..56
    st = SpannerState(graph_of(80, [(v, v + 1) for v in range(79)]), eps=1, seed=0, k=1)
    st.level = [1] + [0] * 79
    active = st.recompute_active_from_scratch()
    assert [v for v in range(80) if not active[v]] == list(range(1, 57))
    assert active == spanner_bfs_active(st)


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
