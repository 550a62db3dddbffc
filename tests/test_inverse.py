"""Dynamic inverse against from-scratch series inversion of the adjacency
rebuilt from each test's own edge set; pair updates against two rank-1
updates; the closed-form set-up against replaying every initial edge."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inverse_oracles import adjacency, arcs, series_inverse

from dynsp.graph import DynamicGraph, graph_of
from dynsp.inverse import DEFAULT_KAPPA, InverseState
from dynsp.polymat import encode
from dynsp.reporter import PathReporter
from dynsp.ring import DEFAULT_PRIME, FieldParams

SMALL_P = 10007


def run_updates(n, D, seed, steps, p=SMALL_P):
    """Single-entry updates from an edgeless start; yields the state and
    u R over the arcs present after each update."""
    rng = random.Random(seed)
    st = InverseState(encode(DynamicGraph(n), FieldParams(p=p, rng_seed=seed), D))
    present = set()
    for _ in range(steps):
        u, v = rng.sample(range(n), 2)
        present ^= {(u, v)}
        st.dinv_update(u, v, st.A.entry_delta(u, v, (u, v) in present))
        yield st, adjacency(st.A, present)


def test_matches_series_inverse_throughout():
    for p in (SMALL_P, DEFAULT_PRIME):
        for st, a in run_updates(10, 5, seed=1, steps=60, p=p):
            assert np.array_equal(st.query_full(), series_inverse(a, p))


def test_query_forms_agree():
    for step, (st, _) in enumerate(run_updates(9, 4, seed=3, steps=30)):
        full = st.query_full()
        rows = st.query_rows([2, 5, 7])
        assert np.array_equal(rows, full[[2, 5, 7]])
        col = st.query_col(4)
        assert np.array_equal(col, full[:, 4])
        assert np.array_equal(st.query_col(6, rows=[3, 8]), full[[3, 8], 6])


def test_bootstrap_from_nonempty_graph():
    g = DynamicGraph(8)
    rng = random.Random(7)
    for _ in range(10):
        u, v = rng.sample(range(8), 2)
        if not g.has_edge(u, v):
            g.insert_edge(u, v)
    st = InverseState(encode(g, FieldParams(p=SMALL_P, rng_seed=7), 5))
    a = adjacency(st.A, arcs(g))
    assert np.array_equal(st.query_full(), series_inverse(a, SMALL_P))


def test_submatrix_view_tracks_host():
    H = [1, 3, 4]
    stream = run_updates(7, 4, seed=5, steps=35)
    st, _ = next(stream)
    view = st.register_submatrix(H)
    for st, _ in stream:
        full = st.query_full()
        assert np.array_equal(view.cached, full[np.ix_(H, H)])


def test_reset_period_scaling():
    g = DynamicGraph(16)
    st = InverseState(encode(g, FieldParams(rng_seed=0), 3))
    assert st.reset_period == max(1, round(16**0.529))
    st2 = InverseState(encode(g, FieldParams(rng_seed=0), 3), kappa=0.1)
    assert st2.reset_period < st.reset_period


@pytest.mark.parametrize("kappa", [math.inf, 1e308, math.nan])
def test_kappa_without_a_finite_reset_scale_is_rejected(kappa):
    with pytest.raises(ValueError, match="kappa"):
        InverseState(encode(DynamicGraph(16), FieldParams(rng_seed=0), 3), kappa)


def _pair_states(n, D, p, period, H, seed):
    """Two empty-graph states on one encoding, each with a view."""
    # round(n^kappa) == period, so the reset period does not depend on n
    kappa = math.log(period) / math.log(n)
    out = []
    for _ in range(2):
        host = InverseState(encode(DynamicGraph(n), FieldParams(p=p, rng_seed=seed), D), kappa)
        assert host.reset_period == period
        out.append((host, host.register_submatrix(H)))
    return out


@given(
    n=st.integers(2, 24),
    D=st.integers(1, 12),
    p=st.sampled_from([SMALL_P, DEFAULT_PRIME]),
    period=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_pair_update_equals_two_rank_one_updates(n, D, p, period, data):
    """Odd reset periods put the rank-1 replay's resets inside pairs."""
    H = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True), label="H")
    stream = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), min_size=1, max_size=12),
        label="stream",
    )
    (pair, pair_view), (single, single_view) = _pair_states(
        n, D, p, period, H, seed=n * D + period
    )
    present = set()
    for u, v in stream:
        edge = (min(u, v), max(u, v))
        present ^= {edge}
        on = edge in present
        delta = pair.A.entry_delta
        pair.dinv_update(u, v, delta(u, v, on), delta(v, u, on))
        single.dinv_update(u, v, delta(u, v, on))
        single.dinv_update(v, u, delta(v, u, on))
        full = pair.query_full()
        assert np.array_equal(full, single.query_full())
        both = [(a, b) for e in present for a, b in (e, e[::-1])]
        assert np.array_equal(full, series_inverse(adjacency(pair.A, both), p))
        assert np.array_equal(pair_view.cached, single_view.cached)
    assert pair.stats()["entries"] == single.stats()["entries"] == 2 * len(stream)
    assert pair.stats()["rank2_updates"] == len(stream)
    assert single.stats()["rank2_updates"] == 0


def _random_graph(n, m, directed, seed):
    rng = random.Random(seed)
    g = DynamicGraph(n, directed=directed)
    while g.edge_count < m:
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.insert_edge(u, v)
    return g


@pytest.mark.parametrize("directed", [False, True])
def test_bootstrap_equals_edgeless_start_plus_inserts(directed):
    g = _random_graph(10, 18, directed, seed=4)
    params = FieldParams(p=SMALL_P, rng_seed=4)
    boot = InverseState(encode(g, params, 5))
    grown = InverseState(encode(DynamicGraph(10, directed=directed), params, 5))
    for u in range(10):
        for v in sorted(g.adj[u]):
            grown.dinv_update(u, v, grown.A.entry_delta(u, v, True))
    assert np.array_equal(boot.query_full(), grown.query_full())
    a = adjacency(boot.A, arcs(g))
    assert np.array_equal(boot.query_full(), series_inverse(a, SMALL_P))
    # the closed-form set-up makes no update
    assert boot.stats() == dict.fromkeys(grown.stats(), 0)
    assert boot.nrows == [] and not boot.N.any()


@pytest.mark.parametrize("directed", [False, True])
def test_one_update_per_edge_change(directed):
    g = DynamicGraph(8, directed=directed)
    pr = PathReporter(g, 4, seed=2)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)]
    for u, v in edges:
        pr.pr_insert(u, v)
    pr.pr_delete(1, 2)
    stats = pr.host.stats()
    assert stats["updates"] == len(edges) + 1
    assert stats["rank2_updates"] == (0 if directed else len(edges) + 1)
    assert stats["entries"] == (1 if directed else 2) * (len(edges) + 1)


def test_stats_repeat_exactly_on_one_seed():
    def run():
        g = _random_graph(20, 30, False, seed=9)
        pr = PathReporter(g, 6, seed=9, params=FieldParams(p=SMALL_P, rng_seed=9))
        rng = random.Random(9)
        for _ in range(25):
            u, v = rng.sample(range(20), 2)
            (pr.pr_delete if pr.g.has_edge(u, v) else pr.pr_insert)(u, v)
        return pr.host.stats()

    first = run()
    assert first == run()
    assert first["updates"] == 25
    assert first["entries"] == 2 * first["updates"]
    # N starts empty after set-up, and a reset comes once the entries
    # since the last one reach the period
    pairs_per_reset = math.ceil(round(20**0.529) / 2)
    assert first["resets"] == 25 // pairs_per_reset
    assert 2 <= first["nrows_max"] <= 2 * pairs_per_reset


def _replayed(g, params, D, kappa):
    """The set-up the closed form replaced, kept as its oracle: an edgeless
    state, then every initial entry through dinv_update, resets included;
    an entry whose transpose is present too goes in with it as one pair."""
    st = InverseState(encode(DynamicGraph(g.n, g.directed), params, D), kappa)
    present = np.zeros((g.n, g.n), dtype=bool)
    for i, j in arcs(g):
        present[i, j] = True
    for i, j in np.argwhere(present).tolist():
        paired = i != j and present[j, i]
        if i < j or not paired:
            back = st.A.entry_delta(j, i, True) if paired else None
            st.dinv_update(i, j, st.A.entry_delta(i, j, True), back)
    return st


@given(
    n=st.integers(2, 14),
    D=st.integers(1, 10),
    p=st.sampled_from([SMALL_P, DEFAULT_PRIME]),
    directed=st.booleans(),
    kappa=st.floats(0.0, 1.0),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_closed_form_setup_equals_replayed_edges(n, D, p, directed, kappa, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
    stream = data.draw(st.lists(st.sampled_from(pairs), max_size=8), label="stream")
    H = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True), label="H")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    params = FieldParams(p=p, rng_seed=seed)
    sides = []
    for replay in (False, True):
        pr = PathReporter(graph_of(n, edges, directed), D, kappa, params=params)
        if replay:
            pr.host = _replayed(pr.g, params, D, kappa)
        sides.append((pr, pr.host.register_submatrix(H)))
    (closed, closed_view), (oracle, oracle_view) = sides
    assert closed.host.stats()["updates"] == 0

    def check():
        assert np.array_equal(closed.host.query_full(), oracle.host.query_full())
        blocks = [pr.dist_block(range(n), range(n)) for pr, _ in sides]
        assert np.array_equal(*blocks)
        assert np.array_equal(closed_view.cached, oracle_view.cached)

    check()
    for u, v in stream:
        for pr, _ in sides:
            (pr.pr_delete if pr.g.has_edge(u, v) else pr.pr_insert)(u, v)
        check()


@pytest.mark.parametrize("directed", [False, True])
def test_closed_form_setup_equals_replay_on_a_dense_graph(directed):
    # n = 24 and m = 96 at 2^61 - 1: R^k's entries are full-width residues,
    # so every product of the closed form must reduce exactly
    g = _random_graph(24, 96, directed, seed=12)
    params = FieldParams(rng_seed=12)
    closed = InverseState(encode(g, params, 6))
    oracle = _replayed(g, params, 6, DEFAULT_KAPPA)
    assert np.array_equal(closed.query_full(), oracle.query_full())


def test_degree_bound_just_below_the_modulus():
    g = _random_graph(6, 9, False, seed=11)
    params = FieldParams(p=5, rng_seed=11)
    st = InverseState(encode(g, params, 4))
    a = adjacency(st.A, arcs(g))
    assert np.array_equal(st.query_full(), series_inverse(a, 5))


@pytest.mark.parametrize("D", [5, 6, 9])
def test_degree_bound_at_or_past_the_modulus_matches_series_inverse(D):
    # nothing divides by an integer, so D >= p needs no special case
    g = _random_graph(8, 10, False, seed=D)
    pr = PathReporter(g, D, seed=D, params=FieldParams(p=5, rng_seed=D))
    rng = random.Random(D)
    for step in range(31):
        a = adjacency(pr.host.A, arcs(pr.g))
        assert np.array_equal(pr.host.query_full(), series_inverse(a, 5)), step
        u, v = rng.sample(range(8), 2)
        (pr.pr_delete if pr.g.has_edge(u, v) else pr.pr_insert)(u, v)


def test_degree_bound_below_one_is_rejected_before_allocation():
    A = encode(graph_of(64, [(i, i + 1) for i in range(63)]), FieldParams(rng_seed=1), 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            InverseState(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "D = 0" in str(err.value)
    # T and N would each hold n * n uint64 words
    assert peak < 64 * 64 * 8 // 4
