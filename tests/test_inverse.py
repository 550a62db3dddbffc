"""Dynamic inverse against from-scratch series inversion and exact
fraction-free determinants; pair updates against two rank-1 updates;
the closed-form set-up against replaying every initial edge."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsp.graph import DynamicGraph, graph_of
from dynsp.inverse import DEFAULT_KAPPA, InverseState, NonUnitPivot
from dynsp.polymat import PolyMatrix, encode, series_inverse
from dynsp.product import ProductState
from dynsp.reporter import PathReporter
from dynsp.ring import DEFAULT_PRIME, FieldParams, TruncPoly

SMALL_P = 10007


# ---- untruncated polynomial helpers for the determinant oracle -------------


def pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai % p
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return out


def ptrim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def pdiv_exact(a, b, p):
    """Exact division in F_p[u]; asserts the remainder vanishes."""
    a = list(ptrim(a))
    b = ptrim(b)
    inv_lead = pow(b[-1], p - 2, p)
    out = [0] * max(1, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        q = a[shift + len(b) - 1] * inv_lead % p
        out[shift] = q
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - q * bi) % p
    assert not any(a), "inexact division in the determinant oracle"
    return ptrim(out)


def bareiss_det(entries, p):
    """Fraction-free determinant over F_p[u] (untruncated, exact)."""
    n = len(entries)
    m = [[ptrim(list(e)) for e in row] for row in entries]
    prev = [1]
    sign = 1
    for k in range(n - 1):
        if ptrim(m[k][k]) == [0]:
            swap = next(
                (i for i in range(k + 1, n) if ptrim(m[i][k]) != [0]), None
            )
            if swap is None:
                return [0]
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(pmul(m[i][j], m[k][k], p), pmul(m[i][k], m[k][j], p), p)
                m[i][j] = pdiv_exact(num, prev, p)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else [(-c) % p for c in det]


def oracle_det(A, D, p):
    """det(I - A) truncated to degree D, via the fraction-free oracle."""
    n = A.matrix.rows
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [(-int(c)) % p for c in A.matrix.data[i, j]]
            if i == j:
                coeffs[0] = (coeffs[0] + 1) % p
            row.append(coeffs)
        entries.append(row)
    det = bareiss_det(entries, p)
    det = (det + [0] * (D + 1))[: D + 1]
    return TruncPoly(p, det)


# ---- the tests -------------------------------------------------------------


def run_updates(n, D, seed, steps, p=SMALL_P):
    rng = random.Random(seed)
    g = DynamicGraph(n)
    params = FieldParams(p=p, rng_seed=seed)
    A = encode(g, params, D)
    st = InverseState(A)
    present = set()
    for _ in range(steps):
        u, v = rng.sample(range(n), 2)
        present ^= {(u, v)}
        st.update_edge(u, v, (u, v) in present)
        yield st, A


def test_matches_series_inverse_throughout():
    for st, A in run_updates(10, 5, seed=1, steps=60):
        assert np.array_equal(st.query_full(), series_inverse(A.matrix).data)


def test_determinant_matches_fraction_free_oracle():
    for step, (st, A) in enumerate(run_updates(6, 4, seed=2, steps=40)):
        if step % 4 == 0:
            assert st.det_poly() == oracle_det(A, 4, SMALL_P)


def test_query_forms_agree():
    for step, (st, _) in enumerate(run_updates(9, 4, seed=3, steps=30)):
        full = st.query_full()
        rows = st.query_rows([2, 5, 7])
        assert np.array_equal(rows, full[[2, 5, 7]])
        col = st.query_col(4)
        assert np.array_equal(col, full[:, 4])
        assert st.query(3, 6) == TruncPoly(SMALL_P, full[3, 6])


def test_bootstrap_from_nonempty_graph():
    g = DynamicGraph(8)
    rng = random.Random(7)
    for _ in range(10):
        u, v = rng.sample(range(8), 2)
        if not g.has_edge(u, v):
            g.insert_edge(u, v)
    params = FieldParams(p=SMALL_P, rng_seed=7)
    A = encode(g, params, 5)
    reference = series_inverse(A.matrix).data
    st = InverseState(encode(g, params, 5))
    assert np.array_equal(st.query_full(), reference)
    assert st.det_poly() == oracle_det(A, 5, SMALL_P)


def test_submatrix_view_tracks_host():
    H = [1, 3, 4]
    stream = run_updates(7, 4, seed=5, steps=35)
    st, _ = next(stream)
    view = st.register_submatrix(H)
    for st, _ in stream:
        full = st.query_full()
        assert np.array_equal(view.cached, full[np.ix_(H, H)])
        assert view.entry(3, 4) == TruncPoly(SMALL_P, full[3, 4])


def test_reset_period_scaling():
    g = DynamicGraph(16)
    st = InverseState(encode(g, FieldParams(rng_seed=0), 3))
    assert st.reset_period == max(1, round(16**0.529))
    st2 = InverseState(encode(g, FieldParams(rng_seed=0), 3), kappa=0.1)
    assert st2.reset_period < st.reset_period


def test_nonunit_pivot_rejected():
    g = DynamicGraph(3)
    st = InverseState(encode(g, FieldParams(p=SMALL_P, rng_seed=0), 3))
    bad = np.zeros(4, dtype=np.uint64)
    bad[0] = 1  # constant-term change can make the pivot constant nonzero
    with pytest.raises(NonUnitPivot):
        st.dinv_update(0, 0, bad)


def test_nonunit_pivot_rejected_on_a_pair():
    host = InverseState(encode(DynamicGraph(4), FieldParams(p=SMALL_P, rng_seed=0), 3))
    delta = host.A.entry_delta
    host.dinv_update(0, 1, delta(0, 1, True), delta(1, 0, True))
    before = (host.query_full(), host.det_poly(), host.stats())
    good = delta(2, 3, True)
    bad = good.copy()
    bad[0] = 1
    for dv, back in ((bad, good), (good, bad)):
        with pytest.raises(NonUnitPivot):
            host.dinv_update(2, 3, dv, back)
    assert np.array_equal(host.query_full(), before[0])
    assert host.det_poly() == before[1]
    assert host.stats() == before[2]


def _pair_states(n, D, p, period, H, seed):
    """Two empty-graph states on one encoding, each with a view and a product."""
    # round(n^kappa) == period, so the reset period does not depend on n
    kappa = math.log(period) / math.log(n)
    rng = random.Random(seed)
    E = np.array(
        [[[rng.randrange(p) for _ in range(D + 1)] for _ in range(n)] for _ in range(n)],
        dtype=np.uint64,
    )
    out = []
    for _ in range(2):
        host = InverseState(encode(DynamicGraph(n), FieldParams(p=p, rng_seed=seed), D), kappa)
        assert host.reset_period == period
        out.append((host, host.register_submatrix(H), ProductState(host, E)))
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
    (pair, pair_view, pair_prod), (single, single_view, single_prod) = _pair_states(
        n, D, p, period, H, seed=n * D + period
    )
    present = set()
    for u, v in stream:
        edge = (min(u, v), max(u, v))
        present ^= {edge}
        on = edge in present
        delta = pair.A.entry_delta
        pair.dinv_update(u, v, delta(u, v, on), delta(v, u, on))
        single.update_edge(u, v, on)
        single.update_edge(v, u, on)
        full = pair.query_full()
        assert np.array_equal(full, single.query_full())
        assert np.array_equal(full, series_inverse(pair.A.matrix).data)
        assert pair.det_poly() == single.det_poly()
        assert np.array_equal(pair_view.cached, single_view.cached)
        for i, j in ((u, v), (v, u), (u, u)):
            assert pair_prod.prod_query(i, j) == single_prod.prod_query(i, j)
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
            grown.update_edge(u, v, True)
    assert np.array_equal(boot.query_full(), grown.query_full())
    assert boot.det_poly() == grown.det_poly()
    assert np.array_equal(boot.A.matrix.data, grown.A.matrix.data)
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
    present = encode(g, params, D).matrix.data.any(axis=2)
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
    rng = random.Random(seed)
    E = np.array(
        [[[rng.randrange(p) for _ in range(D + 1)] for _ in range(n)] for _ in range(n)],
        dtype=np.uint64,
    )
    sides = []
    for replay in (False, True):
        pr = PathReporter(graph_of(n, edges, directed), D, kappa, params=params)
        if replay:
            pr.host = _replayed(pr.g, params, D, kappa)
        sides.append((pr, pr.host.register_submatrix(H), ProductState(pr.host, E)))
    probes = [(i, (3 * i + 1) % n) for i in range(n)]
    (closed, closed_view, closed_prod), (oracle, oracle_view, oracle_prod) = sides
    assert closed.host.stats()["updates"] == 0

    def check():
        assert np.array_equal(closed.host.query_full(), oracle.host.query_full())
        assert closed.host.det_poly() == oracle.host.det_poly()
        assert np.array_equal(closed.dist_matrix(), oracle.dist_matrix())
        assert np.array_equal(closed_view.cached, oracle_view.cached)
        for i, j in probes:
            assert closed_prod.prod_query(i, j) == oracle_prod.prod_query(i, j)

    check()
    for u, v in stream:
        for pr, _, _ in sides:
            (pr.pr_delete if pr.g.has_edge(u, v) else pr.pr_insert)(u, v)
        check()


@pytest.mark.parametrize("directed", [False, True])
def test_closed_form_setup_sums_traces_past_64_bits(directed):
    # 24 diagonal entries of R^k below 2^61 - 1 sum past 2^64 for k >= 2
    g = _random_graph(24, 96, directed, seed=12)
    params = FieldParams(rng_seed=12)
    closed = InverseState(encode(g, params, 6))
    oracle = _replayed(g, params, 6, DEFAULT_KAPPA)
    traces = np.diagonal(closed.T, axis1=0, axis2=1)[2:]
    assert all(sum(row.tolist()) >= 2**64 for row in traces)
    assert np.array_equal(closed.query_full(), oracle.query_full())
    assert closed.det_poly() == oracle.det_poly()


def test_degree_bound_just_below_the_modulus():
    # D = p - 1: the determinant's Newton recurrence divides by every k <= D
    g = _random_graph(6, 9, False, seed=11)
    params = FieldParams(p=5, rng_seed=11)
    st = InverseState(encode(g, params, 4))
    assert np.array_equal(st.query_full(), series_inverse(st.A.matrix).data)
    assert st.det_poly() == oracle_det(st.A, 4, 5)


@pytest.mark.parametrize("D", [5, 6])
def test_degree_bound_at_or_past_the_modulus_is_rejected_before_allocation(D):
    A = encode(graph_of(64, [(i, i + 1) for i in range(63)]), FieldParams(p=5, rng_seed=1), D)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            InverseState(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"D = {D} and p = 5" in str(err.value)
    # T and N would each be as large as A's own (n, n, D+1) array
    assert peak < A.matrix.data.nbytes // 4
