"""Exact APSP stitching and the approximate variant against BFS."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dynsp._kernels import derive_seed, min_degree_arr
from dynsp.apsp import ApproxApsp, HittingSetApsp, StitchFailure, _capped
from dynsp.graph import (
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    all_pairs_dist,
    apply_update,
    bfs_dist,
    bfs_path,
    validate_path,
)
from dynsp.reporter import BEYOND
from dynsp.spanner_comb import RebuildSpanner
from dynsp.steiner import SteinerState

INF = math.inf


def path_graph(n):
    g = DynamicGraph(n)
    for v in range(n - 1):
        g.insert_edge(v, v + 1)
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


def random_events(g, rng, count):
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


@pytest.mark.parametrize("maker", [lambda: path_graph(30), lambda: grid_graph(5)])
def test_exact_dist_matches_bfs_on_structured_graphs(maker):
    g = maker()
    rng = random.Random(0)
    oracle = g.copy()
    ap = HittingSetApsp(g.copy(), D=6, seed=1)
    for step, ev in enumerate(random_events(oracle.copy(), rng, 30)):
        apply_update(oracle, ev)
        ap.exact_update(ev)
        truth = all_pairs_dist(oracle)
        mat = ap.exact_dist_matrix()
        for i in range(oracle.n):
            for j in range(oracle.n):
                assert mat[i, j] == truth[i][j], (step, i, j)


def test_exact_paths_validate():
    rng = random.Random(2)
    g = path_graph(24)
    oracle = g.copy()
    ap = HittingSetApsp(g.copy(), D=5, seed=3)
    for ev in random_events(oracle.copy(), rng, 25):
        apply_update(oracle, ev)
        ap.exact_update(ev)
        truth = all_pairs_dist(oracle)
        for _ in range(10):
            i, j = rng.sample(range(24), 2)
            if truth[i][j] == INF:
                with pytest.raises(ValueError):
                    ap.exact_path(i, j)
                continue
            p = ap.exact_path(i, j)
            assert p[0] == i and p[-1] == j
            assert len(p) - 1 == truth[i][j]
            assert validate_path(oracle, p)


def test_scalar_queries_agree_with_matrix():
    rng = random.Random(4)
    g = grid_graph(4)
    ap = HittingSetApsp(g, D=4, seed=5)
    mat = ap.exact_dist_matrix()
    for _ in range(30):
        i, j = rng.sample(range(16), 2)
        assert ap.exact_dist(i, j) == mat[i, j]
    assert ap.exact_dist(3, 3) == 0


def test_approx_certificate_and_paths():
    rng = random.Random(6)
    g = path_graph(40)
    oracle = g.copy()
    aa = ApproxApsp(g.copy(), eps=1, seed=7, D=8, spanner_k=1)
    beta = aa.spanner.beta_certificate
    for step, ev in enumerate(random_events(oracle.copy(), rng, 30)):
        apply_update(oracle, ev)
        aa.apply(ev)
        if step % 5:
            continue
        truth = all_pairs_dist(oracle)
        for _ in range(20):
            i, j = rng.sample(range(40), 2)
            d = aa.approx_dist(i, j)
            t = truth[i][j]
            assert d >= t
            if t < INF:
                assert d <= 2 * t + beta
                p = aa.approx_path(i, j)
                assert p[0] == i and p[-1] == j
                assert validate_path(oracle, p)


def test_approx_exact_below_degree_bound():
    g = path_graph(20)
    aa = ApproxApsp(g.copy(), eps=1, seed=8, D=10, spanner_k=1)
    truth = all_pairs_dist(g)
    for i in range(20):
        for j in range(20):
            if truth[i][j] <= 10:
                assert aa.approx_dist(i, j) == truth[i][j]


def test_default_degree_bound_absorbs_beta():
    g = path_graph(12)
    aa = ApproxApsp(g, eps=1, seed=9, spanner_k=0)
    assert aa.D == min(12, math.ceil(2 * aa.spanner.beta_certificate / 1))
    # beta is fixed by (n, eps, k): the set-up ran no spanner construction
    assert aa.stats()["spanner_rebuilds"] == 0


@pytest.mark.parametrize("eps", [0, -1, 2.5, 7])
def test_approx_checks_its_own_eps_with_or_without_a_spanner(eps):
    g = path_graph(6)
    with pytest.raises(ValueError, match=r"^ApproxApsp needs 0 < eps <= 2$"):
        ApproxApsp(g.copy(), eps, spanner=RebuildSpanner(g.copy(), 0.5, 0), D=4)
    with pytest.raises(ValueError, match=r"^ApproxApsp needs 0 < eps <= 2$"):
        ApproxApsp(g.copy(), eps)


def test_approx_and_its_spanner_share_one_graph():
    g = path_graph(8)
    with pytest.raises(ValueError, match=r"^ApproxApsp needs a spanner built over its own graph$"):
        ApproxApsp(g, 1, spanner=RebuildSpanner(g.copy(), 0.5, 0))
    aa = ApproxApsp(g, 1, seed=3, D=2)
    assert aa.spanner.g is aa.g is g
    ref = RebuildSpanner(g.copy(), 0.5, derive_seed(3, 0x5A))
    events = [InsertEdge(0, 7), DeleteEdge(3, 4), InsertEdge(2, 5), DeleteEdge(0, 1)]
    for ev in events:
        aa.apply(ev)  # a second application to g would raise IllegalUpdate
        ref.apply(ev)
        assert aa.spanner.edges() == ref.edges()
    assert aa.spanner.stats()["updates"] == len(events)
    assert sorted(g.edges()) == sorted(ref.g.edges())


def test_spanner_backed_structures_reject_a_directed_graph_when_built():
    g = DynamicGraph(4, directed=True)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    message = "spanners are defined for undirected graphs"
    for make in (
        lambda: RebuildSpanner(g.copy(), 1, seed=0),
        lambda: ApproxApsp(g.copy(), 1),
        lambda: SteinerState(g.copy(), [0, 2]),
    ):
        with pytest.raises(ValueError, match=message):
            make()
    with pytest.raises(ValueError, match="need 0 < eps <= 1"):  # eps and k first
        RebuildSpanner(g.copy(), 2, seed=0)
    with pytest.raises(ValueError, match="need k >= 0"):
        RebuildSpanner(g.copy(), 1, seed=0, k=-1)


def test_approx_takes_eps_up_to_2_as_its_default_spanner_runs_at_half():
    g = path_graph(6)
    aa = ApproxApsp(g.copy(), 2, D=4)
    assert aa.spanner.eps == 1 and aa.approx_dist(0, 5) == 5  # 5 > D: read on the spanner


def test_protocol_reads_agree_with_the_named_queries():
    g = path_graph(14)
    g.delete_edge(12, 13)
    exact = HittingSetApsp(g.copy(), 4, seed=2)
    approx = ApproxApsp(g.copy(), eps=1, seed=3, D=4, spanner_k=1)
    for st, dist, path in (
        (exact, exact.exact_dist, exact.exact_path),
        (approx, approx.approx_dist, approx.approx_path),
    ):
        assert st.dist(0, 9) == dist(0, 9) and st.path(0, 9) == path(0, 9)
        assert st.dist(0, 13) == INF and st.path(0, 13) is None
        st.apply(InsertEdge(12, 13))
        assert st.dist(13, 0) == dist(13, 0) and st.path(13, 0) == path(13, 0)


@given(
    seed=hst.integers(0, 2**16),
    steps=hst.integers(0, 6),
    rows=hst.lists(hst.integers(0, 17), max_size=6),
    cols=hst.lists(hst.integers(0, 17), max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_approx_dist_block_matches_approx_dist(seed, steps, rows, cols):
    g = path_graph(18)
    g.delete_edge(12, 13)  # unreachable pairs read inf
    block, pairs = (ApproxApsp(g.copy(), eps=1, seed=seed, D=4, spanner_k=1) for _ in range(2))
    for ev in random_events(g.copy(), random.Random(seed), steps):
        block.apply(ev)
        pairs.apply(ev)
    got = block.dist_block(rows, cols)
    assert got.shape == (len(rows), len(cols))
    assert got.tolist() == [[pairs.approx_dist(i, j) for j in cols] for i in rows]
    # the spanner graph is built only for an entry beyond D
    beyond = any(pairs.pr.pr_dist(i, j) is BEYOND for i in rows for j in cols)
    assert (block._h_graph is not None) == beyond


def test_approx_dist_block_within_d_leaves_the_spanner_unbuilt():
    aa = ApproxApsp(path_graph(18), eps=1, seed=3, D=4, spanner_k=1)
    aa.apply(InsertEdge(0, 9))
    got = aa.dist_block([0, 9, 2], [9, 3, 0, 0])
    assert got.tolist() == [[1, 3, 0, 0], [0, 4, 1, 1], [3, 1, 2, 2]]
    assert aa._h_graph is None
    assert aa.dist_block([0], [15]).tolist() == [[aa.approx_dist(0, 15)]]
    assert aa._h_graph is not None


# ---- paths from one column read against one distance read per path -------------


class PerPairPaths(ApproxApsp):
    """ApproxApsp reading every path as a distance read and then a column
    read (the reference for paths)."""

    def path(self, i, j):
        if self.pr.pr_dist(i, j) is not BEYOND:
            return self.pr.pr_path(i, j)
        return bfs_path(self._spanner_graph(), i, j)

    def paths(self, pairs):
        return [self.path(i, j) for i, j in pairs]


@given(
    seed=hst.integers(0, 2**16),
    steps=hst.integers(0, 6),
    pairs=hst.lists(hst.tuples(hst.integers(0, 17), hst.integers(0, 17)), max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_paths_match_one_read_per_path(seed, steps, pairs):
    g = path_graph(18)
    g.delete_edge(12, 13)  # unreachable pairs have no path
    st, ref = (cls(g.copy(), eps=1, seed=seed, D=4, spanner_k=1) for cls in (ApproxApsp, PerPairPaths))
    for ev in random_events(g.copy(), random.Random(seed), steps):
        st.apply(ev)
        ref.apply(ev)
    before = st.stats()
    assert st.paths(pairs) == ref.paths(pairs)
    after = st.stats()
    # one column read over the distinct far ends; a BFS on H per pair beyond D
    far_ends = len({j for _i, j in pairs})
    beyond = sum(ref.pr.pr_dist(i, j) is BEYOND for i, j in pairs)
    assert after["block_reads"] - before["block_reads"] == (1 if pairs else 0)
    assert after["column_reads"] - before["column_reads"] == far_ends
    assert after["spanner_rows"] - before["spanner_rows"] == beyond
    assert (st._h_graph is not None) == (beyond > 0)
    for i, j in pairs:
        assert st.path(i, j) == ref.path(i, j)


def test_approx_stats_count_reads_fallbacks_and_rebuilds_and_repeat():
    def run():
        rng = random.Random(4)
        g = path_graph(18)
        aa = ApproxApsp(g.copy(), eps=1, seed=5, D=4, spanner_k=1)
        rows = rebuilds = 0
        for ev in random_events(g.copy(), rng, 6):
            apply_update(g, ev)
            aa.apply(ev)
            aa.dist(0, 17)
            aa.path(0, 3)
            far = [bfs_dist(g, 0)[j] > 4 for j in (17, 3)]
            rows += sum(far)
            rebuilds += any(far)
        return aa.stats(), rows, rebuilds

    stats, rows, rebuilds = run()
    assert (stats, rows, rebuilds) == run()
    assert rows > 0
    assert stats["spanner_updates"] == 6
    # an explicit D reads no beta at set-up: one construction per update
    # after which some read went past D
    assert stats["spanner_rebuilds"] == rebuilds
    assert stats["spanner_rows"] == rows
    assert stats["column_reads"] == 6 and stats["block_reads"] == 12


# ---- exact queries from the kept closure against per-pair reads ----------------


class PerPairStitch(HittingSetApsp):
    """HittingSetApsp reading every row, column, waypoint row and segment
    one query at a time (the reference for the exact queries)."""

    def _stitch_terms(self, i, j):
        row = min_degree_arr(self.pr.host.query_rows([i])[0][self.H])
        col = min_degree_arr(self.pr.host.query_col(j, rows=self.H))
        row = np.where(row <= self.D, row.astype(float), INF)
        col = np.where(col <= self.D, col.astype(float), INF)
        for a, v in enumerate(self.H):
            if v == i:
                row[a] = 0.0
            if v == j:
                col[a] = 0.0
        return row, col

    def _stitch(self, i, j):
        short = self.pr.dist(i, j)
        if not self.H:
            return short, None, short
        row, col = self._stitch_terms(i, j)
        cand = row[:, None] + self.fw_dist + col[None, :]
        return short, cand, min(short, float(cand.min()))

    def path(self, i, j):
        if i == j:
            return [i]
        short, cand, total = self._stitch(i, j)
        if total == INF:
            return None
        if short == total:
            return self.pr.pr_path(i, j)
        hits = np.argwhere(cand == total)
        p, q = min((int(a), int(b)) for a, b in hits)
        waypoints = [p]
        while waypoints[-1] != q:  # the smallest-index waypoint on a shortest chain
            x = waypoints[-1]
            row, _col = self._stitch_terms(self.H[x], j)
            waypoints.append(min(
                y for y in range(len(self.H))
                if y != x and row[y] + self.fw_dist[y, q] == self.fw_dist[x, q]
            ))
        stops = [i] + [self.H[w] for w in waypoints] + [j]
        path = [i]
        for a, b in zip(stops, stops[1:]):
            if a == b:
                continue
            if self.pr.pr_dist(a, b) is BEYOND:
                raise StitchFailure(f"segment ({a}, {b}) exceeds D={self.D}")
            path.extend(self.pr.pr_path(a, b)[1:])
        return path


def _h_pairs(H, span):
    """Far pairs within range(span), one of each kind: both ends, only i,
    only j and neither in H; plus i == j in and out of H."""
    ins = [v for v in range(span) if v in set(H)]
    outs = [v for v in range(span) if v not in set(H)]
    pairs = [(ins[0], ins[-1]), (ins[0], ins[0])]
    if outs:
        pairs += [(ins[0], outs[-1]), (outs[0], ins[-1]), (outs[0], outs[-1]), (outs[0], outs[0])]
    return pairs


def ladder_graph(length):
    """Two rails of the given length joined by a rung at every position
    (vertex 2c + r is rail r at position c): many shortest paths tie."""
    g = DynamicGraph(2 * length)
    for c in range(length):
        g.insert_edge(2 * c, 2 * c + 1)
        if c + 1 < length:
            g.insert_edge(2 * c, 2 * c + 2)
            g.insert_edge(2 * c + 1, 2 * c + 3)
    return g


def _split_path():
    g = path_graph(40)
    g.delete_edge(34, 35)  # unreachable pairs until an insertion joins the parts
    return g, 35


def _split_ladder():
    g = ladder_graph(20)
    g.delete_edge(36, 38)
    g.delete_edge(37, 39)  # the last rung apart until an insertion joins it
    return g, 38


@given(
    graph=hst.sampled_from([_split_path, _split_ladder]),
    seed=hst.integers(0, 2**16),
    D=hst.integers(16, 18),
    steps=hst.integers(1, 6),
    pairs=hst.lists(hst.tuples(hst.integers(0, 39), hst.integers(0, 39)), max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_exact_queries_match_per_pair_reads_within_the_read_bound(graph, seed, D, steps, pairs):
    g, span = graph()
    st, ref = (cls(g.copy(), D, seed=seed) for cls in (HittingSetApsp, PerPairStitch))
    assert len(st.H) < g.n  # a sampled hitting set: pairs beyond D are stitched
    in_h = set(st.H)
    queries = pairs + _h_pairs(st.H, span) + [(0, 39)]
    for ev in [None, *random_events(g.copy(), random.Random(seed), steps)]:
        if ev is not None:
            st.apply(ev)
            ref.apply(ev)
        for i, j in queries:
            before = st.stats()["block_reads"]
            assert st.exact_dist(i, j) == ref.exact_dist(i, j)
            reads = st.stats()["block_reads"] - before
            assert reads <= (0 if i == j or {i, j} <= in_h else 2)
            before = st.stats()["block_reads"]
            assert st.path(i, j) == ref.path(i, j)
            assert st.stats()["block_reads"] - before <= 3


def test_exact_stats_count_stitches_and_closure_answers_and_repeat():
    def run():
        rng = random.Random(5)
        g = path_graph(40)
        st = HittingSetApsp(g.copy(), 16, seed=6)
        far_in_h = (st.H[0], st.H[-1])
        for ev in random_events(g.copy(), rng, 6):
            st.apply(ev)
            st.dist(*far_in_h)
            st.path(*far_in_h)
            st.dist(0, 39)
            st.path(39, 0)
        return st, st.stats()

    st, stats = run()
    assert stats == run()[1]
    assert stats["closure_answers"] == 6 + 6 * ({0, 39} <= set(st.H))
    assert stats["stitched"] > 0 and stats["stitch_failures"] == 0
    assert stats["block_reads"] > 0 and stats["column_reads"] > 0


def test_each_update_reads_the_hitting_set_block_once():
    g = path_graph(40)
    st = HittingSetApsp(g.copy(), 16, seed=6)
    h = len(st.H)
    assert h < g.n and st.stats()["block_reads"] == 1  # the set-up's read
    for ev in random_events(g.copy(), random.Random(7), 8):
        before = st.stats()
        st.apply(ev)
        after = st.stats()
        assert after["block_reads"] - before["block_reads"] == 1
        assert after["entries_read"] - before["entries_read"] == h * h


def _tied_chains(w, fw, p, q):
    """Every chain of H indices from p to q whose hops w add up to fw[p, q]."""
    if p == q:
        return [[q]]
    return [
        [p] + rest
        for y in range(len(w))
        if y != p and w[p, y] + fw[y, q] == fw[p, q]
        for rest in _tied_chains(w, fw, y, q)
    ]


def test_tied_waypoint_chains_resolve_to_the_smallest_index_one():
    g = ladder_graph(6)
    st = HittingSetApsp(g.copy(), 2, seed=1)
    assert st.H == list(range(12))  # waypoint indices are the vertices
    i, j = 0, 11
    w, fw = st._w_hh, st.fw_dist
    cand = w[i][:, None] + fw + w[:, j][None, :]
    p, q = min((int(a), int(b)) for a, b in np.argwhere(cand == cand.min()))
    chains = _tied_chains(w, fw, p, q)

    def stitched(chain):
        stops = [i] + chain + [j]
        path = [i]
        for a, b in zip(stops, stops[1:]):
            if a != b:
                path.extend(bfs_path(g, a, b)[1:])
        return path

    assert len({tuple(stitched(c)) for c in chains}) > 1  # the chains tie on distinct paths
    assert st.path(i, j) == stitched(min(chains)) == [0, 1, 3, 5, 7, 9, 11]
    # a sampled H without vertex 1: the first waypoint after 0 is 2, the
    # smallest-index one, though the path through 1 ties with it
    st = HittingSetApsp(ladder_graph(20), 16, seed=2)
    assert 1 not in st.H and {0, 2} <= set(st.H)
    assert st.path(0, 35) == [0, 2, 3, *range(5, 36, 2)]


def _stitched_pair():
    """A 12-path at D = 4, whose hitting set is every vertex: the pair
    (0, 11) is stitched, and its stitch reads nothing."""
    st = HittingSetApsp(path_graph(12), 4, seed=1)
    assert st.H == list(range(12))
    return st


def test_an_overstated_segment_column_raises_stitch_failure(monkeypatch):
    st = _stitched_pair()
    assert st.path(0, 11) == list(range(12))
    read = st.pr.column_block

    def overstated(targets):
        return {b: [st.D + 1 if a != b else 0 for a in range(len(col))] for b, col in read(targets).items()}

    monkeypatch.setattr(st.pr, "column_block", overstated)
    with pytest.raises(StitchFailure, match="exceeds D=4"):
        st.exact_path(0, 11)
    assert st.exact_dist(0, 11) == 11.0  # the distance reads no column
    assert st.stats()["stitch_failures"] == 1


class TwoLoopStitch(HittingSetApsp):
    """HittingSetApsp with the stitch written twice: an h x h candidate
    array per pair, and two min-plus loops for the matrix (the reference
    for the one stitching routine).  The loops read the closure
    transposed, fw(q, p) where fw(p, q) is meant, so on a directed graph
    the matrix can understate a distance; the pair queries cannot."""

    def _stitch(self, i, j):
        D, H, w = self.D, self.H, self._w_hh
        a, b = self._h_index.get(i), self._h_index.get(j)
        from_i = w[a] if a is not None else _capped(self.pr.dist_block([i], H)[0], D)
        col = None
        if b is None:
            col = self.pr.column_block([j])[j]
            to_j = _capped(np.asarray(col)[H], D)
            short = float(col[i]) if col[i] <= D else INF
        else:
            to_j = w[:, b]
            short = float(from_i[b])
        cand = from_i[:, None] + self.fw_dist + to_j[None, :]
        total = min(short, float(cand.min())) if cand.size else short
        self._counts["stitched"] += total < short
        return short, cand, total, col

    def exact_dist_matrix(self):
        everyone = range(self.g.n)
        short = _capped(self.pr.dist_block(everyone, everyone), self.D)
        if not self.H:
            return short
        to_h = short[:, self.H]
        from_h = short[self.H, :]
        mid = np.empty_like(from_h)
        h = len(self.H)
        for q in range(h):
            mid[q] = (self.fw_dist[:, q][:, None] + from_h).min(axis=0)
        out = short.copy()
        for p in range(h):
            np.minimum(out, to_h[:, p][:, None] + mid[p][None, :], out=out)
        return out

    def path(self, i, j):
        if i == j:
            return [i]
        short, cand, total, col = self._stitch(i, j)
        if total == INF:
            return None
        pr = self.pr
        if short == total:
            return pr.walk(col if col is not None else pr.column_block([j])[j], i, j)
        p, q = divmod(int(np.flatnonzero(cand == total)[0]), len(self.H))
        w, to_q = self._w_hh, self.fw_dist[:, q]
        waypoints = [p]
        while waypoints[-1] != q:
            x = waypoints[-1]
            on_chain = w[x] + to_q == to_q[x]
            on_chain[x] = False
            waypoints.append(int(np.flatnonzero(on_chain)[0]))
        stops = [i] + [self.H[x] for x in waypoints] + [j]
        segments = [(a, b) for a, b in zip(stops, stops[1:]) if a != b]
        cols = {} if col is None else {j: col}
        cols.update(pr.column_block(sorted({b for _a, b in segments} - cols.keys())))
        path = [i]
        for a, b in segments:
            if cols[b][a] > self.D:
                self._counts["stitch_failures"] += 1
                raise StitchFailure(f"segment ({a}, {b}) exceeds D={self.D}")
            path.extend(pr.walk(cols[b], a, b)[1:])
        return path


def chorded_cycle(n, directed, chords):
    """The n-cycle, oriented 0 -> 1 -> ... -> 0 when directed, plus the
    chords that are not loops or already present."""
    g = DynamicGraph(n, directed=directed)
    for v in range(n):
        g.insert_edge(v, (v + 1) % n)
    for u, v in chords:
        if u != v and not g.has_edge(u, v):
            g.insert_edge(u, v)
    return g


def _overstating(read, targets, D):
    """column_block with the columns of targets read as D + 1 off the
    diagonal: a randomness failure of those columns."""

    def column_block(js):
        return {
            b: [D + 1 if b in targets and a != b else x for a, x in enumerate(col)]
            for b, col in read(js).items()
        }

    return column_block


def _path_or_failure(st, i, j):
    try:
        return st.path(i, j)
    except StitchFailure as exc:
        return f"StitchFailure: {exc}"


@given(
    n=hst.integers(6, 10),
    directed=hst.booleans(),
    D=hst.integers(2, 4),
    sampled=hst.booleans(),
    overstated=hst.lists(hst.integers(0, 10), max_size=2),
    seed=hst.integers(0, 2**16),
    chords=hst.lists(hst.tuples(hst.integers(0, 10), hst.integers(0, 10)), max_size=4),
    toggles=hst.lists(hst.tuples(hst.integers(0, 10), hst.integers(0, 10)), min_size=1, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_one_stitch_answers_as_the_two_loop_stitch_and_its_matrix_equals_bfs(
    n, directed, D, sampled, overstated, seed, chords, toggles
):
    g = chorded_cycle(n, directed, [(u % n, v % n) for u, v in chords])
    c = 0.3 if sampled else 2.0  # the default c covers every vertex at n <= 10, D <= 4
    st, ref = (cls(g.copy(), D, seed=seed, c=c) for cls in (HittingSetApsp, TwoLoopStitch))
    assert (len(st.H) < n) == sampled
    # columns of H that read as beyond D: paths through them must fail alike
    bad = {st.H[x % len(st.H)] for x in overstated}
    for apsp in (st, ref):
        apsp.pr.column_block = _overstating(apsp.pr.column_block, bad, D)
    for toggle in [None, *toggles]:
        if toggle is not None:  # insert the edge when absent, else delete it
            u, v = (x % n for x in toggle)
            if u == v:
                continue
            u, v = (u, v) if directed else sorted((u, v))
            ev = (DeleteEdge if g.has_edge(u, v) else InsertEdge)(u, v)
            for apsp in (st, ref):
                apsp.apply(ev)
            apply_update(g, ev)
        truth = np.array(all_pairs_dist(g))
        mat, ref_mat = st.exact_dist_matrix(), ref.exact_dist_matrix()
        for i in range(n):
            for j in range(n):
                assert st.exact_dist(i, j) == ref.exact_dist(i, j) == mat[i, j]
                assert _path_or_failure(st, i, j) == _path_or_failure(ref, i, j)
        assert (mat >= truth).all()
        if not sampled:  # H = V: every stitch is exact
            assert (mat == truth).all()
        if not directed:  # fw is symmetric, so reading it transposed is harmless
            assert (ref_mat == mat).all()
    assert st.stats() == ref.stats()


def test_directed_matrix_equals_bfs_on_chorded_cycles():
    # 14-cycles at D = 4: the default hitting set is every vertex, so each
    # entry is exact; the two-loop matrix understated most of them
    understated = 0
    for instance in range(30):
        rng = random.Random(instance)
        chords = []
        while len(chords) < 4:
            u, v = rng.sample(range(14), 2)
            if (u, v) not in chords and v != (u + 1) % 14:
                chords.append((u, v))
        g = chorded_cycle(14, True, chords)
        st = HittingSetApsp(g.copy(), 4, seed=instance)
        assert st.H == list(range(14))
        truth = np.array(all_pairs_dist(g))
        assert (st.exact_dist_matrix() == truth).all()
        understated += int((TwoLoopStitch(g.copy(), 4, seed=instance).exact_dist_matrix() < truth).sum())
    assert understated > 0
