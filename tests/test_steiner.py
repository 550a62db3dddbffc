"""Steiner trees against an exhaustive optimal-superset oracle."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from test_apsp import PerPairPaths, path_graph
from test_spanner_comb import bfs_active, estree_rebuild

from dynsp._kernels import derive_seed
from dynsp.apsp import ApproxApsp
from dynsp.graph import (
    AddTerminal,
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    RemoveTerminal,
    apply_update,
    bfs_dist,
)
from dynsp.spanner_comb import RebuildSpanner
from dynsp.steiner import (
    Disconnected,
    SteinerState,
    TerminalStateError,
)

INF = math.inf


def opt_steiner(g: DynamicGraph, S) -> float:
    """Minimum edges of a connected subgraph spanning S (exhaustive)."""
    S = sorted(S)
    if len(S) <= 1:
        return 0
    others = [v for v in range(g.n) if v not in S]
    for size in range(len(S), g.n + 1):
        for extra in itertools.combinations(others, size - len(S)):
            U = set(S) | set(extra)
            sub = DynamicGraph(g.n)
            for u, v in g.edges():
                if u in U and v in U:
                    sub.insert_edge(u, v)
            d = bfs_dist(sub, S[0])
            if all(d[v] < INF for v in U):
                return size - 1
    return INF


def check_tree(st: SteinerState, g: DynamicGraph, eps):
    tree = st.tree
    for u, v in tree.edges:
        assert g.has_edge(u, v)
    assert set(st.S) <= set(tree.vertices)
    # connectivity: the tree has exactly |V|-1 edges and BFS spans it
    if tree.vertices:
        sub = DynamicGraph(g.n)
        for u, v in tree.edges:
            sub.insert_edge(u, v)
        d = bfs_dist(sub, min(tree.vertices))
        assert all(d[v] < INF for v in tree.vertices)
        assert len(tree.edges) == len(tree.vertices) - 1
    opt = opt_steiner(g, st.S)
    assert opt <= tree.weight <= (2 + eps) * opt


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_against_exhaustive_oracle(seed):
    rng = random.Random(seed)
    n = 11
    g = DynamicGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                g.insert_edge(u, v)
    S = rng.sample(range(n), 4)
    try:
        st = SteinerState(g.copy(), S, eps=1, seed=seed)
    except Disconnected:
        assert opt_steiner(g, S) == INF
        return
    check_tree(st, g, eps=1)
    for _ in range(4):
        edges = sorted(g.edges())
        if edges and rng.random() < 0.5:
            e = rng.choice(edges)
            g.delete_edge(*e)
            ev = DeleteEdge(*e)
        else:
            while True:
                u, v = rng.sample(range(n), 2)
                if not g.has_edge(u, v):
                    break
            g.insert_edge(u, v)
            ev = InsertEdge(u, v)
        try:
            st.steiner_edge_update(ev)
        except Disconnected:
            assert opt_steiner(g, st.S) == INF
            continue
        check_tree(st, g, eps=1)


def test_adjacent_pair_is_a_single_edge():
    g = DynamicGraph(5)
    g.insert_edge(1, 2)
    g.insert_edge(2, 3)
    st = SteinerState(g, [1, 2], eps=1, seed=0)
    assert st.tree.weight == 1
    assert st.tree.edges == frozenset({(1, 2)})


def test_star_with_leaf_terminals():
    g = DynamicGraph(6)
    for leaf in range(1, 6):
        g.insert_edge(0, leaf)
    st = SteinerState(g, [1, 2, 3, 4, 5], eps=1, seed=0)
    assert st.tree.weight == 5
    assert set(st.tree.vertices) == set(range(6))


def test_terminal_operations_on_a_path():
    n = 14
    g = DynamicGraph(n)
    for v in range(n - 1):
        g.insert_edge(v, v + 1)
    st = SteinerState(g, [4], eps=1, seed=1)
    assert st.tree.weight == 0
    terminals = [4]

    def span():
        return max(terminals) - min(terminals)

    for v in (9, 2, 12):
        st.steiner_add_terminal(v)
        terminals.append(v)
        assert st.tree.weight == span()
    # adding a vertex already on the tree costs nothing
    st.steiner_add_terminal(7)
    terminals.append(7)
    assert st.tree.weight == span()
    st.steiner_remove_terminal(2)
    terminals.remove(2)
    assert st.tree.weight == span()
    while len(terminals) > 1:
        st.steiner_remove_terminal(terminals.pop())
    assert st.tree.weight == 0


def test_terminal_state_errors():
    g = DynamicGraph(4)
    g.insert_edge(0, 1)
    st = SteinerState(g, [0, 1], eps=1, seed=0)
    with pytest.raises(TerminalStateError):
        st.steiner_add_terminal(0)
    with pytest.raises(TerminalStateError):
        st.steiner_remove_terminal(3)


def test_disconnected_reports_the_partition():
    g = DynamicGraph(6)
    g.insert_edge(0, 1)
    g.insert_edge(2, 3)
    with pytest.raises(Disconnected) as err:
        SteinerState(g, [0, 1, 2], eps=1, seed=0)
    groups = err.value.groups
    assert sorted(map(sorted, groups)) == [[0, 1], [2]]


def test_apply_dispatches_script_events():
    g = DynamicGraph(8)
    for v in range(7):
        g.insert_edge(v, v + 1)
    st = SteinerState(g, [1], eps=1, seed=2)
    assert st.apply(AddTerminal(6)).weight == 5
    assert st.apply(InsertEdge(1, 6)).weight == 1
    assert st.apply(AddTerminal(3)).weight == 3
    assert st.apply(RemoveTerminal(1)).weight == 3
    assert st.apply(DeleteEdge(1, 6)) is st.tree and st.tree.weight == 3
    assert st.dist(3, 6) == st.provider.approx_dist(3, 6) == 3


# ---- the block closure against one distance read per pair --------------------


class _PerPairClosure(SteinerState):
    """SteinerState reading its closure one approx_dist per terminal pair
    (the reference for the block reads)."""

    def _add_closure_row(self, v):
        self.closure[v] = {}
        for w in self.S:
            d = self.provider.approx_dist(v, w)
            self.closure[v][w] = d
            self.closure[w][v] = d

    def _recompute_closure(self):
        terms = sorted(self.S)
        self.closure = {v: {} for v in terms}
        for a_idx, a in enumerate(terms):
            for b2 in terms[a_idx + 1 :]:
                d = self.provider.approx_dist(a, b2)
                self.closure[a][b2] = d
                self.closure[b2][a] = d


def _grid(side):
    g = DynamicGraph(side * side)
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                g.insert_edge(v, v + 1)
            if r + 1 < side:
                g.insert_edge(v, v + side)
    return g


@given(seed=hst.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_block_closure_and_tree_equal_the_per_pair_closure(seed):
    rng = random.Random(seed)
    g = _grid(6)
    # opposite corners, 10 apart, put a terminal pair beyond D from the start
    terminals = [0, 35] + rng.sample(range(1, 35), 2)

    def make(cls):
        # D = 3 puts some terminal pairs beyond D, answered on the spanner
        provider = ApproxApsp(g.copy(), 0.5, seed=seed, D=3, spanner_k=1)
        return cls(g.copy(), terminals, eps=1, seed=seed, provider=provider)

    st, ref = make(SteinerState), make(_PerPairClosure)
    beyond = 0
    for _ in range(24):
        assert st.closure == ref.closure
        assert st.tree.edges == ref.tree.edges and st.tree.vertices == ref.tree.vertices
        assert (st.provider._h_graph is None) == (ref.provider._h_graph is None)
        beyond += st.provider._h_graph is not None
        roll = rng.random()
        if roll < 0.25 and len(st.S) > 2:
            ev = RemoveTerminal(rng.choice(sorted(st.S)))
        elif roll < 0.5:
            ev = AddTerminal(rng.choice([v for v in range(36) if v not in st.S]))
        else:
            u, v = rng.sample(range(36), 2)
            ev = DeleteEdge(u, v) if g.has_edge(u, v) else InsertEdge(u, v)
            apply_update(g, ev)
            if INF in bfs_dist(g, 0):  # keep the terminals connected
                g.insert_edge(u, v)
                continue
        st.apply(ev)
        ref.apply(ev)
    assert beyond > 0


# ---- the batched expansion against one path read per MST edge ----------------


class _BfsActiveSpanner(RebuildSpanner):
    """RebuildSpanner whose constructions are the EsTree-based reference,
    deciding activeness with one BFS per vertex (the reference for the
    activeness pass, one BFS per level, and for the BFS trees)."""

    def _ensure(self):
        if self._state is None:
            seed = derive_seed(self.seed, self._counter)
            self._state, _ = estree_rebuild(self.g, self.eps, seed, self.k, bfs_active)
        return self._state


def _steiner_pair(g, terminals, seed):
    """SteinerState and its reference: per-edge path reads over a spanner
    with per-vertex activeness; D = 3 sends some reads to the spanner."""
    st = SteinerState(
        g.copy(), terminals, eps=1, seed=seed,
        provider=ApproxApsp(g.copy(), 0.5, seed=seed, D=3, spanner_k=2),
    )
    ref_g = g.copy()
    spanner = _BfsActiveSpanner(ref_g, 0.25, derive_seed(seed, 0x5A), k=2)
    ref = SteinerState(
        ref_g, terminals, eps=1, seed=seed,
        provider=PerPairPaths(ref_g, 0.5, seed=seed, spanner=spanner, D=3),
    )
    return st, ref


@given(seed=hst.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
def test_tree_and_spanner_equal_the_per_edge_expansion(seed):
    rng = random.Random(seed)
    g = _grid(6)
    st, ref = _steiner_pair(g, rng.sample(range(36), 4), seed)
    edge_updates = 0
    for _ in range(24):
        assert st.tree.edges == ref.tree.edges and st.tree.vertices == ref.tree.vertices
        assert st.provider.spanner.edges() == ref.provider.spanner.edges()
        roll = rng.random()
        if roll < 0.2 and len(st.S) > 2:
            ev = RemoveTerminal(rng.choice(sorted(st.S)))
        elif roll < 0.4:
            ev = AddTerminal(rng.choice([v for v in range(36) if v not in st.S]))
        else:
            u, v = rng.sample(range(36), 2)
            ev = DeleteEdge(u, v) if g.has_edge(u, v) else InsertEdge(u, v)
            apply_update(g, ev)
            if INF in bfs_dist(g, 0):  # keep the terminals connected
                g.insert_edge(u, v)
                continue
            edge_updates += 1
        before = st.stats()
        st.apply(ev)
        ref.apply(ev)
        after = st.stats()
        if isinstance(ev, (InsertEdge, DeleteEdge)):
            # one closure block and one column block over the MST's far ends
            assert after["block_reads"] - before["block_reads"] == 2
            assert after["closure_reads"] - before["closure_reads"] == 1
            far_ends = {b2 for _a, b2 in st._mst_edges()}
            assert after["column_reads"] - before["column_reads"] == len(far_ends)
    assert edge_updates > 0
    assert st.stats()["spanner_rows"] > 0  # the regime under test: reads past D


def test_steiner_stats_repeat_on_one_seed():
    def run():
        rng = random.Random(3)
        g = _grid(5)
        st = SteinerState(
            g.copy(), [0, 24], eps=1, seed=3,
            provider=ApproxApsp(g.copy(), 0.5, seed=3, D=3, spanner_k=1),
        )
        st.apply(AddTerminal(4))
        st.apply(RemoveTerminal(0))
        for e in rng.sample(sorted(g.edges()), 3):
            st.apply(DeleteEdge(*e))
            st.apply(InsertEdge(*e))
        return st.stats()

    stats = run()
    assert stats == run()
    # the second addition at set-up (the first has no row to read), one
    # more, then one closure per edge update
    assert stats["closure_reads"] == 2 + 6
    assert stats["spanner_updates"] == 6


def test_an_edge_update_with_one_terminal_reads_nothing():
    g = path_graph(6)
    st = SteinerState(g.copy(), [2], eps=1, seed=1, provider=ApproxApsp(g.copy(), 0.5, seed=1, D=6))
    st.apply(InsertEdge(0, 5))
    assert st.stats()["block_reads"] == 0 and st.stats()["closure_reads"] == 0
    assert st.tree.vertices == {2} and st.closure == {2: {}}
