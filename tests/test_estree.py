"""Even-Shiloach trees against BFS recomputation oracles."""

import random

import pytest

from dynsp.estree import DECREMENTAL, INCREMENTAL, EsTree, ModeViolation
from dynsp.graph import DynamicGraph, bfs_dist_bounded


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


def check_tree(tree: EsTree):
    want = bfs_dist_bounded(tree.g, [tree.root], tree.radius)
    assert tree.level == want
    for v, par in tree.parent.items():
        if par is not None:
            assert tree.g.has_edge(par, v)
            assert tree.level[par] == tree.level[v] - 1


@pytest.mark.parametrize("seed", range(5))
def test_decremental_levels_match_bfs(seed):
    g, rng = random_graph(30, 70, seed)
    tree = EsTree(g, 0, radius=6, mode=DECREMENTAL)
    check_tree(tree)
    edges = sorted(g.edges())
    rng.shuffle(edges)
    for u, v in edges[:50]:
        g.delete_edge(u, v)
        changes = tree.es_delete(u, v)
        check_tree(tree)
        for x, (old, new) in changes.items():
            assert new is None or old is None or new > old


@pytest.mark.parametrize("seed", range(5))
def test_incremental_levels_match_bfs(seed):
    rng = random.Random(100 + seed)
    g = DynamicGraph(25)
    tree = EsTree(g, 3, radius=5, mode=INCREMENTAL)
    present = set()
    for _ in range(80):
        while True:
            u, v = rng.sample(range(25), 2)
            e = (min(u, v), max(u, v))
            if e not in present:
                break
        present.add(e)
        g.insert_edge(*e)
        changes = tree.es_insert(*e)
        check_tree(tree)
        for x, (old, new) in changes.items():
            assert old is None or new < old


def test_mode_violations():
    g = DynamicGraph(3)
    g.insert_edge(0, 1)
    dec = EsTree(g, 0, 2, DECREMENTAL)
    with pytest.raises(ModeViolation):
        dec.es_insert(1, 2)
    inc = EsTree(g, 0, 2, INCREMENTAL)
    with pytest.raises(ModeViolation):
        inc.es_delete(0, 1)
    with pytest.raises(ValueError):
        EsTree(g, 0, 2, "other")


def test_radius_truncates_the_ball():
    g = DynamicGraph(6)
    for v in range(5):
        g.insert_edge(v, v + 1)
    tree = EsTree(g, 0, radius=3, mode=DECREMENTAL)
    assert tree.level == {0: 0, 1: 1, 2: 2, 3: 3}
    g.delete_edge(1, 2)
    tree.es_delete(1, 2)
    assert tree.level == {0: 0, 1: 1}


def test_tree_edges_normalized():
    g = DynamicGraph(4)
    g.insert_edge(2, 0)
    g.insert_edge(0, 3)
    tree = EsTree(g, 2, radius=4, mode=DECREMENTAL)
    assert tree.tree_edges() == {(0, 2), (0, 3)}


def test_vertex_drops_and_returns_incrementally():
    g = DynamicGraph(4)
    tree = EsTree(g, 0, radius=2, mode=INCREMENTAL)
    assert tree.level == {0: 0}
    g.insert_edge(0, 1)
    tree.es_insert(0, 1)
    g.insert_edge(1, 2)
    tree.es_insert(1, 2)
    g.insert_edge(2, 3)
    tree.es_insert(2, 3)  # vertex 3 is outside radius 2
    assert tree.level == {0: 0, 1: 1, 2: 2}
    g.insert_edge(0, 3)
    tree.es_insert(0, 3)
    assert tree.level == {0: 0, 1: 1, 2: 2, 3: 1}
