"""Dynamic graph container, BFS oracle, and the script exchange format."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsp.graph import (
    DeleteEdge,
    DistQuery,
    DynamicGraph,
    IllegalUpdate,
    InsertEdge,
    PathQuery,
    PhaseMark,
    UpdateScript,
    all_pairs_dist,
    apply_update,
    bfs_dist,
    bfs_dist_bounded,
    bfs_path,
    bfs_tree,
    graph_of,
    parse_script,
    serialize_script,
    validate_path,
)

INF = math.inf


def test_illegal_updates_rejected():
    g = DynamicGraph(4)
    with pytest.raises(IllegalUpdate):
        g.insert_edge(1, 1)
    with pytest.raises(IllegalUpdate):
        g.delete_edge(0, 1)
    g.insert_edge(0, 1)
    with pytest.raises(IllegalUpdate):
        g.insert_edge(1, 0)  # same undirected edge
    with pytest.raises(IllegalUpdate):
        g.insert_edge(0, 4)


def test_undirected_edges_are_mirrored():
    g = DynamicGraph(3)
    g.insert_edge(0, 2)
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 2)]
    g.delete_edge(2, 0)
    assert g.edge_count == 0


def test_directed_edges_are_oriented():
    g = DynamicGraph(3, directed=True)
    g.insert_edge(0, 1)
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)
    g.insert_edge(1, 0)
    assert g.edge_count == 2
    assert 0 in g.radj[1] and 1 in g.radj[0]


def test_bfs_on_known_shapes():
    path = DynamicGraph(5)
    for v in range(4):
        path.insert_edge(v, v + 1)
    assert bfs_dist(path, 0) == [0, 1, 2, 3, 4]
    assert bfs_dist_bounded(path, [0], 2) == {0: 0, 1: 1, 2: 2}
    lonely = DynamicGraph(3)
    assert bfs_dist(lonely, 1) == [INF, 0, INF]


@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=30, deadline=None)
def test_bfs_triangle_inequality(n, data):
    g = DynamicGraph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs:
        if data.draw(st.booleans()):
            g.insert_edge(u, v)
    dist = all_pairs_dist(g)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert dist[a][c] <= dist[a][b] + dist[b][c]


def test_script_roundtrip():
    script = UpdateScript(
        n=5,
        directed=False,
        initial_edges=[(0, 1), (1, 2)],
        events=[
            InsertEdge(2, 3),
            DistQuery(0, 3, 3.0),
            PathQuery(0, 3),
            DeleteEdge(0, 1),
            DistQuery(0, 3, INF),
            PhaseMark(0, 1),
        ],
    )
    text = serialize_script(script)
    back = parse_script(text)
    assert back == script
    script.validate()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_script("E 0 1\n")  # missing header
    with pytest.raises(ValueError):
        parse_script("N 4 0\nX 1 2\n")
    with pytest.raises(ValueError):
        parse_script("N 4 0\nI 1\n")


@pytest.mark.parametrize("line", ["QD -1 2", "QD 0 4", "QP 4 0", "QP 1 -1", "T+ 4", "T- -1"])
def test_parse_rejects_query_and_terminal_vertices_outside_the_graph(line):
    text = f"N 4 0\nE 0 1\nQD 0 3\nT+ 3\n{line}\n"
    bad = next(v for v in map(int, line.split()[1:]) if not 0 <= v < 4)
    with pytest.raises(ValueError) as err:
        parse_script(text)
    assert str(err.value) == f"line 5: vertex {bad} outside [0, 4) in {line!r}"
    # in range, the same line parses; the header may follow the events
    fixed = line.replace("-1", "3").replace("4", "3")
    assert len(parse_script(f"QD 0 3\n{fixed}\nN 4 0\n").events) == 2


def test_validate_path():
    g = DynamicGraph(4)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    assert validate_path(g, [0, 1, 2])
    assert not validate_path(g, [0, 2])
    assert validate_path(g, [3])


def test_apply_update_dispatch():
    g = DynamicGraph(3)
    apply_update(g, InsertEdge(0, 1))
    assert g.has_edge(0, 1)
    apply_update(g, DeleteEdge(0, 1))
    assert not g.has_edge(0, 1)
    with pytest.raises(IllegalUpdate):
        apply_update(g, DistQuery(0, 1))


def test_bfs_path_steps_to_the_smallest_index_closer_neighbour():
    g = graph_of(6, [(0, 2), (0, 1), (1, 3), (2, 3), (3, 4)])
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
    assert bfs_path(g, 0, 4) == [0, 1, 3, 4]
    assert bfs_path(g, 4, 0) == [4, 3, 1, 0]
    assert bfs_path(g, 2, 2) == [2]
    assert bfs_path(g, 0, 5) is None
    # directed: follow arcs only, towards the target
    d = graph_of(4, [(0, 1), (1, 2), (2, 0), (0, 3)], directed=True)
    assert bfs_path(d, 1, 3) == [1, 2, 0, 3]
    assert bfs_path(d, 3, 0) is None


def _bfs_path_on_a_reversed_copy(g, u, v):
    """bfs_path as it was written before it read the reverse adjacency:
    distances towards v from a BFS on a reversed copy of the whole graph
    (the reference for the directed case)."""
    to_v = g if not g.directed else graph_of(g.n, ((b, a) for a, b in g.edges()), True)
    dist = bfs_dist(to_v, v)
    if dist[u] == INF:
        return None
    path = [u]
    while path[-1] != v:
        want = dist[path[-1]] - 1
        path.append(min(w for w in g.adj[path[-1]] if dist[w] == want))
    return path


@given(
    n=st.integers(1, 16),
    directed=st.booleans(),
    arcs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60),
)
@settings(max_examples=80, deadline=None)
def test_bfs_path_matches_a_bfs_on_a_reversed_copy(n, directed, arcs):
    g = DynamicGraph(n, directed)
    for a, b in arcs:
        a, b = a % n, b % n
        if a != b and not g.has_edge(a, b):
            g.insert_edge(a, b)
    for u in range(n):
        for v in range(n):
            assert bfs_path(g, u, v) == _bfs_path_on_a_reversed_copy(g, u, v), (u, v)


def test_bfs_tree_takes_the_smallest_neighbour_one_level_closer():
    g = graph_of(7, [(0, 2), (0, 1), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
    level, parent = bfs_tree(g, 0, 4)
    assert level == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3, 5: 4}
    assert parent == {0: None, 1: 0, 2: 0, 3: 1, 4: 3, 5: 4}
    assert bfs_tree(g, 6, 0) == ({6: 0}, {6: None})
    # directed: the parent is an in-neighbour
    d = graph_of(4, [(0, 2), (0, 1), (2, 3), (1, 3), (3, 0)], directed=True)
    assert bfs_tree(d, 0, 3) == ({0: 0, 1: 1, 2: 1, 3: 2}, {0: None, 1: 0, 2: 0, 3: 1})


@given(
    n=st.integers(1, 16),
    directed=st.booleans(),
    arcs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60),
    radius=st.integers(0, 6),
)
@settings(max_examples=80, deadline=None)
def test_bfs_tree_is_the_bounded_ball_with_the_smallest_parents(n, directed, arcs, radius):
    g = DynamicGraph(n, directed)
    for a, b in arcs:
        a, b = a % n, b % n
        if a != b and not g.has_edge(a, b):
            g.insert_edge(a, b)
    dist = bfs_dist(g, 0)
    level, parent = bfs_tree(g, 0, radius)
    assert level == {v: d for v, d in enumerate(dist) if d <= radius}
    assert parent.keys() == level.keys() and parent[0] is None
    for v in level.keys() - {0}:
        closer = [w for w in range(n) if g.has_edge(w, v) and dist[w] == dist[v] - 1]
        assert parent[v] == min(closer)


def _two_pass_bfs_tree(g, root, radius):
    """The definition bfs_tree keeps: the bounded ball, then for every
    vertex the smallest in-neighbour one level closer."""
    level = bfs_dist_bounded(g, [root], radius)
    parent = {root: None}
    for v, lv in level.items():
        if v != root:
            parent[v] = min(w for w in g.radj[v] if level.get(w) == lv - 1)
    return level, parent


@given(
    n=st.integers(1, 16),
    directed=st.booleans(),
    arcs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60),
    root=st.integers(0, 15),
)
@settings(max_examples=120, deadline=None)
def test_bfs_tree_equals_the_two_pass_definition_in_order(n, directed, arcs, root):
    g = DynamicGraph(n, directed)
    for a, b in arcs:
        a, b = a % n, b % n
        if a != b and not g.has_edge(a, b):
            g.insert_edge(a, b)
    root %= n
    for radius in range(n + 1):
        level, parent = bfs_tree(g, root, radius)
        want_level, want_parent = _two_pass_bfs_tree(g, root, radius)
        assert (level, parent) == (want_level, want_parent), radius
        assert list(level.items()) == list(want_level.items()), radius
        assert list(parent.items()) == list(want_parent.items()), radius
