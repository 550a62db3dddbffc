"""The benchmark's answer checks on hand-made graphs with known answers."""
from __future__ import annotations

import math
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import INF, CheckFailed, Mirror

BEYOND = object()


def path_graph(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_graph(n):
    return path_graph(n) + [(0, n - 1)]


def grid_graph(side):
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return edges


def queue_bfs(n, edges, s):
    adj = Mirror(n, edges).adj
    dist = [INF] * n
    dist[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] == INF:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def test_oracles_never_import_dynsp():
    here = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path.insert(0, {str(here)!r}); import oracles; "
        "sys.exit(any(m == 'dynsp' or m.startswith('dynsp.') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_distances_on_path_cycle_and_grid():
    d = oracles.distance_matrix(6, path_graph(6))
    assert d[0, 5] == 5 and d[2, 4] == 2 and d[3, 3] == 0
    d = oracles.distance_matrix(8, cycle_graph(8))
    assert d[0, 4] == 4 and d[1, 7] == 2 and d[6, 0] == 2
    d = oracles.distance_matrix(9, grid_graph(3))
    assert d[0, 8] == 4 and d[2, 6] == 4 and d[4, 0] == 2
    d = oracles.distance_matrix(5, [(0, 1), (2, 3)])
    assert d[0, 1] == 1 and d[0, 2] == INF and d[4, 4] == 0


def test_distances_match_a_queue_bfs_on_random_graphs():
    rng = np.random.default_rng(3)
    for n in (1, 7, 20):
        pairs = {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(n)} if n > 1 else set()
        d = oracles.distance_matrix(n, pairs)
        for s in range(n):
            assert list(d[s]) == queue_bfs(n, pairs, s)


def test_capped_distance_is_beyond_exactly_above_D():
    d = oracles.distance_matrix(6, path_graph(6))
    oracles.check_reporter_dist(d, 0, 2, 2, 3, BEYOND)
    oracles.check_reporter_dist(d, 0, 3, 3, 3, BEYOND)
    oracles.check_reporter_dist(d, 0, 5, BEYOND, 3, BEYOND)
    for answer in (BEYOND, 3):
        with pytest.raises(CheckFailed):
            oracles.check_reporter_dist(d, 0, 2, answer, 3, BEYOND)
    for answer in (5, 4):
        with pytest.raises(CheckFailed):
            oracles.check_reporter_dist(d, 0, 4, answer, 3, BEYOND)
    disconnected = oracles.distance_matrix(3, [(0, 1)])
    oracles.check_reporter_dist(disconnected, 0, 2, BEYOND, 3, BEYOND)


def test_exact_distance():
    d = oracles.distance_matrix(8, cycle_graph(8))
    oracles.check_exact_dist(d, 0, 5, 3)
    oracles.check_exact_dist(oracles.distance_matrix(3, [(0, 1)]), 0, 2, math.inf)
    with pytest.raises(CheckFailed):
        oracles.check_exact_dist(d, 0, 5, 5)


def test_paths_are_walks_of_present_edges_with_the_right_length():
    adj = Mirror(9, grid_graph(3)).adj
    oracles.check_path(adj, 0, 8, [0, 1, 2, 5, 8], 4)
    oracles.check_path(adj, 4, 4, [4], 0)
    bad = [
        ([0, 4, 8], 4),          # diagonal edges are absent
        ([0, 1, 2, 5], 4),       # wrong end
        ([1, 2, 5, 8], 4),       # wrong start
        ([0, 1, 2, 5, 8], 3),    # length differs from the distance
        ([0, 1, 0, 1, 2, 5, 8], 4),
        ([], 0),
    ]
    for path, length in bad:
        with pytest.raises(CheckFailed):
            oracles.check_path(adj, 0, 8, path, length)


def test_spanner_checks_on_a_cycle():
    g = cycle_graph(8)
    h = path_graph(8)                      # drops (0, 7): dist_H(0, 7) = 7
    dg, dh = oracles.distance_matrix(8, g), oracles.distance_matrix(8, h)
    oracles.check_subgraph(Mirror(8, g).adj, h)
    assert oracles.check_spanner(dg, dh, 1, 5) == 6
    with pytest.raises(CheckFailed):
        oracles.check_spanner(dg, dh, 1, 4)   # 7 > 2*1 + 4
    with pytest.raises(CheckFailed):
        oracles.check_subgraph(Mirror(8, g).adj, h + [(0, 4)])
    split = path_graph(4) + [(4, 5), (5, 6), (6, 7)]
    with pytest.raises(CheckFailed):
        oracles.check_spanner(dg, oracles.distance_matrix(8, split), 1, 100)
    assert oracles.check_spanner(dg, dg, 1, 0) == 0


def test_steiner_optimum_on_known_instances():
    assert oracles.steiner_opt(oracles.distance_matrix(5, path_graph(5)), [0, 4]) == 4
    assert oracles.steiner_opt(oracles.distance_matrix(5, path_graph(5)), [2]) == 0
    cycle = oracles.distance_matrix(8, cycle_graph(8))
    assert oracles.steiner_opt(cycle, [0, 4]) == 4
    assert oracles.steiner_opt(cycle, [0, 2, 4, 6]) == 6
    grid = oracles.distance_matrix(9, grid_graph(3))
    assert oracles.steiner_opt(grid, [0, 2, 6, 8]) == 6   # an H through the middle
    assert oracles.steiner_opt(grid, [0, 2, 4]) == 3      # a T: 0-1-2 and 1-4
    assert oracles.steiner_opt(oracles.distance_matrix(4, [(0, 1)]), [0, 3]) == INF


def test_steiner_tree_shape_checks():
    g = Mirror(9, grid_graph(3)).adj
    tree = [(0, 1), (1, 2), (1, 4), (4, 7), (6, 7), (7, 8)]
    verts = {0, 1, 2, 4, 6, 7, 8}
    oracles.check_steiner_tree(g, [0, 2, 6, 8], verts, tree, 6)
    oracles.check_steiner_tree(g, [4], {4}, [], 0)
    with pytest.raises(CheckFailed):
        oracles.check_steiner_tree(g, [0, 2, 6, 8, 5], verts, tree, 6)     # misses 5
    with pytest.raises(CheckFailed):
        oracles.check_steiner_tree(g, [0, 8], {0, 4, 8}, [(0, 4), (4, 8)], 2)  # not G's edges
    cyc = [(0, 1), (1, 4), (4, 3), (3, 0)]
    with pytest.raises(CheckFailed):
        oracles.check_steiner_tree(g, [0, 4], {0, 1, 3, 4}, cyc, 4)         # a cycle
    with pytest.raises(CheckFailed):
        oracles.check_steiner_tree(g, [0, 8], {0, 1, 7, 8}, [(0, 1), (7, 8)], 2)  # split
    with pytest.raises(CheckFailed):
        oracles.check_steiner_tree(g, [0, 2], {0, 1, 2}, [(0, 1), (1, 2)], 3)     # weight


def test_steiner_weight_bounds():
    oracles.check_steiner_weight(6, 6, 6)
    oracles.check_steiner_weight(12, 6, 6)
    oracles.check_steiner_weight(14, 6, 7)
    for weight, opt_g, opt_h in ((5, 6, 6), (13, 6, 6)):
        with pytest.raises(CheckFailed):
            oracles.check_steiner_weight(weight, opt_g, opt_h)
