"""Distance and path reporting against the BFS oracle, plus the
equivalence of implicit copies with explicitly maintained products."""

import math
import random

import numpy as np
import pytest

from dynsp.graph import DynamicGraph, all_pairs_dist, validate_path
from dynsp.product import ProductState
from dynsp.reporter import BEYOND, NoWitnessFound, PathReporter
from dynsp.ring import FieldParams

SMALL_P = 10007


def drive(n, D, seed, steps, p=None):
    rng = random.Random(seed)
    g = DynamicGraph(n)
    params = FieldParams(p=p, rng_seed=seed) if p else None
    pr = PathReporter(g, D, seed=seed, params=params)
    present = set()
    for _ in range(steps):
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if e in present:
            present.discard(e)
            pr.pr_delete(*e)
        else:
            present.add(e)
            pr.pr_insert(*e)
        yield pr, rng


def test_distances_match_bfs():
    for pr, _ in drive(14, 5, seed=1, steps=50):
        truth = all_pairs_dist(pr.g)
        md = pr.dist_matrix()
        for i in range(14):
            for j in range(14):
                want = truth[i][j]
                if want <= 5:
                    assert md[i, j] == want, (i, j)
                else:
                    assert md[i, j] > 5


def test_scalar_dist_and_beyond_sentinel():
    stream = drive(10, 3, seed=2, steps=40)
    for pr, rng in stream:
        truth = all_pairs_dist(pr.g)
        for _ in range(10):
            i, j = rng.sample(range(10), 2)
            d = pr.pr_dist(i, j)
            if truth[i][j] <= 3:
                assert d == truth[i][j]
            else:
                assert d is BEYOND
        assert pr.pr_dist(4, 4) == 0


def test_paths_are_valid_shortest_paths():
    for step, (pr, rng) in enumerate(drive(16, 6, seed=3, steps=60)):
        if step % 3:
            continue
        truth = all_pairs_dist(pr.g)
        for _ in range(12):
            i, j = rng.sample(range(16), 2)
            if truth[i][j] > 6:
                continue
            path = pr.pr_path(i, j)
            assert path[0] == i and path[-1] == j
            assert len(path) - 1 == truth[i][j]
            assert validate_path(pr.g, path)


def test_successor_decreases_distance():
    for pr, rng in drive(12, 5, seed=4, steps=35):
        truth = all_pairs_dist(pr.g)
        for _ in range(8):
            i, j = rng.sample(range(12), 2)
            d = truth[i][j]
            if not 1 <= d <= 5:
                continue
            s = pr.pr_successor(i, j)
            assert pr.g.has_edge(i, s)
            assert truth[s][j] == d - 1


def test_successor_is_the_smallest_index_closer_neighbour():
    ties = 0
    for pr, _ in drive(12, 5, seed=7, steps=35):
        truth = all_pairs_dist(pr.g)
        for i in range(12):
            for j in range(12):
                d = truth[i][j]
                if not 1 <= d <= 5:
                    continue
                closer = [s for s in pr.g.adj[i] if truth[s][j] == d - 1]
                ties += len(closer) > 1
                assert pr.pr_successor(i, j) == min(closer), (i, j)
    assert ties > 0


def test_overstated_neighbour_raises_no_witness(monkeypatch):
    g = DynamicGraph(5)
    for u, v in ((0, 1), (1, 2), (2, 3), (0, 4)):
        g.insert_edge(u, v)
    pr = PathReporter(g, 4, seed=8)
    assert pr.pr_path(0, 3) == [0, 1, 2, 3]
    real_col = pr.host.query_col

    def overstated(j, rows=None):
        col = real_col(j, rows)
        col[1] = np.concatenate([[0], col[1][:-1]])  # times u: min-degree + 1
        return col

    monkeypatch.setattr(pr.host, "query_col", overstated)
    with pytest.raises(NoWitnessFound) as err:
        pr.pr_path(0, 3)
    assert err.value.pair == (0, 3)


def test_successor_rejects_out_of_range_queries():
    g = DynamicGraph(4)
    g.insert_edge(0, 1)
    pr = PathReporter(g, 2, seed=0)
    with pytest.raises(ValueError):
        pr.pr_successor(0, 0)
    with pytest.raises(ValueError):
        pr.pr_successor(0, 3)  # unreachable: beyond D


def test_implicit_copies_match_explicit_products():
    """A materialized product state for one copy mask must agree with the
    lazily evaluated copy values."""
    n, D = 8, 4
    stream = drive(n, D, seed=5, steps=12, p=SMALL_P)
    for step, (pr, rng) in enumerate(stream):
        if step != 11:
            continue
        copy_index = 2
        ps = ProductState(pr.host, pr.bitcopy_E(copy_index))
        for i in range(n):
            for j in range(n):
                vals = pr.copy_values(i, j)
                assert np.array_equal(vals[copy_index], ps.prod_query(i, j).coeffs)


def test_no_witness_reported_with_seed():
    err = NoWitnessFound(2, 5, seed=77)
    assert err.pair == (2, 5)
    assert err.seed == 77
    assert "77" in str(err)


def test_reporter_owns_both_orientations():
    g = DynamicGraph(5)
    pr = PathReporter(g, 3, seed=6)
    pr.pr_insert(0, 1)
    assert pr.pr_dist(0, 1) == 1 and pr.pr_dist(1, 0) == 1
    pr.pr_delete(0, 1)
    assert pr.pr_dist(0, 1) is BEYOND
