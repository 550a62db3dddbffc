"""Distance and path reporting against the BFS oracle, plus the
paper's witness sums against their defining product E_c M^-1."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from inverse_oracles import bitcopy_E

from dynsp._kernels import poly_mat_mul
from dynsp.graph import (
    AddTerminal,
    DynamicGraph,
    IllegalUpdate,
    InsertEdge,
    all_pairs_dist,
    graph_of,
    validate_path,
)
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
        md = pr.dist_block(range(14), range(14))
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
            s = pr.path(i, j)[1]
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
                assert pr.path(i, j)[1] == min(closer), (i, j)
    assert ties > 0


def test_overstated_neighbour_raises_no_witness(monkeypatch):
    g = DynamicGraph(5)
    for u, v in ((0, 1), (1, 2), (2, 3), (0, 4)):
        g.insert_edge(u, v)
    pr = PathReporter(g, 4, seed=8)
    assert pr.pr_path(0, 3) == [0, 1, 2, 3]
    before = pr.stats()
    real_read = PathReporter._read

    def overstated(self, rows, cols):
        md = real_read(self, rows, cols)
        md[1] += 1  # vertex 1 one min-degree further from everything
        return md

    monkeypatch.setattr(PathReporter, "_read", overstated)
    with pytest.raises(NoWitnessFound) as err:
        pr.pr_path(0, 3)
    # the walk stops at 0, whose only closer neighbour 1 now looks level
    assert err.value.pair == (0, 3)
    after = pr.stats()
    assert after["no_witness"] == 1
    assert after["successor_steps"] == before["successor_steps"]
    assert after["column_reads"] == before["column_reads"] + 1


def test_a_walk_stuck_midway_names_the_stuck_vertex(monkeypatch):
    pr = PathReporter(graph_of(5, [(0, 1), (1, 2), (2, 3), (0, 4)]), 4, seed=8)
    real_read = PathReporter._read

    def overstated(self, rows, cols):
        md = real_read(self, rows, cols)
        md[2] += 1  # 1's only closer neighbour now looks level with it
        return md

    monkeypatch.setattr(PathReporter, "_read", overstated)
    with pytest.raises(NoWitnessFound) as err:
        pr.path(0, 3)
    assert err.value.pair == (1, 3)
    assert pr.stats()["successor_steps"] == 1 and pr.stats()["no_witness"] == 1


def test_successor_rejects_out_of_range_queries():
    g = DynamicGraph(4)
    g.insert_edge(0, 1)
    pr = PathReporter(g, 2, seed=0)
    assert pr.path(0, 0) == [0]  # no successor at the target
    assert pr.path(0, 3) is None
    with pytest.raises(ValueError):
        pr.pr_path(0, 3)  # unreachable: beyond D


def test_implicit_copies_match_explicit_products():
    """Every copy value of a pair is entry (i, j) of E_c M^-1, for the
    copy's explicit witness matrix E_c."""
    n, D = 8, 4
    stream = drive(n, D, seed=5, steps=12, p=SMALL_P)
    for step, (pr, rng) in enumerate(stream):
        if step != 11:
            continue
        copy_index = 2
        prod = poly_mat_mul(bitcopy_E(pr, copy_index), pr.host.query_full(), SMALL_P)
        for i in range(n):
            for j in range(n):
                vals = pr.copy_values(i, j)
                assert np.array_equal(vals[copy_index], prod[i, j])


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


def test_protocol_reads_and_non_edge_events():
    g = graph_of(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    pr = PathReporter(g, 3, seed=4)
    assert pr.dist(0, 3) == 3.0 and pr.path(0, 3) == [0, 1, 2, 3]
    assert pr.dist(0, 4) == math.inf and pr.path(0, 4) is None  # beyond D
    assert pr.dist(0, 5) == math.inf and pr.path(0, 5) is None  # unreachable
    with pytest.raises(IllegalUpdate):
        pr.apply(AddTerminal(2))
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    pr.apply(InsertEdge(0, 4))
    assert pr.dist(0, 4) == 1.0 and pr.path(3, 0) == [3, 4, 0]


# ---- block reads against the single-pair reads -------------------------------


def _per_pair(pr, rows, cols):
    beyond = pr.D + 1
    return np.array(
        [[beyond if (d := pr.pr_dist(i, j)) is BEYOND else d for j in cols] for i in rows],
        dtype=np.int64,
    ).reshape(len(rows), len(cols))


@given(
    n=hst.integers(2, 12),
    D=hst.integers(1, 5),
    seed=hst.integers(0, 2**16),
    small_p=hst.booleans(),
    picks=hst.lists(
        hst.tuples(hst.lists(hst.integers(0, 11), max_size=6), hst.lists(hst.integers(0, 11), max_size=6)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=30, deadline=None)
def test_dist_block_matches_pr_dist_after_every_update(n, D, seed, small_p, picks):
    pending = False
    for pr, _ in drive(n, D, seed, steps=n + 4, p=SMALL_P if small_p else None):
        pending |= bool(pr.host.nrows)
        everyone = list(range(n))
        blocks = [(everyone, everyone), (everyone, [])]
        # repeated, unsorted and empty index lists, with diagonal pairs
        blocks += [([i % n for i in rows], [j % n for j in cols]) for rows, cols in picks]
        for rows, cols in blocks:
            got = pr.dist_block(rows, cols)
            assert got.shape == (len(rows), len(cols))
            assert np.array_equal(got, _per_pair(pr, rows, cols)), (rows, cols)
    # some reads ran against a nonzero N, unless every update resets
    assert pending or pr.host.reset_period <= 2


def test_column_block_walks_match_single_paths():
    for step, (pr, rng) in enumerate(drive(16, 6, seed=9, steps=40)):
        if step % 4:
            continue
        targets = rng.sample(range(16), 5)
        cols = pr.column_block(targets)
        assert list(cols) == targets
        for j in targets:
            for i in range(16):
                assert pr.walk(cols[j], i, j) == pr.path(i, j), (i, j)


def test_stats_count_reads_and_repeat_on_one_seed():
    def run():
        for pr, rng in drive(12, 4, seed=10, steps=30):
            pr.dist_block(range(12), [3, 5])
            pr.pr_dist(*rng.sample(range(12), 2))
            pr.path(*rng.sample(range(12), 2))
            pr.walk(pr.column_block([1, 2])[2], 7, 2)
        return pr.stats()

    first = run()
    assert first == run()
    # per step: dist_block, pr_dist, path's column and one column block
    assert first["block_reads"] == 4 * 30
    assert first["column_reads"] == (1 + 2) * 30
    assert first["entries_read"] == (12 * 2 + 1 + 12 + 12 * 2) * 30
    assert first["successor_steps"] > 0 and first["no_witness"] == 0


def test_empty_blocks_make_no_read():
    pr = PathReporter(graph_of(4, [(0, 1)]), 2, seed=1)
    assert pr.dist_block([], [0, 1]).shape == (0, 2)
    assert pr.dist_block([0, 1], []).shape == (2, 0)
    assert pr.column_block([]) == {}
    assert pr.stats()["block_reads"] == 0
