"""Algebraic spanner: stretch certificate, activeness, helper spanner."""

import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from test_spanner_comb import bfs_active, brute_force_active

from dynsp.cli import main
from dynsp.graph import (
    DeleteEdge,
    DynamicGraph,
    IllegalUpdate,
    InsertEdge,
    all_pairs_dist,
    bfs_dist,
    bfs_dist_bounded,
    descend,
    graph_of,
)
from dynsp.reporter import BEYOND, NoWitnessFound, PathReporter
from dynsp.spanner_alg import AlgSpannerState, greedy_spanner


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


def mixed_events(g, rng, count):
    present = set(g.edges())
    complete = g.n * (g.n - 1) // 2
    for _ in range(count):
        if present and (rng.random() < 0.5 or len(present) == complete):
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


def helper_active(st: AlgSpannerState, oracle=brute_force_active) -> list[bool]:
    """st's activeness from a per-vertex oracle on its helper G~."""
    return oracle(graph_of(st.g.n, st.helper), st.level, st._block_floors)


def check_state(st: AlgSpannerState, eps):
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
                assert dh[i][j] <= (1 + eps) * dg[i][j] + st.beta_certificate
    assert st.active == helper_active(st)


def test_greedy_helper_spanner_properties():
    g, _ = random_graph(30, 100, seed=1)
    stretch = 2 * math.ceil(math.log2(30)) - 1
    kept = greedy_spanner(g, stretch)
    assert kept <= set(g.edges())
    h = DynamicGraph(30)
    for u, v in kept:
        h.insert_edge(u, v)
    dg = all_pairs_dist(g)
    dh = all_pairs_dist(h)
    for i in range(30):
        for j in range(30):
            if dg[i][j] < math.inf:
                assert dh[i][j] <= stretch * dg[i][j]


def test_mixed_updates_keep_certificate_and_activeness():
    g, rng = random_graph(32, 70, seed=2)
    st = AlgSpannerState(g, eps=1, kappa=0.5, seed=3, k=2, b=3)
    check_state(st, eps=1)
    for step, ev in enumerate(mixed_events(g, rng, 16)):
        st.alg_update(ev)
        if step % 4 == 3:
            check_state(st, eps=1)


def test_high_level_paths_come_from_the_algebraic_core():
    # b chosen so the level-2 pair threshold is a few hops: the alg path
    # branch must fire and still produce exact shortest paths (audited by
    # check_state's stretch test above; here we check the plumbing knobs)
    g, _ = random_graph(40, 90, seed=4)
    st = AlgSpannerState(g, eps=1, kappa=0.5, seed=5, k=2, b=6)
    assert st.gamma == 1
    assert st.pair_threshold(2) > 1
    assert st.depth >= math.ceil(st.pair_threshold(2))
    check_state(st, eps=1)


def test_level_sampling_and_active_hooks():
    g, _ = random_graph(26, 40, seed=6)
    st = AlgSpannerState(g, eps=1, kappa=0.5, seed=7, k=2, b=3)
    assert set(st.level) <= set(range(st.k + 1))
    # all of the top level is always active
    assert all(st.active[v] for v in range(26) if st.level[v] == st.k)
    assert st.active == helper_active(st) == helper_active(st, bfs_active)


def test_threshold_arithmetic_is_exact():
    g = DynamicGraph(8)
    st = AlgSpannerState(g, eps=1, kappa=0.5, seed=0, k=2, b=3)
    assert st.c_sum(0, 2) == 3 + 9
    assert st._block_floors[2][0] == math.floor(Fraction(st.c_sum(0, 2), 4)) == 3
    assert st.beta_certificate == 27


def test_parameter_domains():
    g = DynamicGraph(6)
    with pytest.raises(ValueError):
        AlgSpannerState(g, eps=0, kappa=0.5, seed=0)
    with pytest.raises(ValueError):
        AlgSpannerState(g, eps=1, kappa=0.7, seed=0)
    with pytest.raises(ValueError):
        AlgSpannerState(DynamicGraph(6, directed=True), eps=1, kappa=0.5, seed=0)
    for name in ("k", "b"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"need {name} >= 1, got {name} = {value}"):
                AlgSpannerState(g, eps=1, kappa=0.5, seed=0, **{name: value})


def test_edgeless_graph_has_empty_spanner():
    g = DynamicGraph(9)
    st = AlgSpannerState(g, eps=1, kappa=0.5, seed=1, k=2, b=3)
    assert st.H == set()
    # every sampled vertex is active: nothing is reachable to block it
    assert all(st.active)


def test_single_edge_is_kept():
    g = DynamicGraph(5)
    g.insert_edge(1, 3)
    st = AlgSpannerState(g, eps=1, kappa=0.5, seed=2, k=1, b=3)
    assert (1, 3) in st.H


def _bfs_parents(g, s, depth):
    """{v: (dist, parent)} within depth from s, scanning sorted adjacency,
    so each parent is the smallest choice (the path rule the spanner
    used before the shared descent, kept as its oracle)."""
    out = {s: (0, -1)}
    q = deque([s])
    while q:
        u = q.popleft()
        du = out[u][0]
        if du == depth:
            continue
        for v in sorted(g.adj[u]):
            if v not in out:
                out[v] = (du + 1, u)
                q.append(v)
    return out


def _walk_parents(reach, t):
    path = [t]
    while reach[path[-1]][1] != -1:
        path.append(reach[path[-1]][1])
    path.reverse()
    return path


@given(
    n=hst.integers(2, 30),
    density=hst.floats(0.0, 0.5),
    depth=hst.integers(0, 8),
    seed=hst.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_descent_over_a_bounded_bfs_is_the_bfs_parent_path(n, density, depth, seed):
    g, _ = random_graph(n, int(density * n * (n - 1) / 2), seed)
    towards = [bfs_dist_bounded(g, [a2], depth) for a2 in range(n)]
    for a in range(n):
        reach = _bfs_parents(g, a, depth)
        for a2, dist in enumerate(towards):
            assert (a in dist) == (a2 in reach)
            if a in dist:
                assert descend(g, a, a2, dist.get) == _walk_parents(reach, a2), (a, a2)


def _grid_edges(cells, width):
    """Edges of the grid whose row-major cells are the given vertices."""
    edges = []
    for x, v in enumerate(cells):
        if x % width < width - 1:
            edges.append((v, cells[x + 1]))
        if x + width < len(cells):
            edges.append((v, cells[x + width]))
    return [(min(e), max(e)) for e in edges]


def test_h_is_the_same_whichever_levels_use_bfs(monkeypatch):
    # gamma = floor(kappa k) is 0 at kappa = 0.3 and 1 at 0.5, so level 0
    # is walked down the path core in one state and by BFS in the other.
    # Level-0 vertices stay active only out of reach of higher levels, so
    # they get a 3 x 3 grid of their own, in shuffled vertex order, with
    # tied shortest paths of up to 3 hops, which b = 128 lets level 0 pair.
    # Each pair's path must match too, not only their union H.
    n, params = 32, dict(eps=1, seed=3, k=2, b=128)
    level = AlgSpannerState(DynamicGraph(n), kappa=0.5, **params).level
    low = [v for v in range(n) if level[v] == 0][:9]
    high = [v for v in range(n) if level[v] > 0]
    rng = random.Random(2)  # an order where some tied paths depend on the end walked from
    rng.shuffle(low)
    edges = set(_grid_edges(low, 3))
    while len(edges) < 12 + 20:
        u, v = sorted(rng.sample(high, 2))
        edges.add((u, v))
    g = graph_of(n, edges)
    paths = {}
    real_add_path = AlgSpannerState._add_path

    def add_path(self, path):
        paths.setdefault(self, set()).add(tuple(path))
        real_add_path(self, path)

    monkeypatch.setattr(AlgSpannerState, "_add_path", add_path)
    sts = [AlgSpannerState(g.copy(), kappa=kappa, **params) for kappa in (0.3, 0.5)]
    assert [st.gamma for st in sts] == [0, 1] and sts[0]._pair_floors[0] == 3
    events = [
        DeleteEdge(*_grid_edges(low, 3)[0]),
        InsertEdge(min(low[0], low[4]), max(low[0], low[4])),
        InsertEdge(min(low[2], low[6]), max(low[2], low[6])),
        *mixed_events(graph_of(n, (e for e in edges if e[0] in high)), rng, 6),
        DeleteEdge(min(low[0], low[4]), max(low[0], low[4])),
    ]
    multi_hop = 0
    for ev in [None, *events]:
        if ev is not None:
            paths.clear()
            for st in sts:
                st.alg_update(ev)
        assert sts[0].H == sts[1].H
        assert paths[sts[0]] == paths[sts[1]]
        members = [v for v in low if sts[0].active[v]]
        for a in members:
            dist = bfs_dist_bounded(sts[0].g, [a], 3)
            multi_hop += sum(2 <= dist.get(a2, 0) for a2 in members if a2 > a)
    assert multi_hop > 0


def _rebuild_on_every_level(self) -> None:
    """AlgSpannerState._rebuild without skipping levels whose pair
    threshold is below one hop (the reference for the skip)."""
    g = self.g
    n = g.n
    self.helper = greedy_spanner(g, self.helper_stretch)
    helper_g = DynamicGraph(n, directed=False)
    for u, v in self.helper:
        helper_g.insert_edge(u, v)
    self.active = bfs_active(helper_g, self.level, self._block_floors)
    self.H = set(self.helper)
    for i in range(self.k + 1):
        members = sorted(
            v for v in range(n) if self.level[v] == i and self.active[v]
        )
        if len(members) < 2:
            continue
        thr = self.pair_threshold(i)
        depth = min(n, math.ceil(thr))
        use_alg = i >= self.gamma
        for a in members:
            reach = None
            for a2 in members:
                if a2 <= a:
                    continue
                if use_alg:
                    try:
                        d = self.alg.pr_dist(a, a2)
                        if d is BEYOND or Fraction(d) > thr:
                            continue
                        self._add_path(self.alg.pr_path(a, a2))
                        continue
                    except NoWitnessFound:
                        self.fallback_pairs.append((a, a2))
                if reach is None:
                    reach = _bfs_parents(g, a, depth)
                if a2 in reach and Fraction(reach[a2][0]) <= thr:
                    self._add_path(_walk_parents(reach, a2))
    if len(self.H) > self.reinit_threshold:
        self.reinit_events.append(self.update_count)
        self._init_everything()


class _EveryLevel(AlgSpannerState):
    _rebuild = _rebuild_on_every_level


def test_levels_below_one_hop_make_no_queries_and_change_nothing(monkeypatch):
    g, rng = random_graph(40, 50, seed=1)
    params = dict(eps=1, kappa=0.5, seed=1, k=2, b=5)
    st = AlgSpannerState(g.copy(), **params)
    ref = _EveryLevel(g.copy(), **params)
    # level 1 has threshold 25/(8 log2 40) < 1 but is at or above gamma,
    # so the rule without the skip queries the path core for its pairs
    assert st.gamma == 1 and st.pair_threshold(1) < 1 <= st.pair_threshold(2)
    assert sum(st.active[v] for v in range(40) if st.level[v] == 1) >= 2
    # st reads each level in one block and ref one pair at a time through
    # pr_dist, which is a 1 x 1 block: the spy sees the levels of both
    queried = {st: [], ref: []}
    real_block = PathReporter.dist_block

    def spy(self, rows, cols):
        s = st if self is st.alg else ref
        queried[s].extend((s.level[i], s.level[j]) for i in rows for j in cols)
        return real_block(self, rows, cols)

    monkeypatch.setattr(PathReporter, "dist_block", spy)
    for ev in mixed_events(g, rng, 40):
        st.alg_update(ev)
        ref.alg_update(ev)
        assert st.H == ref.H
        assert st.fallback_pairs == ref.fallback_pairs
        assert st.reinit_events == ref.reinit_events
    assert queried[st] and all(a == b == 2 for a, b in queried[st])
    assert (1, 1) in queried[ref]


def test_reinit_runs_at_most_once_per_update():
    # H is mostly the greedy helper here (36-40 edges), which no resampling
    # shrinks: re-initialising until H fits recursed until RecursionError
    g, rng = random_graph(40, 50, seed=1)
    st = AlgSpannerState(g.copy(), eps=1, kappa=0.5, seed=1, k=2, b=5)
    st.reinit_threshold = 38
    stayed_above = False
    for ev in mixed_events(g, rng, 40):
        before = len(st.reinit_events)
        st.alg_update(ev)
        assert st.reinit_events[before:] in ([], [st.update_count])
        if len(st.reinit_events) > before:
            stayed_above |= len(st.H) > st.reinit_threshold
            check_state(st, 1)
    assert stayed_above


# ---- the maintained helper against a full rebuild ---------------------------


def _greedy_by_bfs(g, stretch):
    """greedy_spanner with one full bounded BFS per edge (the reference
    for its two-sided search)."""
    h = DynamicGraph(g.n, directed=False)
    kept = set()
    for u, v in sorted(g.edges()):
        if v not in bfs_dist_bounded(h, [u], stretch):
            h.insert_edge(u, v)
            kept.add((u, v))
    return kept


@given(
    n=hst.integers(2, 30),
    density=hst.floats(0.0, 1.0),
    stretch=hst.integers(1, 9),
    seed=hst.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_greedy_spanner_matches_one_bfs_per_edge(n, density, stretch, seed):
    g, _ = random_graph(n, int(density * n * (n - 1) / 2), seed)
    assert greedy_spanner(g, stretch) == _greedy_by_bfs(g, stretch)


def _full_build_spanner(self) -> None:
    """AlgSpannerState._build_spanner recomputing the greedy helper and
    activeness from scratch on every call (the reference for the
    maintained helper and the skipped deactivation passes, with activeness
    from one BFS per vertex)."""
    g = self.g
    n = g.n
    self.helper = _greedy_by_bfs(g, self.helper_stretch)
    helper_g = DynamicGraph(n, directed=False)
    for u, v in self.helper:
        helper_g.insert_edge(u, v)
    self.active = bfs_active(helper_g, self.level, self._block_floors)
    self.H = set(self.helper)
    for i in range(self.k + 1):
        thr = self.pair_threshold(i)
        if thr < 1:
            continue
        members = sorted(
            v for v in range(n) if self.level[v] == i and self.active[v]
        )
        if len(members) < 2:
            continue
        depth = min(n, math.ceil(thr))
        use_alg = i >= self.gamma
        for a in members:
            reach = None
            for a2 in members:
                if a2 <= a:
                    continue
                if use_alg:
                    try:
                        d = self.alg.pr_dist(a, a2)
                        if d is BEYOND or Fraction(d) > thr:
                            continue
                        self._add_path(self.alg.pr_path(a, a2))
                        continue
                    except NoWitnessFound:
                        self.fallback_pairs.append((a, a2))
                if reach is None:
                    reach = _bfs_parents(g, a, depth)
                if a2 in reach and Fraction(reach[a2][0]) <= thr:
                    self._add_path(_walk_parents(reach, a2))


class _FullRebuild(AlgSpannerState):
    _build_spanner = _full_build_spanner


def assert_matches_full_rebuild(st, ref):
    assert st.helper == greedy_spanner(st.g, st.helper_stretch) == ref.helper
    assert ref.helper == _greedy_by_bfs(st.g, st.helper_stretch)
    assert st.active == helper_active(st) == ref.active
    assert st.H == ref.H
    assert st.fallback_pairs == ref.fallback_pairs
    assert st.reinit_events == ref.reinit_events


def _bfs_level_multi_hop_pairs(st) -> int:
    """Pairs of active vertices on a level below gamma, so paired by BFS,
    that lie two or more hops apart within the level's pair threshold."""
    count = 0
    for i in range(st.gamma):
        members = [v for v in range(st.g.n) if st.level[v] == i and st.active[v]]
        for a in members:
            dist = bfs_dist_bounded(st.g, [a], st._pair_floors[i])
            count += sum(2 <= dist.get(a2, 0) for a2 in members if a2 > a)
    return count


def test_maintained_helper_matches_a_full_rebuild_after_every_update(monkeypatch):
    # b >= 32 lets level 0 pair vertices two or more hops apart on small
    # graphs, and with k = 2 that level is below gamma = 1, so walked by
    # BFS; the explicit example is one such run.  Those paths often lie
    # in the helper already, so each update's added paths are compared,
    # not only H.
    multi_hop = []
    paths = {}
    real_add_path = AlgSpannerState._add_path

    def add_path(self, path):
        paths.setdefault(self, set()).add(tuple(path))
        real_add_path(self, path)

    monkeypatch.setattr(AlgSpannerState, "_add_path", add_path)

    @given(
        n=hst.integers(2, 40),
        density=hst.floats(0.0, 0.3),
        k=hst.integers(1, 2),
        b=hst.integers(2, 6) | hst.integers(32, 200),
        seed=hst.integers(0, 2**16),
        updates=hst.integers(1, 25),
        # a threshold below |H| re-initialises (a fresh path core) on every update
        reinit_threshold=hst.none() | hst.integers(0, 40),
    )
    @example(n=12, density=0.1, k=2, b=100, seed=2, updates=10, reinit_threshold=None)
    @settings(max_examples=30, deadline=None)
    def run(n, density, k, b, seed, updates, reinit_threshold):
        g, rng = random_graph(n, int(density * n * (n - 1) / 2), seed)
        params = dict(eps=1, kappa=0.5, seed=seed, k=k, b=b)
        paths.clear()
        st = AlgSpannerState(g.copy(), **params)
        ref = _FullRebuild(g.copy(), **params)
        if reinit_threshold is not None:
            st.reinit_threshold = ref.reinit_threshold = reinit_threshold
        for ev in [None, *mixed_events(g, rng, updates)]:
            if ev is not None:
                paths.clear()
                st.alg_update(ev)
                ref.alg_update(ev)
            assert_matches_full_rebuild(st, ref)
            assert paths.get(st) == paths.get(ref)
            multi_hop.append(_bfs_level_multi_hop_pairs(st))

    run()
    assert sum(multi_hop) > 0


def test_lowered_reinit_threshold_reinitialises_and_still_matches():
    # the gate above draws such thresholds too; this pins one case where
    # re-inits happen, so the resampled levels rerun the deactivation pass
    g, rng = random_graph(30, 60, seed=8)
    params = dict(eps=1, kappa=0.5, seed=9, k=2, b=4)
    st = AlgSpannerState(g.copy(), **params)
    ref = _FullRebuild(g.copy(), **params)
    st.reinit_threshold = ref.reinit_threshold = 20
    for ev in mixed_events(g, rng, 12):
        passes = st.stats()["deactivation_passes"]
        total, core = st.stats(), st.alg
        core_before = core.stats()
        st.alg_update(ev)
        ref.alg_update(ev)
        assert_matches_full_rebuild(st, ref)
        assert st.reinit_events[-1] == st.update_count
        assert st.stats()["deactivation_passes"] > passes
        # the reporter_ counters carry the replaced core's reads over
        assert st.alg is not core
        for key, v in st.alg.stats().items():
            grown = core.stats()[key] - core_before[key] + v
            assert st.stats()[f"reporter_{key}"] == total[f"reporter_{key}"] + grown
    assert st.stats()["reinits"] == 12
    assert st.stats()["reporter_block_reads"] > st.alg.stats()["block_reads"]


def test_stats_repeat_exactly_on_one_seed():
    def run():
        g, rng = random_graph(32, 70, seed=2)
        st = AlgSpannerState(g, eps=1, kappa=0.5, seed=3, k=2, b=3)
        for ev in mixed_events(g.copy(), rng, 30):
            st.alg_update(ev)
        return st.stats()

    first = run()
    assert first == run()
    assert first["updates"] == 30
    assert (
        first["helper_untouched"] + first["helper_bfs_settled"] + first["suffix_reruns"]
        == first["updates"]
    )
    # one pass at construction, then one per update that changed the helper
    assert first["deactivation_passes"] == 1 + first["suffix_reruns"]
    assert first["suffix_reruns"] > 0 and first["helper_untouched"] > 0
    assert first["helper_bfs_settled"] > 0
    assert first["reinits"] == first["fallback_pairs"] == 0
    # every rescanned edge was settled by its stored path or searched
    assert (
        first["stored_path_settled"] + first["suffix_searches"]
        == first["suffix_edges_scanned"]
    )
    assert first["stored_path_settled"] > 0


def _path_from_one(n):
    """The path 1 - 2 - ... - (n-1); vertex 0 is isolated."""
    g = DynamicGraph(n)
    for v in range(1, n - 1):
        g.insert_edge(v, v + 1)
    return g


def test_inserting_an_edge_before_every_kept_edge_rescans_all():
    g = _path_from_one(8)
    g.insert_edge(2, 5)
    st = AlgSpannerState(g.copy(), eps=1, kappa=0.5, seed=1, k=1, b=3)
    ref = _FullRebuild(g.copy(), eps=1, kappa=0.5, seed=1, k=1, b=3)
    assert min(st.helper) > (0, 1)
    for ev in (InsertEdge(0, 1), InsertEdge(0, 7)):
        st.alg_update(ev)
        ref.alg_update(ev)
        assert_matches_full_rebuild(st, ref)
    stats = st.stats()
    # (0, 1) sorts first, so no kept edge precedes it and all 8 edges are
    # rescanned; (0, 7) sorts after (0, 1) alone, which cannot span it
    assert stats["suffix_reruns"] == 2
    assert stats["suffix_edges_scanned"] == 8 + 8
    assert (0, 1) in st.helper


def _hops(path):
    """The edges of a vertex path, each as (min, max)."""
    return {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}


def test_stored_paths_belong_to_dropped_edges_and_span_them():
    g, rng = random_graph(40, 120, seed=15)
    st = AlgSpannerState(g.copy(), eps=1, kappa=0.5, seed=16, k=2, b=4)
    for ev in mixed_events(g, rng, 60):
        st.alg_update(ev)
        assert st._spanned_by.keys() <= set(st.g.edges()) - st.helper
        for (u, v), path in st._spanned_by.items():
            assert {path[0], path[-1]} == {u, v} and len(set(path)) == len(path)
            assert 2 <= len(path) <= st.helper_stretch + 1
            assert all(e < (u, v) and st.g.has_edge(*e) for e in _hops(path))
    stats = st.stats()
    assert stats["stored_path_settled"] > 0 and len(st._spanned_by) > 0


def test_a_broken_stored_path_is_searched_again():
    # K4 on the stretch-3 helper of 4 vertices: inserting (0, 1), the
    # first edge, reruns the greedy over every edge and stores the paths
    # 1-0-2, 1-0-3 and 2-0-3 of the three dropped edges
    g = graph_of(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    params = dict(eps=1, kappa=0.5, seed=1, k=1, b=2)
    st = AlgSpannerState(g.copy(), **params)
    ref = _FullRebuild(g.copy(), **params)
    assert st.helper_stretch == 3 and st._spanned_by == {}
    st.alg_update(InsertEdge(0, 1))
    ref.alg_update(InsertEdge(0, 1))
    assert_matches_full_rebuild(st, ref)
    assert st.helper == {(0, 1), (0, 2), (0, 3)}
    assert {f: _hops(p) for f, p in st._spanned_by.items()} == {
        (1, 2): {(0, 1), (0, 2)},
        (1, 3): {(0, 1), (0, 3)},
        (2, 3): {(0, 2), (0, 3)},
    }
    before = st.stats()
    # deleting the kept (0, 1) breaks the paths of (1, 2) and (1, 3):
    # (1, 2) becomes kept, (1, 3) is dropped on the new path 1-2-0-3,
    # and (2, 3) stays dropped on its stored path without a search
    st.alg_update(DeleteEdge(0, 1))
    ref.alg_update(DeleteEdge(0, 1))
    assert_matches_full_rebuild(st, ref)
    assert st.helper == {(0, 2), (0, 3), (1, 2)}
    assert set(st._spanned_by) == {(1, 3), (2, 3)}
    assert _hops(st._spanned_by[(1, 3)]) == {(1, 2), (0, 2), (0, 3)}
    after = st.stats()
    assert after["suffix_edges_scanned"] - before["suffix_edges_scanned"] == 5
    assert after["stored_path_settled"] - before["stored_path_settled"] == 1
    assert after["suffix_searches"] - before["suffix_searches"] == 4


def test_deleting_a_kept_edge_and_reinserting_it_restores_the_helper():
    g, rng = random_graph(24, 50, seed=11)
    params = dict(eps=1, kappa=0.5, seed=12, k=2, b=4)
    st = AlgSpannerState(g.copy(), **params)
    ref = _FullRebuild(g.copy(), **params)
    before = set(st.helper)
    e = sorted(before)[len(before) // 2]
    for ev in (DeleteEdge(*e), InsertEdge(*e)):
        st.alg_update(ev)
        ref.alg_update(ev)
        assert_matches_full_rebuild(st, ref)
    assert st.helper == before
    assert st.stats()["suffix_reruns"] == 2


def test_deleting_every_edge_empties_the_spanner():
    g, _ = random_graph(20, 40, seed=13)
    params = dict(eps=1, kappa=0.5, seed=14, k=2, b=4)
    st = AlgSpannerState(g.copy(), **params)
    ref = _FullRebuild(g.copy(), **params)
    for e in sorted(g.edges(), reverse=True):
        st.alg_update(DeleteEdge(*e))
        ref.alg_update(DeleteEdge(*e))
        assert_matches_full_rebuild(st, ref)
    assert st.H == st.helper == set()
    assert all(st.active)


def test_one_and_two_vertices():
    st = AlgSpannerState(DynamicGraph(1), eps=1, kappa=0.5, seed=0)
    assert st.H == set() and st.active == [True]
    with pytest.raises(IllegalUpdate):
        st.alg_update(InsertEdge(0, 0))
    g = DynamicGraph(2)
    st = AlgSpannerState(g.copy(), eps=1, kappa=0.5, seed=0, k=1, b=2)
    ref = _FullRebuild(g.copy(), eps=1, kappa=0.5, seed=0, k=1, b=2)
    for ev in (InsertEdge(0, 1), DeleteEdge(0, 1), InsertEdge(1, 0)):
        st.alg_update(ev)
        ref.alg_update(ev)
        assert_matches_full_rebuild(st, ref)
    assert st.H == {(0, 1)}
    assert st.stats()["updates"] == 3


# sha256 of the CSV that the full-rebuild implementation wrote for the
# script and arguments below
SPANNER_ALG_CSV_SHA256 = "f6f251f4857a34855bb157bc81e6a909e83e609ba13291949c67a134c0f8de3f"


def test_cli_run_csv_is_byte_identical_to_the_full_rebuild(tmp_path, monkeypatch):
    import hashlib

    from dynsp import cli

    script = tmp_path / "s.txt"
    assert main(
        ["gen", "random", "--n", "24", "--p", "0.2", "--updates", "40",
         "--seed", "5", "--out", str(script)]
    ) == 0
    argv = ["run", "--structure", "spanner-alg", "--script", str(script),
            "--eps", "1", "--kappa", "0.5", "--k", "2", "--b", "4", "--seed", "6"]
    assert main(argv + ["--out", str(tmp_path / "new.csv")]) == 0
    monkeypatch.setattr(cli, "AlgSpannerState", _FullRebuild)
    assert main(argv + ["--out", str(tmp_path / "ref.csv")]) == 0
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert hashlib.sha256(new).hexdigest() == SPANNER_ALG_CSV_SHA256


def test_protocol_reads_the_spanner_h():
    g, rng = random_graph(24, 50, seed=21)
    st = AlgSpannerState(g, eps=1, kappa=0.5, seed=22, k=2, b=3)
    for ev in mixed_events(g, rng, 4):
        st.apply(ev)
        assert st.edges() == st.H and st.edges() is not st.H
        h = all_pairs_dist(graph_of(24, st.H))
        for _ in range(10):
            u, v = rng.sample(range(24), 2)
            assert st.dist(u, v) == h[u][v]


# ---- block reads ---------------------------------------------------------------


def test_an_update_makes_at_most_two_path_core_reads_per_algebraic_level():
    g, rng = random_graph(40, 90, seed=4)
    st = AlgSpannerState(g.copy(), eps=1, kappa=0.5, seed=5, k=2, b=6)
    levels = st.k + 1 - st.gamma
    read_levels = 0
    for ev in mixed_events(g, rng, 20):
        before = st.alg.stats()
        st.alg_update(ev)
        after = st.alg.stats()
        assert after["block_reads"] - before["block_reads"] <= 2 * levels
        read_levels += after["block_reads"] > before["block_reads"]
    assert st.reinit_events == [] and read_levels == 20


def _overstate_rows(monkeypatch, overstated):
    """Every path-core read sees the rows of `overstated` one min-degree
    too far from every other vertex (capped at D+1), as a randomness
    failure would; every read goes through _read."""
    real_read = PathReporter._read

    def read(self, rows, cols):
        md = real_read(self, rows, cols)
        rows = range(self.g.n) if rows is None else rows
        cols = range(self.g.n) if cols is None else cols
        for x, i in enumerate(rows):
            for y, j in enumerate(cols):
                if i in overstated and i != j:
                    md[x, y] = min(md[x, y] + 1, self.D + 1)
        return md

    monkeypatch.setattr(PathReporter, "_read", read)


def test_fallback_pairs_keep_their_order_when_walks_find_no_witness(monkeypatch):
    g, rng = random_graph(40, 90, seed=4)
    params = dict(eps=1, kappa=0.5, seed=5, k=2, b=6)
    _overstate_rows(monkeypatch, set(range(0, 40, 3)))
    st = AlgSpannerState(g.copy(), **params)
    ref = _FullRebuild(g.copy(), **params)
    assert_matches_full_rebuild(st, ref)
    for ev in mixed_events(g, rng, 10):
        st.alg_update(ev)
        ref.alg_update(ev)
        assert_matches_full_rebuild(st, ref)
    assert len(st.fallback_pairs) > 1 and st.alg.stats()["no_witness"] > 0
    check_state(st, eps=1)


@pytest.mark.parametrize("eps", [1, Fraction(1, 2), Fraction(2, 3), 0.3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_threshold_floors_agree_with_the_exact_thresholds(eps, k):
    for b in (None, 3, 7):
        st = AlgSpannerState(DynamicGraph(16), eps=eps, kappa=0.5, seed=0, k=k, b=b)
        for i in range(k + 1):
            thr, floor = st.pair_threshold(i), st._pair_floors[i]
            for d in set(range(st.depth + 3)) | set(range(floor - 1, floor + 3)):
                assert (d <= floor) == (Fraction(d) <= thr), (i, d)
            for j in range(k + 1):
                thr, floor = Fraction(st.c_sum(i, j), 4), st._block_floors[j][i]
                for d in set(range(st.depth + 3)) | set(range(floor - 1, floor + 3)):
                    assert (d <= floor) == (Fraction(d) <= thr), (i, j, d)
