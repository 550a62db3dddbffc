"""Algebraic spanner: stretch certificate, activeness, helper spanner."""

import math
import random
from fractions import Fraction

import pytest

from dynsp.graph import (
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    all_pairs_dist,
    bfs_dist,
)
from dynsp.reporter import BEYOND, NoWitnessFound, PathReporter
from dynsp.spanner_alg import AlgSpannerState, alg_active, alg_init, alg_update, greedy_spanner


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
    assert st.active == st.brute_force_active()


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
    st = alg_init(g, eps=1, kappa=0.5, seed=3, k=2, b=3)
    check_state(st, eps=1)
    for step, ev in enumerate(mixed_events(g, rng, 16)):
        alg_update(st, ev)
        if step % 4 == 3:
            check_state(st, eps=1)


def test_high_level_paths_come_from_the_algebraic_core():
    # b chosen so the level-2 pair threshold is a few hops: the alg path
    # branch must fire and still produce exact shortest paths (audited by
    # check_state's stretch test above; here we check the plumbing knobs)
    g, _ = random_graph(40, 90, seed=4)
    st = alg_init(g, eps=1, kappa=0.5, seed=5, k=2, b=6)
    assert st.gamma == 1
    assert st.pair_threshold(2) > 1
    assert st.depth >= math.ceil(st.pair_threshold(2))
    check_state(st, eps=1)


def test_level_sampling_and_active_hooks():
    g, _ = random_graph(26, 40, seed=6)
    st = alg_init(g, eps=1, kappa=0.5, seed=7, k=2, b=3)
    seen = set()
    for level in range(st.k + 1):
        members = alg_active(st, level)
        for v in members:
            assert st.level[v] == level and st.active[v]
        seen |= members
    # all of the top level is always active
    top = {v for v in range(26) if st.level[v] == st.k}
    assert top <= seen


def test_threshold_arithmetic_is_exact():
    g = DynamicGraph(8)
    st = alg_init(g, eps=1, kappa=0.5, seed=0, k=2, b=3)
    assert st.c_sum(0, 2) == 3 + 9
    assert st.block_threshold(0, 2) == Fraction(12, 4)
    assert st.beta_certificate == 27


def test_parameter_domains():
    g = DynamicGraph(6)
    with pytest.raises(ValueError):
        alg_init(g, eps=0, kappa=0.5, seed=0)
    with pytest.raises(ValueError):
        alg_init(g, eps=1, kappa=0.7, seed=0)
    with pytest.raises(ValueError):
        alg_init(DynamicGraph(6, directed=True), eps=1, kappa=0.5, seed=0)


def test_edgeless_graph_has_empty_spanner():
    g = DynamicGraph(9)
    st = alg_init(g, eps=1, kappa=0.5, seed=1, k=2, b=3)
    assert st.H == set()
    # every sampled vertex is active: nothing is reachable to block it
    assert all(st.active)


def test_single_edge_is_kept():
    g = DynamicGraph(5)
    g.insert_edge(1, 3)
    st = alg_init(g, eps=1, kappa=0.5, seed=2, k=1, b=3)
    assert (1, 3) in st.H


def _rebuild_on_every_level(self) -> None:
    """AlgSpannerState._rebuild without skipping levels whose pair
    threshold is below one hop (the reference for the skip)."""
    g = self.g
    n = g.n
    self.helper = greedy_spanner(g, self.helper_stretch)
    helper_g = DynamicGraph(n, directed=False)
    for u, v in self.helper:
        helper_g.insert_edge(u, v)
    self.active = self._deactivation_pass(helper_g)
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
                    reach = self._bfs_parents(a, depth)
                if a2 in reach and Fraction(reach[a2][0]) <= thr:
                    self._add_path(self._walk_parents(reach, a2))
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
    assert len(st.alg_active(1)) >= 2
    queried = {st: [], ref: []}
    real_dist = PathReporter.pr_dist

    def spy(self, i, j):
        s = st if self is st.alg else ref
        queried[s].append((s.level[i], s.level[j]))
        return real_dist(self, i, j)

    monkeypatch.setattr(PathReporter, "pr_dist", spy)
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
