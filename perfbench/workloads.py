"""The four benchmark workloads.

An instance of a workload makes its initial graph, builds a dynsp
structure from it (the timed set-up) and then yields rounds of
operations drawn from the seed.  Every round is a generator of Op: the
benchmark times ``op.call()`` and then runs ``op.check(result)``
untimed, before the round picks its next operation.  Checks keep the
instance's adjacency mirror current and compare every answer with the
computations in oracles.py.  Operation choices depend only on the seed
and the mirror, so every replay of a workload on one seed performs the
same operations in the same order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from dynsp import (
    BEYOND,
    AlgSpannerState,
    ApproxApsp,
    DeleteEdge,
    DynamicGraph,
    HittingSetApsp,
    InsertEdge,
    PathReporter,
    SteinerState,
    bfs_dist,
)

import oracles
from oracles import INF, Mirror

# Randomness inside the structures is fixed, so that --seed varies the
# operations only.
STRUCTURE_SEED = 1


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _graph(n: int, edges) -> DynamicGraph:
    g = DynamicGraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def _gnp_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _toggle_gnp(mirror: Mirror, m0: int, rng: random.Random):
    """Delete above m0 edges, insert below, a coin at m0."""
    if mirror.m > m0 or (mirror.m == m0 and rng.random() < 0.5):
        edges = mirror.edges()
        return DeleteEdge(*edges[rng.randrange(len(edges))])
    n = mirror.n
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not mirror.has_edge(u, v):
            return InsertEdge(min(u, v), max(u, v))


def _apply(mirror: Mirror, ev) -> None:
    if isinstance(ev, InsertEdge):
        mirror.insert(ev.u, ev.v)
    else:
        mirror.delete(ev.u, ev.v)


def _pair_at(dist: np.ndarray, length: int, rng: random.Random) -> tuple[int, int]:
    """A random pair at the given distance, or at the longest distance
    below it that the graph has."""
    while not (dist == length).any():
        length -= 1
    rows = np.flatnonzero((dist == length).any(axis=1))
    u = int(rows[rng.randrange(rows.size)])
    at = np.flatnonzero(dist[u] == length)
    return u, int(at[rng.randrange(at.size)])


def _pair(n: int, rng: random.Random) -> tuple[int, int]:
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    return u, v + (v >= u)


class Workload:
    name = ""
    # operations per round, by kind
    mix: dict[str, int] = {}
    # rounds per second of an untraced run on the reference machine; sets
    # the fixed length of a traced run
    rounds_per_s = 1.0
    # structures per untraced run, each built from its own inputs; rounds
    # go to them in turn, so that a run's medians average over instances
    instances = 3

    def __init__(self, seed: int, instance: int = 0) -> None:
        self.seed, self.instance = seed, instance
        self.facts: dict[str, float] = {}
        self.notes: dict[str, float] = {}

    def inputs_rng(self) -> random.Random:
        """The initial structure of an instance does not depend on the seed.

        Costs differ a lot between instances (a spanner update by up to
        2x), so instances that changed with the seed would make the
        seed-to-seed spread a measure of the instances drawn."""
        return random.Random(f"{self.name}/{self.instance}")

    def ops_rng(self) -> random.Random:
        return random.Random(f"{self.name}/{self.instance}/ops/{self.seed}")


class ReporterGnp(Workload):
    """PathReporter alone: kernels, the inverse and successor search."""

    name = "reporter-gnp"
    n, m0, D = 128, 256, 8
    mix = {"update": 2, "dist": 4, "path": 2}
    rounds_per_s = 15.0

    def __init__(self, seed: int, instance: int = 0) -> None:
        super().__init__(seed, instance)
        self.initial = _gnp_edges(self.n, self.m0, self.inputs_rng())

    def build(self):
        return PathReporter(_graph(self.n, self.initial), self.D, seed=STRUCTURE_SEED)

    def rounds(self, st):
        rng = self.ops_rng()
        mirror = Mirror(self.n, self.initial)
        state = {"dist": oracles.distance_matrix(self.n, mirror.edges())}
        while True:
            yield self._round(st, rng, mirror, state)

    def _round(self, st, rng, mirror, state):
        for _ in range(self.mix["update"]):
            ev = _toggle_gnp(mirror, self.m0, rng)
            call = st.pr_insert if isinstance(ev, InsertEdge) else st.pr_delete

            def after_update(_, ev=ev):
                _apply(mirror, ev)
                state["dist"] = oracles.distance_matrix(self.n, mirror.edges())

            yield Op("update", lambda call=call, ev=ev: call(ev.u, ev.v), after_update)
        dist = state["dist"]
        for _ in range(self.mix["dist"]):
            u, v = _pair(self.n, rng)
            yield Op(
                "dist",
                lambda u=u, v=v: st.pr_dist(u, v),
                lambda ans, u=u, v=v: oracles.check_reporter_dist(dist, u, v, ans, self.D, BEYOND),
            )
        for _ in range(self.mix["path"]):
            # The length is drawn first, uniformly from an odd number of
            # values: the mix of lengths, which sets the cost of a path
            # query, is then the same on every graph, and the median
            # query is one of the middle length rather than on the edge
            # between two lengths.
            u, v = _pair_at(dist, rng.randint(1, self.D - 1), rng)
            yield Op(
                "path",
                lambda u=u, v=v: st.pr_path(u, v),
                lambda p, u=u, v=v: oracles.check_path(mirror.adj, u, v, p, dist[u, v]),
            )


class ApspRing(Workload):
    """HittingSetApsp on a cycle with a few short chords."""

    name = "apsp-ring"
    n, D, chords, span = 72, 24, 6, (2, 4)
    mix = {"update": 4, "dist": 2, "path": 2}
    rounds_per_s = 1.0

    def __init__(self, seed: int, instance: int = 0) -> None:
        super().__init__(seed, instance)
        rng = self.inputs_rng()
        ring = [(i, (i + 1) % self.n) for i in range(self.n)]
        self.ring = {(min(e), max(e)) for e in ring}
        mirror = Mirror(self.n, ring)
        while mirror.m < self.n + self.chords:
            mirror.insert(*self._new_chord(mirror, rng))
        self.initial = mirror.edges()

    def _new_chord(self, mirror: Mirror, rng: random.Random) -> tuple[int, int]:
        while True:
            u = rng.randrange(self.n)
            v = (u + rng.randint(*self.span)) % self.n
            if not mirror.has_edge(u, v):
                return min(u, v), max(u, v)

    def build(self):
        st = HittingSetApsp(_graph(self.n, self.initial), self.D, seed=STRUCTURE_SEED)
        self.facts["apsp.hitting_set_size"] = len(st.H)
        return st

    def rounds(self, st):
        rng = self.ops_rng()
        mirror = Mirror(self.n, self.initial)
        state = {"dist": oracles.distance_matrix(self.n, mirror.edges())}
        self.stitched = [0, 0]
        while True:
            yield self._round(st, rng, mirror, state)

    def _far_pair(self, rng: random.Random) -> tuple[int, int]:
        u = rng.randrange(self.n)
        return u, (u + self.n // 2 + rng.randint(-self.n // 6, self.n // 6)) % self.n

    def _count(self, true_dist) -> None:
        self.stitched[0] += true_dist > self.D
        self.stitched[1] += 1
        self.facts["apsp.stitched_share"] = self.stitched[0] / self.stitched[1]

    def _round(self, st, rng, mirror, state):
        for _ in range(self.mix["update"]):
            chords = [e for e in mirror.edges() if e not in self.ring]
            if len(chords) >= self.chords:
                ev = DeleteEdge(*chords[rng.randrange(len(chords))])
            else:
                ev = InsertEdge(*self._new_chord(mirror, rng))

            def after_update(_, ev=ev):
                _apply(mirror, ev)
                state["dist"] = oracles.distance_matrix(self.n, mirror.edges())

            yield Op("update", lambda ev=ev: st.exact_update(ev), after_update)
        dist = state["dist"]
        for _ in range(self.mix["dist"]):
            u, v = self._far_pair(rng)
            self._count(dist[u, v])
            yield Op(
                "dist",
                lambda u=u, v=v: st.exact_dist(u, v),
                lambda ans, u=u, v=v: oracles.check_exact_dist(dist, u, v, ans),
            )
        for _ in range(self.mix["path"]):
            # lengths D+1..D+3, drawn first as in reporter-gnp: every path
            # is stitched, and the mix of lengths is the same in every run
            u, v = _pair_at(dist, rng.randint(self.D + 1, self.D + 3), rng)
            self._count(dist[u, v])
            yield Op(
                "path",
                lambda u=u, v=v: st.exact_path(u, v),
                lambda p, u=u, v=v: oracles.check_path(mirror.adj, u, v, p, dist[u, v]),
            )


# Reads of the spanner as the dynsp command line makes them: build the
# graph of H, then breadth-first search.
def spanner_dist(st: AlgSpannerState, u: int, v: int) -> float:
    return bfs_dist(_graph(st.g.n, st.H), u)[v]


def spanner_path(st: AlgSpannerState, u: int, v: int) -> list[int]:
    h = _graph(st.g.n, st.H)
    d = bfs_dist(h, v)
    path = [u]
    while path[-1] != v:
        cur = path[-1]
        path.append(min(w for w in h.adj[cur] if d[w] == d[cur] - 1))
    return path


class SpannerAlgGnp(Workload):
    """AlgSpannerState with a small path core, plus reads of its spanner."""

    name = "spanner-alg-gnp"
    n, m0, eps, k, b = 128, 512, 1, 2, 5
    mix = {"update": 1, "dist": 2, "path": 1}
    rounds_per_s = 22.0
    # the update cost differs up to 2x between instances, with the number
    # of active level-1 vertices
    instances = 6

    def __init__(self, seed: int, instance: int = 0) -> None:
        super().__init__(seed, instance)
        self.initial = _gnp_edges(self.n, self.m0, self.inputs_rng())

    def build(self):
        return AlgSpannerState(
            _graph(self.n, self.initial), self.eps, seed=STRUCTURE_SEED, k=self.k, b=self.b
        )

    def rounds(self, st):
        rng = self.ops_rng()
        mirror = Mirror(self.n, self.initial)
        state: dict = {}
        sizes: list[int] = []
        self.notes["worst_additive_excess"] = 0.0

        def check_h(h_edges):
            oracles.check_subgraph(mirror.adj, h_edges)
            dist_g = oracles.distance_matrix(self.n, mirror.edges())
            state["dist_h"] = oracles.distance_matrix(self.n, h_edges)
            state["h_adj"] = Mirror(self.n, h_edges).adj
            excess = oracles.check_spanner(dist_g, state["dist_h"], self.eps, st.beta_certificate)
            self.notes["worst_additive_excess"] = max(self.notes["worst_additive_excess"], excess)
            sizes.append(len(h_edges))
            self.facts["spanner_alg.h_edges_mean"] = sum(sizes) / len(sizes)
            self.facts["spanner_alg.fallback_pairs"] = len(st.fallback_pairs)
            self.facts["spanner_alg.reinits"] = len(st.reinit_events)

        check_h(set(st.H))
        while True:
            yield self._round(st, rng, mirror, state, check_h)

    def _round(self, st, rng, mirror, state, check_h):
        ev = _toggle_gnp(mirror, self.m0, rng)

        def after_update(h_edges, ev=ev):
            _apply(mirror, ev)
            check_h(h_edges)

        yield Op("update", lambda: st.alg_update(ev), after_update)
        dist_h = state["dist_h"]
        for _ in range(self.mix["dist"]):
            u, v = _pair(self.n, rng)
            yield Op(
                "dist",
                lambda u=u, v=v: spanner_dist(st, u, v),
                lambda ans, u=u, v=v: oracles.check_exact_dist(dist_h, u, v, ans),
            )
        for _ in range(self.mix["path"]):
            while True:
                u, v = _pair(self.n, rng)
                if dist_h[u, v] < INF:
                    break
            yield Op(
                "path",
                lambda u=u, v=v: spanner_path(st, u, v),
                lambda p, u=u, v=v: oracles.check_path(state["h_adj"], u, v, p, dist_h[u, v]),
            )


class SteinerGrid(Workload):
    """SteinerState over ApproxApsp on a grid with diagonal chords."""

    name = "steiner-grid"
    side, D, chords, eps = 8, 6, 6, 1
    t_min, t_max = 4, 8
    mix = {"update": 1, "terminal": 1, "dist": 4, "path": 3}
    rounds_per_s = 9.0
    instances = 6

    def __init__(self, seed: int, instance: int = 0) -> None:
        super().__init__(seed, instance)
        rng = self.inputs_rng()
        s = self.side
        self.n = s * s
        grid = [(r * s + c, r * s + c + 1) for r in range(s) for c in range(s - 1)]
        grid += [(r * s + c, (r + 1) * s + c) for r in range(s - 1) for c in range(s)]
        self.grid = set(grid)
        mirror = Mirror(self.n, grid)
        for _ in range(self.chords):
            mirror.insert(*self._new_chord(mirror, rng))
        self.initial = mirror.edges()
        self.terminals = sorted(rng.sample(range(self.n), (self.t_min + self.t_max) // 2))

    def _new_chord(self, mirror: Mirror, rng: random.Random) -> tuple[int, int]:
        s = self.side
        while True:
            r, c = rng.randrange(s - 1), rng.randrange(s - 1)
            u, v = ((r * s + c, (r + 1) * s + c + 1) if rng.random() < 0.5
                    else (r * s + c + 1, (r + 1) * s + c))
            if not mirror.has_edge(u, v):
                return min(u, v), max(u, v)

    def build(self):
        g = _graph(self.n, self.initial)
        provider = ApproxApsp(g, self.eps / 2, seed=STRUCTURE_SEED, D=self.D)
        return SteinerState(g, self.terminals, eps=self.eps, seed=STRUCTURE_SEED, provider=provider)

    def rounds(self, st):
        rng = self.ops_rng()
        mirror = Mirror(self.n, self.initial)
        state = {"dist_g": oracles.distance_matrix(self.n, mirror.edges()), "h": None, "grow": True}
        weights: list[int] = []
        self.facts["edge_updates"] = 0

        def dist_h():
            """Distances in the spanner the provider answered from, if any.

            Reads the provider's cached spanner graph only: asking the
            provider for it would force the lazy rebuild."""
            h = st.provider._h_graph
            if h is None:
                return None
            if state["h"] is not h:
                edges = list(h.edges())
                oracles.check_subgraph(mirror.adj, edges)
                state["h"], state["dist_h"] = h, oracles.distance_matrix(self.n, edges)
            return state["dist_h"]

        def check_tree(tree):
            oracles.check_steiner_tree(mirror.adj, st.S, tree.vertices, tree.edges, tree.weight)
            dh = dist_h()
            opt_g = oracles.steiner_opt(state["dist_g"], st.S)
            opt_h = opt_g if dh is None else oracles.steiner_opt(dh, st.S)
            oracles.check_steiner_weight(tree.weight, opt_g, opt_h)
            weights.append(tree.weight)
            self.facts["steiner.weight_mean"] = sum(weights) / len(weights)

        check_tree(st.tree)
        while True:
            yield self._round(st, rng, mirror, state, check_tree, dist_h)

    def _round(self, st, rng, mirror, state, check_tree, dist_h):
        chords = [e for e in mirror.edges() if e not in self.grid]
        if len(chords) >= self.chords:
            ev = DeleteEdge(*chords[rng.randrange(len(chords))])
        else:
            ev = InsertEdge(*self._new_chord(mirror, rng))

        def after_update(tree, ev=ev):
            _apply(mirror, ev)
            state["dist_g"] = oracles.distance_matrix(self.n, mirror.edges())
            self.facts["edge_updates"] += 1
            check_tree(tree)

        yield Op("update", lambda: st.steiner_edge_update(ev), after_update)
        # the terminal count sweeps t_min..t_max and back, so every run
        # sees the same mix of terminal counts, which set the closure cost
        size = len(st.S)
        if size in (self.t_min, self.t_max):
            state["grow"] = size == self.t_min
        if not state["grow"]:
            v = sorted(st.S)[rng.randrange(size)]
            yield Op("terminal", lambda: st.steiner_remove_terminal(v), check_tree)
        else:
            v = rng.choice([x for x in range(self.n) if x not in st.S])
            yield Op("terminal", lambda: st.steiner_add_terminal(v), check_tree)
        prov, dist_g = st.provider, state["dist_g"]
        for _ in range(self.mix["dist"]):
            # three in four pairs within D, answered by the reporter, the
            # rest from the spanner; the median read is one of the first
            u, v = _pair_at(dist_g, rng.randint(1, self.D + 2), rng)
            yield Op(
                "dist",
                lambda u=u, v=v: prov.approx_dist(u, v),
                lambda ans, u=u, v=v: self._check_length(state, dist_h, u, v, ans),
            )
        for _ in range(self.mix["path"]):
            u, v = _pair_at(dist_g, rng.randint(1, self.D - 1), rng)   # as in reporter-gnp

            def check_path(p, u=u, v=v):
                oracles.check_path(mirror.adj, u, v, p, len(p) - 1)
                self._check_length(state, dist_h, u, v, len(p) - 1)

            yield Op("path", lambda u=u, v=v: prov.approx_path(u, v), check_path)

    def _check_length(self, state, dist_h, u, v, length) -> None:
        """Exact up to D; beyond D, the distance in the provider's spanner."""
        true = state["dist_g"][u, v]
        if true <= self.D:
            want = true
        else:
            dh = dist_h()
            if dh is None:
                raise oracles.CheckFailed(f"({u}, {v}) is beyond D but no spanner was read")
            want = dh[u, v]
        if length != want:
            raise oracles.CheckFailed(f"approx ({u}, {v}) = {length}, want {want} (dist_G {true})")


WORKLOADS = {w.name: w for w in (ReporterGnp, ApspRing, SpannerAlgGnp, SteinerGrid)}
