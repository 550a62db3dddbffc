"""Fully dynamic (1+eps, beta)-spanner with an algebraic path core.

Vertices are sampled into nested levels A_0 over ... over A_{k+1} = {}.
Activeness of a level-l vertex is decided against distances in a
multiplicative helper spanner G~ (not in G): a blocks as soon as some
strictly-higher-level vertex sits within c_{l,j}/4 of it, where
c_{l,j} = sum_{y=l+1}^{j} b^y.  The output spanner H is rebuilt after
every update as G~ plus, per level i, a shortest G-path between every
pair of same-level active vertices at distance at most b^{i+1}/(8 log n).

High levels (i >= gamma = floor(kappa*k)) fetch those paths from a
dynamically maintained algebraic distance/path structure whose degree
bound covers every level's length cap; low levels use plain bounded
BFS.  Both produce exact shortest paths, so the split is purely a cost
trade and the stretch audit cannot tell them apart.

All thresholds are exact rationals.  Randomness failures in the
algebraic path queries fall back to BFS for that pair and are logged.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np

from ._kernels import derive_seed
from .graph import DynamicGraph, apply_update, bfs_dist_bounded
from .reporter import BEYOND, NoWitnessFound, PathReporter


def greedy_spanner(g: DynamicGraph, stretch: int) -> set[tuple[int, int]]:
    """Greedy multiplicative spanner: keep (u,v) unless already spanned."""
    h = DynamicGraph(g.n, directed=False)
    kept: set[tuple[int, int]] = set()
    for u, v in sorted(g.edges()):
        reach = bfs_dist_bounded(h, u, stretch)
        if v not in reach:
            h.insert_edge(u, v)
            kept.add((u, v))
    return kept


class AlgSpannerState:
    def __init__(
        self,
        g: DynamicGraph,
        eps,
        kappa: float = 0.529,
        seed: int = 0,
        k: int | None = None,
        b: int | None = None,
        reporter_reps: int | None = None,
    ) -> None:
        if not 0 < float(eps) <= 1:
            raise ValueError("need 0 < eps <= 1")
        if not 0 < kappa <= 0.529:
            raise ValueError("need 0 < kappa <= 0.529")
        if g.directed:
            raise ValueError("spanners are defined for undirected graphs")
        self.g = g
        self.eps = Fraction(eps)
        self.kappa = kappa
        self.seed = seed
        n = g.n
        self.log2n = max(1.0, math.log2(n))
        self.k = k if k is not None else max(1, math.ceil(math.sqrt(self.log2n)))
        self.eps_prime = self.eps / (20 * (self.k + 1))
        self.b = b if b is not None else math.ceil(self.log2n / self.eps_prime)
        self.gamma = math.floor(kappa * self.k)
        self.helper_stretch = 2 * math.ceil(self.log2n) - 1
        self.beta_certificate = self.b ** (self.k + 1)
        # degree bound of the path core: covers every level's length cap
        self.depth = min(n, math.ceil(Fraction(self.b ** (self.k + 1), 1) / (8 * Fraction(self.log2n))))
        self.reinit_threshold = math.ceil(8 * n ** (1 + 1 / self.k) * self.log2n ** 3)
        self.reinit_events: list[int] = []
        self.fallback_pairs: list[tuple[int, int]] = []
        self.update_count = 0
        self._init_everything()

    # ---- (re)initialization -----------------------------------------------

    def _init_everything(self) -> None:
        run = len(self.reinit_events)
        self.level = self._sample_levels(derive_seed(self.seed, 0x6A, run))
        self.alg = PathReporter(
            self.g.copy(),
            self.depth,
            self.kappa,
            derive_seed(self.seed, 0x6B, run),
            reps=3,
        )
        self._rebuild()

    def _sample_levels(self, seed: int) -> list[int]:
        """level[v] = max i with v in A_i; nested subsampling, A_{k+1} empty."""
        n = self.g.n
        rng = np.random.default_rng(seed)
        level = [0] * n
        prev_prob = 1.0
        alive = list(range(n))
        for i in range(1, self.k + 1):
            prob = min(1.0, n ** (-i / self.k) * math.log(n)) if n > 1 else 1.0
            keep_p = prob / prev_prob if prev_prob > 0 else 0.0
            coins = rng.random(len(alive))
            alive = [v for v, c in zip(alive, coins) if c < keep_p]
            for v in alive:
                level[v] = i
            prev_prob = prob
        return level

    # ---- thresholds --------------------------------------------------------

    def c_sum(self, l: int, j: int) -> int:
        return sum(self.b**y for y in range(l + 1, j + 1))

    def block_threshold(self, l: int, j: int) -> Fraction:
        return Fraction(self.c_sum(l, j), 4)

    def pair_threshold(self, i: int) -> Fraction:
        return Fraction(self.b ** (i + 1), 1) / (8 * Fraction(self.log2n))

    # ---- per-update rebuild ------------------------------------------------

    def _rebuild(self) -> None:
        g = self.g
        n = g.n
        self.helper = greedy_spanner(g, self.helper_stretch)
        helper_g = DynamicGraph(n, directed=False)
        for u, v in self.helper:
            helper_g.insert_edge(u, v)
        self.active = self._deactivation_pass(helper_g)
        self.H = set(self.helper)
        for i in range(self.k + 1):
            thr = self.pair_threshold(i)
            if thr < 1:
                continue  # distinct vertices are at distance >= 1 > thr
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
                        reach = self._bfs_parents(a, depth)
                    if a2 in reach and Fraction(reach[a2][0]) <= thr:
                        self._add_path(self._walk_parents(reach, a2))
        if len(self.H) > self.reinit_threshold:
            self.reinit_events.append(self.update_count)
            self._init_everything()

    def _deactivation_pass(self, helper_g: DynamicGraph) -> list[bool]:
        """Descending-level BFS on the helper; exact per-level thresholds."""
        n = self.g.n
        active = [True] * n
        for j in range(self.k, 0, -1):
            depth = min(n, math.ceil(self.block_threshold(0, j)))
            for a2 in range(n):
                if self.level[a2] != j:
                    continue
                for x, dx in bfs_dist_bounded(helper_g, a2, depth).items():
                    p = self.level[x]
                    if p < j and Fraction(dx) <= self.block_threshold(p, j):
                        active[x] = False
        return active

    def _bfs_parents(self, s: int, depth: int) -> dict[int, tuple[int, int]]:
        """{v: (dist, parent)} within depth; parent is the smallest choice."""
        out = {s: (0, -1)}
        q = deque([s])
        while q:
            u = q.popleft()
            du = out[u][0]
            if du == depth:
                continue
            for v in sorted(self.g.adj[u]):
                if v not in out:
                    out[v] = (du + 1, u)
                    q.append(v)
        return out

    def _walk_parents(self, reach: dict, t: int) -> list[int]:
        path = [t]
        while reach[path[-1]][1] != -1:
            path.append(reach[path[-1]][1])
        path.reverse()
        return path

    def _add_path(self, path: list[int]) -> None:
        for a, b2 in zip(path, path[1:]):
            self.H.add((a, b2) if a < b2 else (b2, a))

    # ---- public operations -------------------------------------------------

    def alg_update(self, ev) -> set[tuple[int, int]]:
        apply_update(self.g, ev)
        self.alg.apply(ev)
        self.update_count += 1
        self._rebuild()
        return set(self.H)

    def alg_active(self, level: int) -> set[int]:
        return {
            v
            for v in range(self.g.n)
            if self.level[v] == level and self.active[v]
        }

    def snapshot(self) -> tuple[set, int]:
        return set(self.H), self.beta_certificate

    def edge_list_text(self) -> str:
        lines = [f"# spanner |H|={len(self.H)} beta={self.beta_certificate}"]
        lines += [f"{u} {v}" for u, v in sorted(self.H)]
        return "\n".join(lines) + "\n"

    def brute_force_active(self) -> list[bool]:
        """The activeness predicate evaluated directly (test oracle)."""
        helper_g = DynamicGraph(self.g.n, directed=False)
        for u, v in self.helper:
            helper_g.insert_edge(u, v)
        from .graph import bfs_dist

        active = [True] * self.g.n
        for x in range(self.g.n):
            l = self.level[x]
            for a2 in range(self.g.n):
                j = self.level[a2]
                if j <= l:
                    continue
                d = bfs_dist(helper_g, a2)[x]
                if d != math.inf and Fraction(int(d)) <= self.block_threshold(l, j):
                    active[x] = False
        return active


def alg_init(g, eps, kappa=0.529, seed=0, **overrides) -> AlgSpannerState:
    return AlgSpannerState(g, eps, kappa, seed, **overrides)


def alg_update(st: AlgSpannerState, ev):
    return st.alg_update(ev)


def alg_active(st: AlgSpannerState, level: int):
    return st.alg_active(level)
