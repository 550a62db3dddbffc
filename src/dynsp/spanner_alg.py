"""Fully dynamic (1+eps, beta)-spanner with an algebraic path core.

Vertices are sampled into nested levels A_0 over ... over A_{k+1} = {}.
Activeness of a level-l vertex is decided against distances in a
multiplicative helper spanner G~ (not in G): a blocks as soon as some
strictly-higher-level vertex sits within c_{l,j}/4 of it, where
c_{l,j} = sum_{y=l+1}^{j} b^y.  The output spanner H is G~ plus, per
level i, a shortest G-path between every pair of same-level active
vertices at distance at most b^{i+1}/(8 log n).

What an update maintains and what it recomputes:

- G~ is maintained.  It always equals greedy_spanner(G, stretch): the
  greedy keeps an edge depending only on the kept edges before it in
  sorted order, so deleting an edge it does not keep changes nothing,
  an insertion that one bounded search through the kept edges before
  it spans changes nothing, and any other update reruns the greedy
  from that edge's position onwards.  Each dropped edge keeps, as its
  certificate, the path of at most `stretch` kept edges that last
  spanned it; those edges all sort before it.  A rerun that finds every
  edge of that path still kept leaves the edge dropped without a
  search, exactly as the greedy would, and searches only where the
  certificate broke or none is stored yet (set-up stores none).
- Activeness depends only on G~ and the levels, so the deactivation
  pass reruns only when G~ changed or the levels were resampled.  It is
  the combinatorial spanner's pass (spanner_comb.blocked_vertices) on
  G~ with the floors of c_{l,j}/4: one bounded BFS from all the
  vertices of each level above the lowest at once, not one per vertex.
- H is recomputed from G~ and the per-level pairs on every update,
  because pair distances in G can change with any edge.

High levels (i >= gamma = floor(kappa*k)) fetch those paths from a
dynamically maintained algebraic distance/path structure whose degree
bound covers every level's length cap; low levels use plain bounded
BFS, one from each pair's far end.  Both walk their distances towards
the far end by the same rule (graph.descend: the smallest-index
neighbour one closer), so both yield the same path for a pair, H does
not depend on gamma, and the split is purely a cost trade.  A high
level costs the path core two reads: one block of distances between
all its active vertices, then one block of the columns towards every
pair's far end that qualifies, which every path walk into that end
follows.

Distances are integers, and d <= thr exactly when d <= floor(thr), so
the comparisons run against tables of floors built once: c_{l,j} // 4
for blocks, and the floors of the exact rational pair thresholds.
Randomness failures in the algebraic path walks fall back to BFS for
that pair, which yields the path the walk would have, and are logged.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._kernels import derive_seed
from .graph import (
    DynamicGraph,
    InsertEdge,
    bfs_dist,
    bfs_dist_bounded,
    descend,
    graph_of,
)
from .reporter import NoWitnessFound, PathReporter
from .spanner_comb import blocked_vertices, default_k, require_undirected, sample_levels


def greedy_spanner(g: DynamicGraph, stretch: int) -> set[tuple[int, int]]:
    """Greedy multiplicative spanner: keep (u,v) unless already spanned."""
    h = DynamicGraph(g.n, directed=False)
    kept: set[tuple[int, int]] = set()
    for u, v in sorted(g.edges()):
        if not _within(h, u, v, stretch):
            h.insert_edge(u, v)
            kept.add((u, v))
    return kept


def _within(
    h: DynamicGraph, s: int, t: int, radius: int, below=None, path=False
) -> bool | tuple[int, ...]:
    """Whether t is at most `radius` hops from s in h.

    With `below`, only the edges of h that sort before it count.  The
    search grows one BFS layer at a time from whichever end has the
    smaller frontier, and stops when the two sides meet.  With `path`,
    a hit returns the path it met on, as a tuple of the vertices from
    one end to the other, in place of True.
    """
    # each side maps the vertices it reached to their parents
    seen = ({s: None}, {t: None})
    frontier = [[s], [t]]
    for _ in range(radius):
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other = seen[side], seen[1 - side]
        nxt = []
        for x in frontier[side]:
            for y in h.adj[x]:
                if y in mine or (below is not None and ((x, y) if x < y else (y, x)) >= below):
                    continue
                if y in other:
                    if not path:
                        return True
                    return tuple(_to_root(mine, x)[::-1] + _to_root(other, y))
                mine[y] = x
                nxt.append(y)
        if not nxt:
            return False
        frontier[side] = nxt
    return False


def _is_path(h: DynamicGraph, path: tuple[int, ...]) -> bool:
    """Whether every hop of the vertex tuple `path` is an edge of h."""
    return all(map(set.__contains__, map(h.adj.__getitem__, path), path[1:]))


def _to_root(parent: dict, v: int) -> list[int]:
    """v, its parent, and so on up to the vertex a search started from."""
    out = []
    while v is not None:
        out.append(v)
        v = parent[v]
    return out


class AlgSpannerState:
    """The dynamic algebraic spanner H over the undirected graph g.

    k is the top level and b the distance scale; k, b >= 1, and each
    defaults from n and eps as in the paper.  Small graphs make most of
    the construction degenerate.  At n = 128, k = 2, b = 5 (log2 n = 7):
    - the path core's depth is ceil(125/56) = 3;
    - the pair thresholds are 5/56, 25/56 and 125/56: levels 0 and 1
      are below one hop and pair nothing, and level 2 (algebraic, since
      gamma = 1) pairs active vertices within 2 hops;
    - the helper's stretch is 13, so on G(128, 512) G~ is a spanning
      forest plus one or two edges;
    - reinit_threshold is about 4 * 10^6, above any H on 128 vertices.
    """

    def __init__(
        self,
        g: DynamicGraph,
        eps,
        kappa: float = 0.529,
        seed: int = 0,
        k: int | None = None,
        b: int | None = None,
    ) -> None:
        if not 0 < float(eps) <= 1:
            raise ValueError("need 0 < eps <= 1")
        if not 0 < kappa <= 0.529:
            raise ValueError("need 0 < kappa <= 0.529")
        require_undirected(g)
        for name, value in (("k", k), ("b", b)):
            if value is not None and value < 1:
                raise ValueError(f"need {name} >= 1, got {name} = {value}")
        self.g = g
        self.eps = Fraction(eps)
        self.kappa = kappa
        self.seed = seed
        n = g.n
        self.log2n = max(1.0, math.log2(n))
        self.k = k if k is not None else default_k(n)
        self.eps_prime = self.eps / (20 * (self.k + 1))
        self.b = b if b is not None else math.ceil(self.log2n / self.eps_prime)
        self.gamma = math.floor(kappa * self.k)
        self.helper_stretch = 2 * math.ceil(self.log2n) - 1
        self.beta_certificate = self.b ** (self.k + 1)
        # degree bound of the path core: covers every level's length cap
        self.depth = min(n, math.ceil(Fraction(self.b ** (self.k + 1), 1) / (8 * Fraction(self.log2n))))
        self.reinit_threshold = math.ceil(8 * n ** (1 + 1 / self.k) * self.log2n ** 3)
        # the floors that integer distances compare against: of c_{l,j}/4
        # for a level-j blocker and a level-l blockee, and of the pair
        # thresholds
        self._block_floors = [
            [self.c_sum(l, j) // 4 for l in range(self.k + 1)] for j in range(self.k + 1)
        ]
        self._pair_floors = [math.floor(self.pair_threshold(i)) for i in range(self.k + 1)]
        self.reinit_events: list[int] = []
        self.fallback_pairs: list[tuple[int, int]] = []
        self.update_count = 0
        self._counts = dict.fromkeys(
            (
                "helper_untouched",
                "helper_bfs_settled",
                "suffix_reruns",
                "suffix_edges_scanned",
                "stored_path_settled",
                "suffix_searches",
                "deactivation_passes",
            ),
            0,
        )
        # read counters of the path cores that re-inits replaced
        self._retired_reads: dict[str, int] = {}
        self._init_helper()
        self._init_everything()

    # ---- (re)initialization -----------------------------------------------

    def _init_helper(self) -> None:
        """G~ from scratch, and its graph.

        No dropped edge has a stored path yet: each gets one the first
        time a rerun or an insertion's search finds it spanned.
        """
        self.helper = greedy_spanner(self.g, self.helper_stretch)
        self._helper_g = graph_of(self.g.n, self.helper)
        # dropped edge of G -> the vertices of a path of at most
        # helper_stretch hops that spanned it when it was last dropped
        self._spanned_by: dict[tuple[int, int], tuple[int, ...]] = {}

    def _init_everything(self) -> None:
        self._resample()
        self._rebuild()

    def _resample(self) -> None:
        """Fresh levels and path core, seeded by the number of re-inits.

        The path core is built over g itself, not a copy, so each update
        reaches g once, through the core.
        """
        self._active_stale = True
        run = len(self.reinit_events)
        self.level = sample_levels(self.g.n, self.k, derive_seed(self.seed, 0x6A, run))
        if run:
            self._retired_reads = self._reporter_reads()
        self.alg = PathReporter(
            self.g,
            self.depth,
            self.kappa,
            derive_seed(self.seed, 0x6B, run),
        )

    # ---- thresholds --------------------------------------------------------

    def c_sum(self, l: int, j: int) -> int:
        return sum(self.b**y for y in range(l + 1, j + 1))

    def pair_threshold(self, i: int) -> Fraction:
        return Fraction(self.b ** (i + 1), 1) / (8 * Fraction(self.log2n))

    # ---- the greedy helper -------------------------------------------------

    def _update_helper(self, ev) -> bool:
        """Bring G~ up to date with ev, applied to g; True when it changed."""
        e = (min(ev.u, ev.v), max(ev.u, ev.v))
        if isinstance(ev, InsertEdge):
            path = _within(self._helper_g, *e, self.helper_stretch, below=e, path=True)
            if path:
                self._spanned_by[e] = path
                self._counts["helper_bfs_settled"] += 1
                return False
        elif e not in self.helper:
            self._spanned_by.pop(e, None)
            self._counts["helper_untouched"] += 1
            return False
        self._rescan_from(e)
        return True

    def _rescan_from(self, e: tuple[int, int]) -> None:
        """Rerun the greedy from e's position: the kept edges before it stay.

        A rescanned edge whose stored path is wholly kept stays dropped
        without a search: the path was found when only the edges before
        it counted, so it lies in the kept edges before it, and the
        greedy would drop it too.  Any other edge is decided by a search,
        whose path is stored when it drops the edge.
        """
        h, kept, spanned_by = self._helper_g, self.helper, self._spanned_by
        dropped = {f for f in kept if f >= e}
        kept -= dropped
        for f in dropped:
            h.delete_edge(*f)
        suffix = sorted(f for f in self.g.edges() if f >= e)
        settled = 0
        for f in suffix:
            path = spanned_by.get(f)
            if path is not None and _is_path(h, path):
                settled += 1
                continue
            path = _within(h, *f, self.helper_stretch, path=True)
            if path:
                spanned_by[f] = path
            else:
                spanned_by.pop(f, None)
                h.insert_edge(*f)
                kept.add(f)
        self._counts["suffix_reruns"] += 1
        self._counts["suffix_edges_scanned"] += len(suffix)
        self._counts["stored_path_settled"] += settled
        self._counts["suffix_searches"] += len(suffix) - settled

    # ---- per-update rebuild ------------------------------------------------

    def _rebuild(self) -> None:
        """Build H; when it outgrows reinit_threshold, re-initialise once.

        One re-init per call: when H is mostly the greedy helper, which
        no resampling shrinks, H may stay above the threshold after it.
        """
        self._build_spanner()
        if len(self.H) > self.reinit_threshold:
            self.reinit_events.append(self.update_count)
            self._resample()
            self._build_spanner()

    def _build_spanner(self) -> None:
        n = self.g.n
        if self._active_stale:
            self._counts["deactivation_passes"] += 1
            blocked = blocked_vertices(self._helper_g, self.level, self._block_floors)
            self.active = [v not in blocked for v in range(n)]
            self._active_stale = False
        self.H = set(self.helper)
        for i in range(self.k + 1):
            thr = self._pair_floors[i]
            if thr < 1:
                continue  # distinct vertices are at distance >= 1 > thr
            members = sorted(
                v for v in range(n) if self.level[v] == i and self.active[v]
            )
            if len(members) < 2:
                continue
            if i >= self.gamma:
                self._alg_level(members, thr)
            else:
                self._bfs_pairs(combinations(members, 2), thr)

    def _alg_level(self, members: list[int], thr: int) -> None:
        """Paths for every pair a < a2 within thr, from two path-core reads.

        The pairs walk in (a, a2) order; a walk that finds no witness is
        logged and its pair answered by BFS.
        """
        # D+1 encodes beyond D; D is below thr when n caps the core's degree
        close = np.triu(self.alg.dist_block(members, members) <= min(thr, self.alg.D), 1)
        pairs = [(members[x], members[y]) for x, y in np.argwhere(close).tolist()]
        cols = self.alg.column_block(sorted({a2 for _a, a2 in pairs}))
        failed = []
        for a, a2 in pairs:
            try:
                self._add_path(self.alg.walk(cols[a2], a, a2))
            except NoWitnessFound:
                failed.append((a, a2))
        self.fallback_pairs += failed
        self._bfs_pairs(failed, thr)

    def _bfs_pairs(self, pairs, thr: int) -> None:
        """Paths for the pairs (a, a2) within thr, from one bounded BFS per a2.

        Each path descends from a over the BFS distances towards a2.
        """
        starts: dict[int, list[int]] = {}
        for a, a2 in pairs:
            starts.setdefault(a2, []).append(a)
        for a2, group in starts.items():
            dist = bfs_dist_bounded(self.g, [a2], thr)
            for a in group:
                if a in dist:
                    self._add_path(descend(self.g, a, a2, dist.get))

    def _add_path(self, path: list[int]) -> None:
        for a, b2 in zip(path, path[1:]):
            self.H.add((a, b2) if a < b2 else (b2, a))

    # ---- public operations -------------------------------------------------

    def alg_update(self, ev) -> set[tuple[int, int]]:
        self.alg.apply(ev)  # the path core's graph is g: this updates both
        self.update_count += 1
        if self._update_helper(ev):
            self._active_stale = True
        self._rebuild()
        return set(self.H)

    def apply(self, ev) -> None:
        self.alg_update(ev)

    def edges(self) -> set[tuple[int, int]]:
        return set(self.H)

    def dist(self, u: int, v: int) -> float:
        """The distance from u to v in the current spanner H."""
        return bfs_dist(graph_of(self.g.n, self.H), u)[v]

    def stats(self) -> dict[str, int]:
        """Deterministic counters of the work done since construction.

        Every update is exactly one of helper_untouched (a deleted edge
        that G~ did not keep), helper_bfs_settled (an inserted edge that
        one search showed G~ does not need) and suffix_reruns;
        suffix_edges_scanned sums the edges those reruns rescanned, each
        either stored_path_settled (kept dropped by its stored path) or
        one of suffix_searches (decided by a search).  The
        path core's read counters follow under a reporter_ prefix,
        summed over every path core since construction.
        """
        return {
            "updates": self.update_count,
            **self._counts,
            "reinits": len(self.reinit_events),
            "fallback_pairs": len(self.fallback_pairs),
            **{f"reporter_{key}": v for key, v in self._reporter_reads().items()},
        }

    def _reporter_reads(self) -> dict[str, int]:
        """The current path core's read counters plus the retired ones'."""
        return {
            key: self._retired_reads.get(key, 0) + v
            for key, v in self.alg.stats().items()
        }
