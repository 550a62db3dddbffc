"""(1+eps, beta)-spanners from levels, balls and blocks.

Every vertex gets a level: A_0 = V and each higher level subsamples the
one below so that membership in A_i has marginal probability
min(1, n^(-i/k) * ln n).  A vertex a at level i is ACTIVE when no
vertex of a higher level j sits within distance
eps'^-(j+1) - eps'^-(i+1) of it (eps' = eps/8).  The spanner H is the
union of the shortest-path trees of the balls of radius
ceil(eps'^-(i+1)) around the active vertices.

The static construction evaluates the predicate without a BFS per
vertex.  x at level i is blocked iff for some j > i the nearest level-j
vertex is within floor(threshold(j, i)) of x.  So one bounded BFS from
all the level-j vertices at once, as deep as the largest such floor,
decides every vertex that level j blocks: one BFS per level j >= 1, in
O(n + m) each.  That pass, blocked_vertices, takes the graph, the levels
and the floors, and the algebraic spanner (spanner_alg) decides its own
activeness with it too.  Then one bounded BFS tree (graph.bfs_tree) per
active vertex gives H.

The fully dynamic variant simply reruns the static construction after
every update (sp_rebuild_update); RebuildSpanner wraps that with lazy
evaluation so consumers that only look at H at query time skip
untouched rebuilds.

The partially dynamic variants (SpannerState, decremental or
incremental) maintain each active ball as an Even-Shiloach tree, with
H reference-counted because trees overlap.  Blocks make activeness
maintainable: an active high-level vertex "blocks" every in-threshold
lower-level ball member, and revokes the block when the distance
outgrows the threshold.  A vertex is active iff it holds no blocks.
Activeness is monotone per mode: deletions only activate, insertions
only deactivate.

All thresholds are exact rationals; ball radii take the ceiling.
Distances are integers, and d <= thr exactly when d <= floor(thr), so
the block tests compare against a table of floors built once.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._kernels import derive_seed
from .estree import DECREMENTAL, INCREMENTAL, EsTree, ModeViolation
from .graph import (
    DeleteEdge,
    DynamicGraph,
    InsertEdge,
    apply_update,
    bfs_dist,
    bfs_dist_bounded,
    bfs_tree,
    graph_of,
)


def sample_levels(n: int, k: int, seed: int) -> list[int]:
    """level[v] = max i with v in A_i; nested subsampling, exact marginals.

    A_0 = V, and A_i keeps each vertex of A_(i-1) with the probability
    that takes its marginal to min(1, n^(-i/k) ln n); A_(k+1) is empty.
    """
    rng = np.random.default_rng(seed)
    level = [0] * n
    prev_prob = 1.0
    alive = list(range(n))
    for i in range(1, k + 1):
        prob = min(1.0, n ** (-i / k) * math.log(n)) if n > 1 else 1.0
        keep_p = prob / prev_prob if prev_prob > 0 else 0.0
        coins = rng.random(len(alive))
        alive = [v for v, c in zip(alive, coins) if c < keep_p]
        for v in alive:
            level[v] = i
        prev_prob = prob
    return level


def default_k(n: int) -> int:
    """The top level when none is given: ceil(sqrt(log2 n)), at least 1."""
    return max(1, math.ceil(math.sqrt(max(1.0, math.log2(n)))))


def resolve_k(n: int, k: int | None) -> int:
    """The top level: k, or default_k(n) when k is None.

    k = 0 is legal: every vertex is at level 0 and active, so H keeps a
    BFS ball of radius 1/eps' around each, at the smallest certificate
    beta = 2 ceil(8/eps).  k below 0 is a ValueError.
    """
    if k is None:
        return default_k(n)
    if k < 0:
        raise ValueError(f"need k >= 0, got k = {k}")
    return k


def beta_certificate(n: int, eps, k: int | None = None) -> int:
    """The spanner's additive beta on n vertices, 2 ceil(eps'^-(k+1)) for eps' = eps/8."""
    if not 0 < float(eps) <= 1:
        raise ValueError("need 0 < eps <= 1")
    k = resolve_k(n, k)
    return 2 * math.ceil((Fraction(eps) / 8) ** -(k + 1))


def level_tables(g: DynamicGraph, eps, seed: int, k: int | None = None) -> tuple:
    """(k, beta, level, radii, floors): what a combinatorial spanner on g reads.

    k is the top level, beta the certificate, level[v] the sampled level
    of v, radii[i] the ball radius at level i and floors[j][i] the floor
    of the threshold between a level-j blocker and a level-i blockee.
    Checks eps, k and g first.
    """
    beta = beta_certificate(g.n, eps, k)
    if g.directed:
        raise ValueError("spanners are defined for undirected graphs")
    k = resolve_k(g.n, k)
    inv_pow = [(Fraction(eps) / 8) ** -(i + 1) for i in range(k + 1)]
    radii = [min(g.n, math.ceil(x)) for x in inv_pow]
    floors = [[math.floor(x - y) for y in inv_pow] for x in inv_pow]
    return k, beta, sample_levels(g.n, k, derive_seed(seed, 0x5E)), radii, floors


def blocked_vertices(g: DynamicGraph, level: list[int], floors) -> set[int]:
    """The vertices that some higher-level vertex lies within threshold of.

    floors[j][i] is the integer floor of the threshold between a level-j
    blocker and a level-i blockee.  x at level i is blocked iff for some
    j > i the nearest level-j vertex is within floors[j][i] of x, so one
    BFS from all the level-j vertices at once, as deep as the largest
    floor below j, decides every vertex that level j blocks.
    """
    blocked: set[int] = set()
    for j in range(1, max(level, default=0) + 1):
        sources = [a for a in range(g.n) if level[a] == j]
        reach = bfs_dist_bounded(g, sources, max(floors[j][:j]))
        blocked.update(x for x, d in reach.items() if level[x] < j and d <= floors[j][level[x]])
    return blocked


class SpannerState:
    """The decremental or incremental spanner: one Even-Shiloach tree per
    active vertex, maintained under edge deletions or insertions."""

    def __init__(self, g: DynamicGraph, eps, seed: int, mode: str, k: int | None = None) -> None:
        tables = level_tables(g, eps, seed, k)  # checks eps, k and g first
        if mode not in (DECREMENTAL, INCREMENTAL):
            raise ValueError(f"unknown mode {mode!r}")
        self.g = g
        self.mode = mode
        self.eps = Fraction(eps)
        self.k, self.beta_certificate, self.level, self._radii, self._floors = tables
        self.active: dict[int, bool] = {}
        self.balls: dict[int, EsTree] = {}
        self.tree_edges: dict[int, set] = {}
        self.blocks_of: dict[int, set[int]] = {v: set() for v in range(g.n)}
        self.H: dict[tuple[int, int], int] = {}
        self._init_active()

    # ---- static construction ----------------------------------------------

    def recompute_active_from_scratch(self) -> dict[int, bool]:
        """The activeness predicate, from one bounded BFS per blocker level."""
        blocked = blocked_vertices(self.g, self.level, self._floors)
        return {v: v not in blocked for v in range(self.g.n)}

    def _init_active(self) -> None:
        self.active = self.recompute_active_from_scratch()
        for a, is_active in self.active.items():
            if is_active:
                tree = EsTree(self.g, a, self._radii[self.level[a]], self.mode)
                self.balls[a] = tree
                self._record_blocks(a, tree)
        for v in range(self.g.n):
            # the maximal-level blocker of a blocked vertex is itself active,
            # so block bookkeeping from active balls must cover the predicate
            assert self.active[v] == (not self.blocks_of[v]), "block invariant"
        for a, tree in self.balls.items():
            self._adopt_tree_edges(a, tree)

    def _record_blocks(self, a: int, tree: EsTree) -> None:
        j = self.level[a]
        floors = self._floors[j]
        for x, dx in tree.level.items():
            i = self.level[x]
            if i < j and dx <= floors[i]:
                self.blocks_of[x].add(a)

    def _adopt_tree_edges(self, a: int, tree: EsTree) -> None:
        edges = tree.tree_edges()
        old = self.tree_edges.get(a, set())
        for e in edges - old:
            self.H[e] = self.H.get(e, 0) + 1
        for e in old - edges:
            self.H[e] -= 1
            if self.H[e] == 0:
                del self.H[e]
        self.tree_edges[a] = edges
        tree.dirty = False

    def _release_tree(self, a: int) -> None:
        for e in self.tree_edges.pop(a, set()):
            self.H[e] -= 1
            if self.H[e] == 0:
                del self.H[e]

    # ---- dynamic maintenance ----------------------------------------------

    def sp_update(self, ev) -> dict:
        """Apply one edge event; returns {'added': set, 'removed': set}."""
        if self.mode == DECREMENTAL and not isinstance(ev, DeleteEdge):
            raise ModeViolation("decremental spanner got a non-deletion")
        if self.mode == INCREMENTAL and not isinstance(ev, InsertEdge):
            raise ModeViolation("incremental spanner got a non-insertion")
        before = set(self.H)
        apply_update(self.g, ev)
        deleting = isinstance(ev, DeleteEdge)
        for a, tree in list(self.balls.items()):
            changes = (
                tree.es_delete(ev.u, ev.v) if deleting else tree.es_insert(ev.u, ev.v)
            )
            self._apply_block_changes(a, changes)
        if deleting:
            self._cascade_activations()
        else:
            self._cascade_deactivations()
        for a, tree in self.balls.items():
            if tree.dirty:
                self._adopt_tree_edges(a, tree)
        after = set(self.H)
        return {"added": after - before, "removed": before - after}

    def _apply_block_changes(self, a: int, changes: dict) -> None:
        j = self.level[a]
        floors = self._floors[j]
        for x, (old, new) in changes.items():
            i = self.level[x]
            if i >= j:
                continue
            thr = floors[i]
            was = old is not None and old <= thr
            now = new is not None and new <= thr
            if was and not now:
                self.blocks_of[x].discard(a)
            elif now and not was:
                self.blocks_of[x].add(a)

    def _cascade_activations(self) -> None:
        # deletions only revoke blocks; vertices whose last block went away
        # turn active, build a ball, and record their own (pre-existing)
        # blocks.  Those may fall on another such vertex of a lower level,
        # so they turn active from the top level down, and a vertex that a
        # higher one blocked meanwhile stays inactive.
        newly = sorted(
            (v for v in range(self.g.n) if not self.active[v] and not self.blocks_of[v]),
            key=lambda v: (-self.level[v], v),
        )
        for v in newly:
            if self.blocks_of[v]:
                continue
            self.active[v] = True
            tree = EsTree(self.g, v, self._radii[self.level[v]], self.mode)
            self.balls[v] = tree
            tree.dirty = True
            self._record_blocks(v, tree)

    def _cascade_deactivations(self) -> None:
        newly = sorted(
            v for v in range(self.g.n) if self.active[v] and self.blocks_of[v]
        )
        for v in newly:
            # blocks already invoked by v stay valid (distances only shrink
            # in incremental mode), but its ball leaves the spanner
            self.active[v] = False
            self.balls.pop(v)
            self._release_tree(v)


def sp_rebuild_update(g, eps, seed, k=None) -> tuple[set[tuple[int, int]], int]:
    """Fully dynamic variant: one static construction on the current graph.

    Returns H, the union of the BFS trees of the active vertices, with
    each edge as (min, max), and the number of trees.
    """
    _, _, level, radii, floors = level_tables(g, eps, seed, k)
    blocked = blocked_vertices(g, level, floors)
    roots = [a for a in range(g.n) if a not in blocked]
    H = set()
    for a in roots:
        _, parent = bfs_tree(g, a, radii[level[a]])
        H.update((v, p) if v < p else (p, v) for v, p in parent.items() if p is not None)
    return H, len(roots)


class RebuildSpanner:
    """Fully dynamic spanner that reruns the static construction per update.

    Rebuilds lazily at snapshot time: the spanner handed out is
    identical to rebuilding eagerly after every update, but updates
    that nobody observes don't pay for a construction.
    """

    def __init__(self, g: DynamicGraph, eps, seed: int, k: int | None = None) -> None:
        # checks eps and k, and is fixed by (n, eps, k): reading it runs no construction
        self.beta_certificate = beta_certificate(g.n, eps, k)
        self.g = g
        self.eps = eps
        self.seed = seed
        self.k = k
        self._counter = 0
        self._rebuilds = 0
        self._trees = 0
        self._state: set[tuple[int, int]] | None = None

    def apply(self, ev) -> None:
        apply_update(self.g, ev)
        self._counter += 1
        self._state = None

    def _ensure(self) -> set[tuple[int, int]]:
        if self._state is None:
            self._state, trees = sp_rebuild_update(
                self.g, self.eps, derive_seed(self.seed, self._counter), k=self.k
            )
            self._rebuilds += 1
            self._trees += trees
        return self._state

    def stats(self) -> dict[str, int]:
        """Deterministic counters of the work done since construction.

        updates counts applied edge events, rebuilds the static
        constructions actually run (at most one per observed snapshot)
        and trees the BFS trees those constructions built.
        """
        return {"updates": self._counter, "rebuilds": self._rebuilds, "trees": self._trees}

    def edges(self) -> set:
        return set(self._ensure())

    def subgraph(self) -> DynamicGraph:
        return graph_of(self.g.n, self._ensure())

    def dist(self, u: int, v: int) -> float:
        """The distance from u to v in the current spanner."""
        return bfs_dist(self.subgraph(), u)[v]
