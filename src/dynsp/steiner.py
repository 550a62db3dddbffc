"""Fully dynamic approximate Steiner tree over a terminal set.

The classic 2-approximation: build the terminal clique weighted by
(approximate) pairwise distances, take its MST, and expand every MST
edge back into an actual path in G.  With a (1+eps/2)-accurate
distance provider the tree weight is within (2+eps) of optimum.

Everything downstream of the distance provider is recomputed per
operation: the closure after an edge event, as one |S| x |S| block of
distances from the provider (one 1 x |S| row on terminal addition,
none on removal, none with fewer than two terminals), then the MST,
then the expansion, as one column read over the far ends of every MST
edge (ApproxApsp.paths).  So an edge update with two or more terminals
costs the provider two reads, plus a BFS on its spanner per closure
row or path beyond D, and one with fewer costs none.  Overlapping
expanded paths are counted once because the reported tree is a
spanning tree of their union: graph.bfs_tree from the lowest-indexed
terminal, where each vertex hangs from its smallest-index neighbour one
level closer, the successor rule every structure reports paths by.
"""
from __future__ import annotations

import math

from .apsp import ApproxApsp
from .graph import AddTerminal, DynamicGraph, RemoveTerminal, bfs_tree

INF = math.inf


class Disconnected(RuntimeError):
    """The terminal set is split across components; reports the partition."""

    def __init__(self, groups: list[list[int]]) -> None:
        super().__init__(f"terminals split into {len(groups)} groups: {groups}")
        self.groups = groups


class TerminalStateError(ValueError):
    """Adding a present terminal or removing an absent one."""


class SteinerTree:
    """Immutable snapshot: vertex set, edge set, total weight."""

    __slots__ = ("vertices", "edges", "weight")

    def __init__(self, vertices: frozenset, edges: frozenset) -> None:
        self.vertices = vertices
        self.edges = edges
        self.weight = len(edges)


class SteinerState:
    def __init__(
        self,
        g: DynamicGraph,
        terminals,
        eps=1,
        seed: int = 0,
        provider: ApproxApsp | None = None,
    ) -> None:
        self.provider = provider or ApproxApsp(g, eps / 2, seed=seed)
        self.S: set[int] = set()
        self.closure: dict[int, dict[int, float]] = {}
        self._closure_reads = 0
        for v in sorted(set(terminals)):
            self._add_closure_row(v)
            self.S.add(v)
        self.tree = self._rebuild_tree()

    # ---- closure bookkeeping ----------------------------------------------

    def _add_closure_row(self, v: int) -> None:
        terms = sorted(self.S)
        row = self.provider.dist_block([v], terms)[0].tolist()
        self._closure_reads += bool(terms)  # the first terminal reads nothing
        self.closure[v] = dict(zip(terms, row))
        for w, d in zip(terms, row):
            self.closure[w][v] = d

    def _recompute_closure(self) -> None:
        """The closure from one block; each pair a < b reads entry (a, b).

        Fewer than two terminals have no pair, and read nothing.
        """
        terms = sorted(self.S)
        self.closure = {v: {} for v in terms}
        if len(terms) < 2:
            return
        block = self.provider.dist_block(terms, terms).tolist()
        self._closure_reads += 1
        for x, a in enumerate(terms):
            for y in range(x + 1, len(terms)):
                b2, d = terms[y], block[x][y]
                self.closure[a][b2] = d
                self.closure[b2][a] = d

    # ---- operations --------------------------------------------------------

    def steiner_edge_update(self, ev) -> SteinerTree:
        self.provider.apply(ev)
        self._recompute_closure()
        self.tree = self._rebuild_tree()
        return self.tree

    def steiner_add_terminal(self, v: int) -> SteinerTree:
        if v in self.S:
            raise TerminalStateError(f"terminal {v} already present")
        self._add_closure_row(v)
        self.S.add(v)
        self.tree = self._rebuild_tree()
        return self.tree

    def steiner_remove_terminal(self, v: int) -> SteinerTree:
        if v not in self.S:
            raise TerminalStateError(f"terminal {v} not present")
        self.S.discard(v)
        del self.closure[v]
        for row in self.closure.values():
            row.pop(v, None)
        self.tree = self._rebuild_tree()
        return self.tree

    def apply(self, ev) -> SteinerTree:
        """One script event: a terminal change or an edge update."""
        if isinstance(ev, AddTerminal):
            return self.steiner_add_terminal(ev.v)
        if isinstance(ev, RemoveTerminal):
            return self.steiner_remove_terminal(ev.v)
        return self.steiner_edge_update(ev)

    def dist(self, u: int, v: int) -> float:
        """The provider's distance estimate."""
        return self.provider.approx_dist(u, v)

    def stats(self) -> dict[str, int]:
        """Deterministic counters: the provider's, plus closure_reads.

        closure_reads counts the closure blocks read from the provider:
        one per edge update with at least two terminals, and one per
        terminal added to a non-empty set.
        """
        return {**self.provider.stats(), "closure_reads": self._closure_reads}

    # ---- construction ------------------------------------------------------

    def _mst_edges(self) -> list[tuple[int, int]]:
        """Kruskal on the terminal clique's finite entries, in deterministic
        (w, a, b) order.

        Raises Disconnected, with the union-find's groups in order of
        their least terminal, when those entries span no tree.
        """
        terms = sorted(self.S)
        closure = self.closure
        cand = sorted(
            (closure[a][b2], a, b2)
            for i, a in enumerate(terms)
            for b2 in terms[i + 1 :]
            if closure[a][b2] < INF
        )
        parent = {t: t for t in terms}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        out = []
        for w, a, b2 in cand:
            ra, rb = find(a), find(b2)
            if ra != rb:
                parent[ra] = rb
                out.append((a, b2))
        if len(out) < len(terms) - 1:
            groups: dict[int, list[int]] = {}
            for t in terms:
                groups.setdefault(find(t), []).append(t)
            raise Disconnected(list(groups.values()))
        return out

    def _rebuild_tree(self) -> SteinerTree:
        if len(self.S) <= 1:
            return SteinerTree(frozenset(self.S), frozenset())
        union = DynamicGraph(self.provider.g.n)
        for path in self.provider.paths(self._mst_edges()):
            for x, y in zip(path, path[1:]):
                if not union.has_edge(x, y):
                    union.insert_edge(x, y)
        _level, parent = bfs_tree(union, min(self.S), union.n)
        missing = self.S - parent.keys()
        if missing:  # distances said connected, paths disagreed
            raise Disconnected(sorted([sorted(missing), sorted(self.S - missing)]))
        edges = frozenset(
            (v, p) if v < p else (p, v) for v, p in parent.items() if p is not None
        )
        return SteinerTree(frozenset(parent), edges)
