"""Even-Shiloach bounded-radius shortest-path trees.

An EsTree maintains, for one root and hop radius r, the exact level
(distance) of every vertex in the ball B(root, r) together with a
shortest-path tree on that ball.  The structure is partially dynamic:
an instance is declared decremental (deletions only) or incremental
(insertions only), and the other update kind raises ModeViolation.

The caller owns the graph: apply the edge change to the DynamicGraph
first, then notify every tree built on it.  Updates return the change
set as a dict {vertex: (old_level, new_level)} where None stands for
"outside the ball".
"""
from __future__ import annotations

import heapq

from .graph import DynamicGraph, bfs_tree

DECREMENTAL = "decremental"
INCREMENTAL = "incremental"


class ModeViolation(RuntimeError):
    """Update kind does not match the tree's declared partially dynamic mode."""


class EsTree:
    __slots__ = ("g", "root", "radius", "mode", "level", "parent", "children", "dirty")

    def __init__(self, g: DynamicGraph, root: int, radius: int, mode: str) -> None:
        if mode not in (DECREMENTAL, INCREMENTAL):
            raise ValueError(f"unknown mode {mode!r}")
        self.g = g
        self.root = root
        self.radius = radius
        self.mode = mode
        self.dirty = False  # set when the tree shape changes (for H deltas)
        self._rebuild()

    def _rebuild(self) -> None:
        self.level, self.parent = bfs_tree(self.g, self.root, self.radius)
        self.children = {v: set() for v in self.level}
        for v, par in self.parent.items():
            if par is not None:
                self.children[par].add(v)

    # ---- queries ----------------------------------------------------------

    def tree_edges(self) -> set[tuple[int, int]]:
        """Tree edges, normalized (min, max) for undirected comparison."""
        return {(v, p) if v < p else (p, v) for v, p in self.parent.items() if p is not None}

    # ---- updates ----------------------------------------------------------

    def es_delete(self, u: int, v: int) -> dict[int, tuple]:
        """Process deletion of edge (u, v), already removed from the graph."""
        if self.mode != DECREMENTAL:
            raise ModeViolation("es_delete on a non-decremental tree")
        starts = []
        for child, par in ((u, v), (v, u)):
            if self.parent.get(child) == par:
                starts.append(child)
        if not starts:
            return {}
        return self._raise_levels(starts)

    def es_insert(self, u: int, v: int) -> dict[int, tuple]:
        """Process insertion of edge (u, v), already added to the graph."""
        if self.mode != INCREMENTAL:
            raise ModeViolation("es_insert on a non-incremental tree")
        changes: dict[int, tuple] = {}
        queue = []
        for a, b in ((u, v), (v, u)):
            if b in self.g.adj[a]:  # respects direction if ever directed
                queue.append((a, b))
        while queue:
            a, b = queue.pop()
            la = self.level.get(a)
            if la is None or la + 1 > self.radius:
                continue
            lb = self.level.get(b)
            if lb is not None and lb <= la + 1:
                continue
            if b not in changes:
                changes[b] = (lb, None)
            self._set_parent(b, a, la + 1)
            for c in self.g.adj[b]:
                queue.append((b, c))
        return {v_: (old, self.level[v_]) for v_, (old, _) in changes.items()}

    # ---- internals --------------------------------------------------------

    def _set_parent(self, v: int, par: int, lv: int) -> None:
        self.dirty = True
        old_par = self.parent.get(v)
        if old_par is not None:
            self.children[old_par].discard(v)
        self.level[v] = lv
        self.parent[v] = par
        self.children.setdefault(v, set())
        self.children[par].add(v)

    def _drop(self, v: int) -> None:
        self.dirty = True
        par = self.parent.pop(v, None)
        if par is not None:
            self.children[par].discard(v)
        del self.level[v]

    def _raise_levels(self, starts: list[int]) -> dict[int, tuple]:
        old_levels = {}
        heap: list[tuple[int, int]] = []
        for x in starts:
            old_levels[x] = self.level[x]
            heapq.heappush(heap, (self.level[x], x))
        while heap:
            lx, x = heapq.heappop(heap)
            if self.level.get(x) != lx or x == self.root:
                continue  # stale entry (or the root, which never moves)
            if self.parent.get(x) is not None:
                # still has a recorded parent; check it remained valid
                par = self.parent[x]
                if self.level.get(par) == lx - 1 and x in self.g.adj[par]:
                    continue
            found = None
            for w in self.g.radj[x]:
                if self.level.get(w) == lx - 1:
                    if found is None or w < found:
                        found = w
            if found is not None:
                self._set_parent(x, found, lx)
                continue
            # no parent available: the level rises (monotone in this mode)
            old_levels.setdefault(x, lx)
            kids = list(self.children.get(x, ()))
            for c in kids:
                old_levels.setdefault(c, self.level[c])
                self.children[x].discard(c)
                self.parent[c] = None
                heapq.heappush(heap, (self.level[c], c))
            if lx + 1 > self.radius:
                self._drop(x)
                self.children.pop(x, None)
            else:
                if self.parent.get(x) is not None:
                    self.children[self.parent[x]].discard(x)
                self.parent[x] = None
                self.level[x] = lx + 1
                heapq.heappush(heap, (lx + 1, x))
        changes = {}
        for v_, old in old_levels.items():
            new = self.level.get(v_)
            if new != old:
                changes[v_] = (old, new)
            assert new is None or new >= old, "decremental level decreased"
        return changes
