"""Answer checks for the benchmark, computed apart from dynsp.

This module never imports dynsp: every reference answer comes from the
benchmark's own adjacency mirror, its own breadth-first search and its
own Dreyfus-Wagner Steiner optimum.  Each check raises CheckFailed with
a message naming the operation and the disagreement; it returns
nothing when the answer is right.

Distance matrices are float arrays with ``math.inf`` for unreachable
pairs.  They come from a level-synchronous BFS from every source at
once (one frontier expansion per hop, as a float matrix product).
"""
from __future__ import annotations

import math

import numpy as np

INF = math.inf


class CheckFailed(Exception):
    """A dynsp answer disagrees with the benchmark's own computation."""


class Mirror:
    """The benchmark's copy of the current undirected edge set."""

    def __init__(self, n: int, edges=()) -> None:
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.m = 0
        for u, v in edges:
            self.insert(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def insert(self, u: int, v: int) -> None:
        if u == v or v in self.adj[u]:
            raise ValueError(f"cannot insert ({u}, {v})")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.m += 1

    def delete(self, u: int, v: int) -> None:
        if v not in self.adj[u]:
            raise ValueError(f"cannot delete ({u}, {v})")
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.m -= 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def distance_matrix(n: int, edges) -> np.ndarray:
    """All-pairs hop distances of an undirected graph; INF if unreachable."""
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    hop = 0
    while True:
        hop += 1
        nxt = ((frontier @ adj) > 0) & ~reached
        if not nxt.any():
            return dist
        dist[nxt] = hop
        reached |= nxt
        frontier = nxt.astype(float)


def check_reporter_dist(dist: np.ndarray, u: int, v: int, answer, D: int, beyond) -> None:
    """A capped distance: the exact value up to D, the BEYOND token above it."""
    true = dist[u, v]
    if true > D:
        if answer is not beyond:
            raise CheckFailed(f"dist({u}, {v}) = {true} > D={D}, got {answer!r}")
    elif answer is beyond or answer != true:
        raise CheckFailed(f"dist({u}, {v}) = {true}, got {answer!r}")


def check_exact_dist(dist: np.ndarray, u: int, v: int, answer) -> None:
    if answer != dist[u, v]:
        raise CheckFailed(f"dist({u}, {v}) = {dist[u, v]}, got {answer!r}")


def check_path(adj: list[set[int]], u: int, v: int, path, length) -> None:
    """A walk of present edges from u to v with exactly `length` hops."""
    if not path or path[0] != u or path[-1] != v:
        raise CheckFailed(f"path for ({u}, {v}) has ends {path[:1]}..{path[-1:]}")
    for a, b in zip(path, path[1:]):
        if b not in adj[a]:
            raise CheckFailed(f"path for ({u}, {v}) uses missing edge ({a}, {b})")
    if len(path) - 1 != length:
        raise CheckFailed(f"path for ({u}, {v}) has {len(path) - 1} hops, want {length}")


def check_subgraph(g_adj: list[set[int]], h_edges) -> None:
    for a, b in h_edges:
        if b not in g_adj[a]:
            raise CheckFailed(f"spanner edge ({a}, {b}) is not in G")


def check_spanner(dist_g: np.ndarray, dist_h: np.ndarray, eps, beta) -> float:
    """H connects what G connects, and dist_H <= (1+eps) dist_G + beta.

    The caller checks H against G's edge set with check_subgraph.
    Returns the worst additive excess max(dist_H - dist_G) over
    connected pairs, for reporting.
    """
    conn_g = np.isfinite(dist_g)
    if not np.array_equal(conn_g, np.isfinite(dist_h)):
        u, v = np.argwhere(conn_g != np.isfinite(dist_h))[0]
        raise CheckFailed(f"H and G disagree on whether ({u}, {v}) is connected")
    dg, dh = dist_g[conn_g], dist_h[conn_g]
    bad = dh > (1 + float(eps)) * dg + beta
    if bad.any():
        u, v = np.argwhere(conn_g)[np.argmax(bad)]
        raise CheckFailed(
            f"dist_H({u}, {v}) = {dist_h[u, v]} > (1+{eps})*{dist_g[u, v]} + {beta}"
        )
    return float((dh - dg).max()) if dg.size else 0.0


def steiner_opt(dist: np.ndarray, terminals) -> float:
    """Minimum Steiner tree weight by Dreyfus-Wagner over a distance matrix."""
    terms = sorted(terminals)
    k = len(terms)
    if k <= 1:
        return 0.0
    full = (1 << k) - 1
    dp = np.full((full + 1, dist.shape[0]), INF)
    for i, t in enumerate(terms):
        dp[1 << i] = dist[t]
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        best = np.full(dist.shape[0], INF)
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest:  # each unordered split once
                np.minimum(best, dp[sub] + dp[rest], out=best)
            sub = (sub - 1) & mask
        dp[mask] = (best[:, None] + dist).min(axis=0)
    return float(dp[full, terms[0]])


def check_steiner_tree(g_adj: list[set[int]], terminals, vertices, edges, weight) -> None:
    """The output is a tree of G's edges whose vertices include every terminal."""
    vertices = set(vertices)
    if weight != len(edges):
        raise CheckFailed(f"tree weight {weight} but {len(edges)} edges")
    if not set(terminals) <= vertices:
        raise CheckFailed(f"tree misses terminals {sorted(set(terminals) - vertices)}")
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in edges:
        if b not in g_adj[a]:
            raise CheckFailed(f"tree edge ({a}, {b}) is not in G")
        if a not in adj or b not in adj:
            raise CheckFailed(f"tree edge ({a}, {b}) leaves the vertex set")
        adj[a].add(b)
        adj[b].add(a)
    if vertices and len(edges) != len(vertices) - 1:
        raise CheckFailed(f"{len(edges)} edges on {len(vertices)} vertices is not a tree")
    if vertices:
        root = min(vertices)
        seen, stack = {root}, [root]
        while stack:
            for b in adj[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        if seen != vertices:
            raise CheckFailed("tree is not connected")


def check_steiner_weight(weight, opt_g: float, opt_h: float) -> None:
    """OPT_G <= weight <= 2 * OPT_H for the spanner H the closure was read from."""
    if not opt_g <= weight <= 2 * opt_h:
        raise CheckFailed(f"weight {weight} outside [OPT_G={opt_g}, 2*OPT_H={2 * opt_h}]")
