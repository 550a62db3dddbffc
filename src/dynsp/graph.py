"""Dynamic unweighted graphs, update scripts, and the BFS oracle.

Vertices are dense integers [0, n); n is fixed at construction.  No
self-loops, no parallel edges.  Undirected edges are stored once in
``edges()`` terms but mirrored in both adjacency sets.  Unreachable
distance is ``math.inf``, never a large finite number.

The update-script text format (one event per line) is the exchange
format between gadget generators, dynamic structures, and oracles:

    N <n> <directed:0|1>
    E <u> <v>          initial edge
    I <u> <v>          insert
    D <u> <v>          delete
    QD <u> <v> [expected]
    QP <u> <v>
    T+ <v> / T- <v>    terminal add / remove
    PH <i> [expected_bit]
    # comment
"""
from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

INF = math.inf


class IllegalUpdate(ValueError):
    """Insert of an existing edge, delete of a missing edge, or self-loop."""


# ---- events ---------------------------------------------------------------


@dataclass(frozen=True)
class InsertEdge:
    u: int
    v: int


@dataclass(frozen=True)
class DeleteEdge:
    u: int
    v: int


@dataclass(frozen=True)
class DistQuery:
    u: int
    v: int
    expected: Optional[float] = None


@dataclass(frozen=True)
class PathQuery:
    u: int
    v: int


@dataclass(frozen=True)
class AddTerminal:
    v: int


@dataclass(frozen=True)
class RemoveTerminal:
    v: int


@dataclass(frozen=True)
class PhaseMark:
    i: int
    expected_bit: Optional[int] = None


Event = object  # any of the dataclasses above


class DynamicGraph:
    """Adjacency-set graph under edge insertions and deletions."""

    __slots__ = ("n", "directed", "adj", "radj", "edge_count")

    def __init__(self, n: int, directed: bool = False) -> None:
        if n <= 0:
            raise ValueError("need at least one vertex")
        self.n = n
        self.directed = directed
        self.adj = [set() for _ in range(n)]
        # reverse adjacency; aliases adj for undirected graphs
        self.radj = [set() for _ in range(n)] if directed else self.adj
        self.edge_count = 0

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IllegalUpdate(f"vertex out of range: ({u}, {v})")
        if u == v:
            raise IllegalUpdate(f"self-loop ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def insert_edge(self, u: int, v: int) -> None:
        self._check_pair(u, v)
        if v in self.adj[u]:
            raise IllegalUpdate(f"edge ({u}, {v}) already present")
        self.adj[u].add(v)
        self.radj[v].add(u)
        if not self.directed:
            self.adj[v].add(u)
        self.edge_count += 1

    def delete_edge(self, u: int, v: int) -> None:
        self._check_pair(u, v)
        if v not in self.adj[u]:
            raise IllegalUpdate(f"edge ({u}, {v}) not present")
        self.adj[u].discard(v)
        self.radj[v].discard(u)
        if not self.directed:
            self.adj[v].discard(u)
        self.edge_count -= 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once; undirected edges reported with u < v."""
        for u in range(self.n):
            for v in self.adj[u]:
                if self.directed or u < v:
                    yield (u, v)

    def copy(self) -> "DynamicGraph":
        return graph_of(self.n, self.edges(), self.directed)

    def edge_hash(self) -> int:
        return hash(frozenset(self.edges()) | {("n", self.n, self.directed)})

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"DynamicGraph(n={self.n}, m={self.edge_count}, {kind})"


def graph_of(n: int, edges, directed: bool = False) -> DynamicGraph:
    """The graph on [0, n) with the given edges."""
    g = DynamicGraph(n, directed)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def apply_update(g: DynamicGraph, ev) -> DynamicGraph:
    """Apply an edge event in place; returns g for chaining."""
    if isinstance(ev, InsertEdge):
        g.insert_edge(ev.u, ev.v)
    elif isinstance(ev, DeleteEdge):
        g.delete_edge(ev.u, ev.v)
    else:
        raise IllegalUpdate(f"not an edge event: {ev!r}")
    return g


def bfs_dist(g: DynamicGraph, s: int) -> list[float]:
    """Exact hop distances from s; INF where unreachable."""
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    dist = [INF] * g.n
    dist[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for v in g.adj[u]:
            if dist[v] is INF or dist[v] > du:
                dist[v] = du
                q.append(v)
    return dist


class _Reversed(NamedTuple):
    """A graph's reverse adjacency, as the n and adj that bfs_dist reads."""

    n: int
    adj: list[set[int]]


def bfs_path(g: DynamicGraph, u: int, v: int) -> Optional[list[int]]:
    """A shortest u-v path, or None when v is unreachable from u.

    Distances towards v come from one BFS from v over the reverse
    adjacency, which is the adjacency itself on undirected graphs.
    Every step goes to the smallest-index neighbour one hop closer to v.
    """
    dist = bfs_dist(_Reversed(g.n, g.radj), v)
    if dist[u] == INF:
        return None
    return descend(g, u, v, dist.__getitem__)


def descend(g: DynamicGraph, i: int, j: int, dist_to) -> list[int]:
    """The walk from i towards j down the distance lookup dist_to.

    dist_to(v) is v's distance towards j, or None where unknown.  Every
    step goes to the smallest-index neighbour one closer.  The walk
    stops early where no neighbour qualifies, so then path[-1] != j.
    """
    path = [i]
    while path[-1] != j:
        want = dist_to(path[-1]) - 1
        closer = [w for w in g.adj[path[-1]] if dist_to(w) == want]
        if not closer:
            break
        path.append(min(closer))
    return path


def bfs_dist_bounded(g: DynamicGraph, sources, radius: int) -> dict[int, int]:
    """Distances from the nearest of the sources, up to the given hop
    radius (inclusive), in the order BFS reaches them."""
    dist = dict.fromkeys(sources, 0)
    q = deque(dist)
    while q:
        u = q.popleft()
        du = dist[u]
        if du == radius:
            continue
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = du + 1
                q.append(v)
    return dist


def bfs_tree(g: DynamicGraph, root: int, radius: int) -> tuple[dict[int, int], dict]:
    """The ball of the given hop radius around root, and a shortest-path
    tree on it: (level, parent), where parent[v] is the smallest
    in-neighbour of v one level closer to root, and None at the root.

    One BFS, level by level, finds both.  Every in-neighbour of v one
    level closer scans v before the next level starts, so v keeps the
    smallest of them.  Both dicts list the ball in the order the BFS
    reaches it, as bfs_dist_bounded does.
    """
    level = {root: 0}
    parent = {root: None}
    frontier = [root]
    adj = g.adj
    for d in range(1, radius + 1):
        reached = []
        for u in frontier:
            for v in adj[u]:
                lv = level.get(v)
                if lv is None:
                    level[v] = d
                    parent[v] = u
                    reached.append(v)
                elif lv == d and u < parent[v]:
                    parent[v] = u
        if not reached:
            break
        frontier = reached
    return level, parent


def all_pairs_dist(g: DynamicGraph) -> list[list[float]]:
    return [bfs_dist(g, s) for s in range(g.n)]


# ---- update scripts -------------------------------------------------------


@dataclass
class UpdateScript:
    """Ordered updates/queries plus the initial graph they run against."""

    n: int
    directed: bool
    initial_edges: list[tuple[int, int]]
    events: list[Event]

    def initial_graph(self) -> DynamicGraph:
        return graph_of(self.n, self.initial_edges, self.directed)

    def validate(self) -> None:
        """Replay edge events against a scratch graph; raises IllegalUpdate."""
        g = self.initial_graph()
        for ev in self.events:
            if isinstance(ev, (InsertEdge, DeleteEdge)):
                apply_update(g, ev)


def serialize_script(script: UpdateScript) -> str:
    lines = [f"N {script.n} {1 if script.directed else 0}"]
    for u, v in script.initial_edges:
        lines.append(f"E {u} {v}")
    for ev in script.events:
        if isinstance(ev, InsertEdge):
            lines.append(f"I {ev.u} {ev.v}")
        elif isinstance(ev, DeleteEdge):
            lines.append(f"D {ev.u} {ev.v}")
        elif isinstance(ev, DistQuery):
            if ev.expected is None:
                lines.append(f"QD {ev.u} {ev.v}")
            else:
                exp = "inf" if ev.expected == INF else int(ev.expected)
                lines.append(f"QD {ev.u} {ev.v} {exp}")
        elif isinstance(ev, PathQuery):
            lines.append(f"QP {ev.u} {ev.v}")
        elif isinstance(ev, AddTerminal):
            lines.append(f"T+ {ev.v}")
        elif isinstance(ev, RemoveTerminal):
            lines.append(f"T- {ev.v}")
        elif isinstance(ev, PhaseMark):
            if ev.expected_bit is None:
                lines.append(f"PH {ev.i}")
            else:
                lines.append(f"PH {ev.i} {ev.expected_bit}")
        else:
            raise ValueError(f"unknown event {ev!r}")
    return "\n".join(lines) + "\n"


def parse_script(text: str) -> UpdateScript:
    """The script in the text format above.

    Raises ValueError naming the line for a line that does not parse,
    and for a query or terminal event whose vertex lies outside [0, n).
    Edge lines are range-checked when the graph applies them.
    """
    n = None
    directed = False
    initial: list[tuple[int, int]] = []
    events: list[Event] = []
    vertex_lines = []  # (lineno, raw, vertices) of the queries and terminal events
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "N":
                n = int(parts[1])
                directed = bool(int(parts[2]))
            elif tag == "E":
                initial.append((int(parts[1]), int(parts[2])))
            elif tag == "I":
                events.append(InsertEdge(int(parts[1]), int(parts[2])))
            elif tag == "D":
                events.append(DeleteEdge(int(parts[1]), int(parts[2])))
            elif tag == "QD":
                exp = None
                if len(parts) > 3:
                    exp = INF if parts[3] == "inf" else float(int(parts[3]))
                events.append(DistQuery(int(parts[1]), int(parts[2]), exp))
            elif tag == "QP":
                events.append(PathQuery(int(parts[1]), int(parts[2])))
            elif tag == "T+":
                events.append(AddTerminal(int(parts[1])))
            elif tag == "T-":
                events.append(RemoveTerminal(int(parts[1])))
            elif tag == "PH":
                bit = int(parts[2]) if len(parts) > 2 else None
                events.append(PhaseMark(int(parts[1]), bit))
            else:
                raise ValueError(f"unknown tag {tag!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}") from exc
        if tag in ("QD", "QP", "T+", "T-"):
            ev = events[-1]
            vertex_lines.append((lineno, raw, [ev.v] if tag[0] == "T" else [ev.u, ev.v]))
    if n is None:
        raise ValueError("script is missing its N header line")
    for lineno, raw, vertices in vertex_lines:
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"line {lineno}: vertex {v} outside [0, {n}) in {raw!r}")
    return UpdateScript(n=n, directed=directed, initial_edges=initial, events=events)


def replay(st, events) -> Iterator[tuple[int, Event, object, Optional[float]]]:
    """Replay events against st, yielding (index, event, answer, seconds).

    An edge or terminal event calls st.apply(ev), a QD st.dist(u, v) and a
    QP st.path(u, v); answer is what the call returned, seconds its time.
    A PH, or a QP to a structure without path(), calls nothing: both None.
    """
    has_path = hasattr(st, "path")
    for idx, ev in enumerate(events):
        if isinstance(ev, DistQuery):
            call, args = st.dist, (ev.u, ev.v)
        elif isinstance(ev, PathQuery) and has_path:
            call, args = st.path, (ev.u, ev.v)
        elif isinstance(ev, (PathQuery, PhaseMark)):
            yield idx, ev, None, None
            continue
        else:
            call, args = st.apply, (ev,)
        t0 = time.perf_counter()
        answer = call(*args)
        yield idx, ev, answer, time.perf_counter() - t0


def validate_path(g: DynamicGraph, path: list[int]) -> bool:
    """True iff consecutive path vertices are joined by current edges."""
    return all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
