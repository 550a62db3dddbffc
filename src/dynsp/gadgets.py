"""Hard-instance generators and a replay harness for distance providers.

Two families of update scripts whose phase answers are known in
advance:

* OuMv scripts encode an online u^T M v product: a bipartite gadget
  per copy, phase edges wiring the current vector pair in, and one
  two-terminal distance query whose threshold separates product 1
  from product 0.  Fully dynamic phases restore the pre-phase graph;
  the incremental and decremental variants thread the copies with
  long paths whose attachment points shift each phase, so thresholds
  drift by a closed-form schedule instead of edges being removed.

* k-cycle scripts color the vertices uniformly at random, build
  (k+1)-layer copies whose inter-layer edges mirror the directed
  input edges, and detect a colorful k-cycle as a short two-terminal
  distance.  The whole construction repeats ceil(3 * k^(k-1)) times
  with fresh colorings, so a k-cycle is colorful in some repetition
  with probability at least 2/3.

Expected bits are always computed by brute force at generation time
(vector-matrix-vector product, or colorful-cycle enumeration), never
inferred from the thresholds.  The harness replays a script against any
provider with apply(event) and dist(u, v) through graph.replay, scores
each phase by the threshold rule, and reports mismatches as data.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .graph import (
    DeleteEdge,
    DistQuery,
    DynamicGraph,
    InsertEdge,
    PhaseMark,
    UpdateScript,
    apply_update,
    bfs_dist,
    bfs_path,
    replay,
)


class ParamDomain(ValueError):
    """Generator parameter outside its legal domain."""


@dataclass(frozen=True)
class OuMvInstance:
    M: tuple[tuple[int, ...], ...]
    vector_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        n = len(self.M)
        if any(len(row) != n for row in self.M):
            raise ParamDomain("M must be square")
        for u, v in self.vector_pairs:
            if len(u) != n or len(v) != n:
                raise ParamDomain("vector length must match M")

    @property
    def n(self) -> int:
        return len(self.M)

    def product_bit(self, i: int) -> int:
        """Brute-force (u^i)^T M v^i."""
        u, v = self.vector_pairs[i]
        return int(
            any(
                u[a] and self.M[a][b] and v[b]
                for a in range(self.n)
                for b in range(self.n)
            )
        )


@dataclass
class GadgetScript:
    script: UpdateScript
    phase_thresholds: list[int]
    expected_bits: list[int]
    query_pair: tuple[int, int]
    restore_marks: list[int] = field(default_factory=list)
    label: str = ""


# ---- OuMv constructions ----------------------------------------------------


def _gadget_edges(M, base: int, n: int) -> list[tuple[int, int]]:
    """Bipartite copy at offset base: a_k = base+k, b_k = base+n+k (0-based)."""
    return [
        (base + a, base + n + b)
        for a in range(n)
        for b in range(n)
        if M[a][b]
    ]


def gen_oumv_fully(inst: OuMvInstance, alpha, beta: int) -> GadgetScript:
    if not 0 <= alpha < 2 / 3:
        raise ParamDomain("need 0 <= alpha < 2/3")
    if not (isinstance(beta, int) and beta >= 0):
        raise ParamDomain("need integer beta >= 0")
    n = inst.n
    c = math.ceil(beta / (2 - 3 * alpha)) + 1
    w = [2 * c * n + l for l in range(c + 1)]
    N = 2 * c * n + c + 1
    initial = []
    for j in range(c):
        initial += _gadget_edges(inst.M, 2 * j * n, n)
    events: list = []
    thresholds: list[int] = []
    bits: list[int] = []
    marks: list[int] = []
    for i, (u, v) in enumerate(inst.vector_pairs):
        phase_edges = []
        for j in range(c):
            base = 2 * j * n
            phase_edges += [(w[j], base + k) for k in range(n) if u[k]]
            phase_edges += [(w[j + 1], base + n + k) for k in range(n) if v[k]]
        events += [InsertEdge(a, b) for a, b in phase_edges]
        events.append(DistQuery(w[0], w[c]))
        events.append(PhaseMark(i, inst.product_bit(i)))
        events += [DeleteEdge(a, b) for a, b in phase_edges]
        marks.append(len(events))
        thresholds.append(5 * c)
        bits.append(inst.product_bit(i))
    script = UpdateScript(n=N, directed=False, initial_edges=initial, events=events)
    return GadgetScript(script, thresholds, bits, (w[0], w[c]), marks, "oumv-fully")


def _path_layout(n: int, copies: int, pbase: int):
    """Vertex ids of the thread paths P_0 .. P_copies, from pbase on.

    Each path holds 2n-1 vertices and exposes z_i / y_i handles; the
    returned total is the vertex count up to and including the paths.
    """

    def z(j: int, i: int) -> int:  # z_i in P_j, i in 1..n
        return pbase + j * (2 * n - 1) + (i - 1)

    def y(j: int, i: int) -> int:  # y_i in P_j; y_n == z_n
        return pbase + j * (2 * n - 1) + (2 * n - 1 - i)

    return z, y, pbase + (copies + 1) * (2 * n - 1)


def _oumv_layout(n: int, copies: int):
    """Gadget j (1-based) sits at offset 2*(j-1)*n; the paths follow all gadgets."""
    z, y, total = _path_layout(n, copies, 2 * copies * n)
    return (lambda j: 2 * (j - 1) * n), z, y, total


def _inc_threshold(n: int, beta: int, i: int, cross: int = 4) -> int:
    return cross * (beta + 1) + (beta + 2) * (2 * n - 2 * i) + 2 * (i - 1)


def _path_edges(z, y, j: int, n: int) -> list[tuple[int, int]]:
    base_ids = [z(j, i) for i in range(1, n + 1)] + [y(j, i) for i in range(n - 1, 0, -1)]
    return list(zip(base_ids, base_ids[1:]))


def gen_oumv_incremental(inst: OuMvInstance, beta: int) -> GadgetScript:
    if not (isinstance(beta, int) and beta >= 0):
        raise ParamDomain("need integer beta >= 0")
    n = inst.n
    copies = beta + 1
    gbase, z, y, N = _oumv_layout(n, copies)
    events: list = []
    for j in range(1, copies + 1):
        events += [InsertEdge(a, b) for a, b in _gadget_edges(inst.M, gbase(j), n)]
    for j in range(copies + 1):
        events += [InsertEdge(a, b) for a, b in _path_edges(z, y, j, n)]
    thresholds, bits = [], []
    src, dst = z(0, 1), y(copies, 1)
    for i, (u, v) in enumerate(inst.vector_pairs, start=1):
        for j in range(1, copies + 1):
            events += [
                InsertEdge(y(j - 1, i), gbase(j) + k) for k in range(n) if u[k]
            ]
            events += [
                InsertEdge(z(j, i), gbase(j) + n + k) for k in range(n) if v[k]
            ]
        events.append(DistQuery(src, dst))
        events.append(PhaseMark(i - 1, inst.product_bit(i - 1)))
        thresholds.append(_inc_threshold(n, beta, i))
        bits.append(inst.product_bit(i - 1))
    script = UpdateScript(n=N, directed=False, initial_edges=[], events=events)
    return GadgetScript(script, thresholds, bits, (src, dst), [], "oumv-incremental")


def gen_oumv_decremental(inst: OuMvInstance, beta: int) -> GadgetScript:
    if not (isinstance(beta, int) and beta >= 0):
        raise ParamDomain("need integer beta >= 0")
    n = inst.n
    if len(inst.vector_pairs) != n:
        raise ParamDomain("decremental scripts need exactly n vector pairs")
    copies = beta + 1
    gbase, z, y, N = _oumv_layout(n, copies)
    initial: list[tuple[int, int]] = []
    for j in range(1, copies + 1):
        initial += _gadget_edges(inst.M, gbase(j), n)
    for j in range(copies + 1):
        initial += _path_edges(z, y, j, n)
    # every slot starts fully wired: y_i to all of A, z_i to all of B
    for i in range(1, n + 1):
        for j in range(1, copies + 1):
            initial += [(y(j - 1, i), gbase(j) + k) for k in range(n)]
            initial += [(z(j, i), gbase(j) + n + k) for k in range(n)]
    events: list = []
    thresholds, bits = [], []
    src, dst = z(0, 1), y(copies, 1)
    for i, (u, v) in enumerate(inst.vector_pairs, start=1):
        slot = n - i + 1
        for j in range(1, copies + 1):
            events += [
                DeleteEdge(y(j - 1, slot), gbase(j) + k)
                for k in range(n)
                if not u[k]
            ]
            events += [
                DeleteEdge(z(j, slot), gbase(j) + n + k)
                for k in range(n)
                if not v[k]
            ]
        events.append(DistQuery(src, dst))
        events.append(PhaseMark(i - 1, inst.product_bit(i - 1)))
        thresholds.append(_inc_threshold(n, beta, slot))
        bits.append(inst.product_bit(i - 1))
        # phase cleanup: the slot's surviving attachment edges go too
        for j in range(1, copies + 1):
            events += [
                DeleteEdge(y(j - 1, slot), gbase(j) + k) for k in range(n) if u[k]
            ]
            events += [
                DeleteEdge(z(j, slot), gbase(j) + n + k) for k in range(n) if v[k]
            ]
    script = UpdateScript(n=N, directed=False, initial_edges=initial, events=events)
    return GadgetScript(script, thresholds, bits, (src, dst), [], "oumv-decremental")


# ---- k-cycle constructions -------------------------------------------------


def _color_graph(g: DynamicGraph, k: int, seed: int) -> list[int]:
    import numpy as np

    rng = np.random.default_rng(seed)
    return [int(c) for c in rng.integers(1, k + 1, size=g.n)]


def _colorful_cycles_through(g: DynamicGraph, colors: list[int], k: int, v0: int) -> bool:
    """Directed k-cycle v0 -> ... -> v0 whose colors run 1, 2, ..., k."""
    if colors[v0] != 1:
        return False

    def extend(v: int, depth: int) -> bool:
        if depth == k:
            return v0 in g.adj[v]
        return any(
            colors[w] == depth + 1 and extend(w, depth + 1) for w in g.adj[v]
        )

    return extend(v0, 1)


def kcycle_exists(g: DynamicGraph, k: int) -> bool:
    """Brute-force directed k-cycle detection (any coloring)."""

    def extend(path: list[int]) -> bool:
        if len(path) == k:
            return path[0] in g.adj[path[-1]]
        return any(
            w not in path and extend(path + [w]) for w in g.adj[path[-1]]
        )

    return any(extend([v]) for v in range(g.n))


class _LayerIndex:
    """Vertex numbering for copies of the (k+1)-layer colored gadget."""

    def __init__(self, colors: list[int], k: int, copies: int) -> None:
        self.layers = []
        for l in range(1, k + 2):
            color = 1 if l == k + 1 else l
            self.layers.append([x for x, c in enumerate(colors) if c == color])
        self.copy_size = sum(len(layer) for layer in self.layers)
        self._pos: dict[tuple[int, int], int] = {}
        off = 0
        for l, layer in enumerate(self.layers, start=1):
            for x in layer:
                self._pos[(l, x)] = off
                off += 1
        self.copies = copies
        self.total = copies * self.copy_size

    def vid(self, copy: int, layer: int, x: int) -> int:
        """copy is 1-based, layer in 1..k+1, x an original vertex id."""
        return (copy - 1) * self.copy_size + self._pos[(layer, x)]

    def gadget_edges(self, g: DynamicGraph, copy: int) -> list[tuple[int, int]]:
        out = []
        for l in range(1, len(self.layers)):
            for a in self.layers[l - 1]:
                for b in self.layers[l]:
                    if b in g.adj[a]:
                        out.append((self.vid(copy, l, a), self.vid(copy, l + 1, b)))
        return out


def gen_kcycle(g: DynamicGraph, k: int, mode: dict, seed: int = 0) -> list[GadgetScript]:
    """One GadgetScript per color-coding repetition (ceil(3*k^(k-1)) of them)."""
    if not g.directed:
        raise ParamDomain("k-cycle detection needs a directed input graph")
    if k < 3 or k % 2 == 0:
        raise ParamDomain("need odd k >= 3")
    kind = mode.get("kind")
    reps = math.ceil(3 * k ** (k - 1))
    out = []
    for r in range(reps):
        colors = _color_graph(g, k, seed * reps + r + 1)
        if kind == "fully":
            out.append(_kcycle_fully(g, colors, k, mode["c"], r))
        elif kind == "incremental":
            out.append(_kcycle_partial(g, colors, k, mode["beta"], r, False))
        elif kind == "decremental":
            out.append(_kcycle_partial(g, colors, k, mode["beta"], r, True))
        else:
            raise ParamDomain(f"unknown mode kind {kind!r}")
    return out


def _kcycle_fully(g, colors, k, c: int, rep: int) -> GadgetScript:
    if c < 1:
        raise ParamDomain("need c >= 1")
    idx = _LayerIndex(colors, k, c)
    initial = []
    for j in range(1, c + 1):
        initial += idx.gadget_edges(g, j)
    phase_vertices = idx.layers[0]  # color-1 vertices
    events: list = []
    thresholds, bits, marks = [], [], []
    for ph, i in enumerate(phase_vertices):
        phase_edges = [
            (idx.vid(j, k + 1, i), idx.vid(j + 1, 1, i)) for j in range(1, c)
        ]
        events += [InsertEdge(a, b) for a, b in phase_edges]
        events.append(DistQuery(idx.vid(1, 1, i), idx.vid(c, k + 1, i)))
        bit = int(_colorful_cycles_through(g, colors, k, i))
        events.append(PhaseMark(ph, bit))
        events += [DeleteEdge(a, b) for a, b in phase_edges]
        marks.append(len(events))
        thresholds.append((k + 2) * c - 1)
        bits.append(bit)
    script = UpdateScript(n=max(idx.total, 1), directed=False, initial_edges=initial, events=events)
    qp = (
        (idx.vid(1, 1, phase_vertices[0]), idx.vid(c, k + 1, phase_vertices[0]))
        if phase_vertices
        else (0, 0)
    )
    return GadgetScript(script, thresholds, bits, qp, marks, f"kcycle-fully-rep{rep}")


def _kcycle_partial(g, colors, k, beta: int, rep: int, decremental: bool) -> GadgetScript:
    if not (isinstance(beta, int) and beta >= 0):
        raise ParamDomain("need integer beta >= 0")
    copies = beta + 1
    idx = _LayerIndex(colors, k, copies)
    phase_vertices = idx.layers[0]
    np_ = len(phase_vertices)
    if np_ == 0:
        script = UpdateScript(n=max(idx.total, 1), directed=False, initial_edges=[], events=[])
        return GadgetScript(script, [], [], (0, 0), [], f"kcycle-partial-rep{rep}")
    z, y, N = _path_layout(np_, copies, idx.total)
    build: list[tuple[int, int]] = []
    for j in range(1, copies + 1):
        build += idx.gadget_edges(g, j)
    for j in range(copies + 1):
        build += _path_edges(z, y, j, np_)
    phase_edges_for = {
        i: [
            (y(j - 1, i), idx.vid(j, 1, phase_vertices[i - 1]))
            for j in range(1, copies + 1)
        ]
        + [
            (z(j, i), idx.vid(j, k + 1, phase_vertices[i - 1]))
            for j in range(1, copies + 1)
        ]
        for i in range(1, np_ + 1)
    }
    src, dst = z(0, 1), y(copies, 1)
    events: list = []
    thresholds, bits = [], []
    if not decremental:
        events += [InsertEdge(a, b) for a, b in build]
        initial: list[tuple[int, int]] = []
        for i in range(1, np_ + 1):
            events += [InsertEdge(a, b) for a, b in phase_edges_for[i]]
            events.append(DistQuery(src, dst))
            bit = int(_colorful_cycles_through(g, colors, k, phase_vertices[i - 1]))
            events.append(PhaseMark(i - 1, bit))
            thresholds.append(_inc_threshold(np_, beta, i, cross=k + 3))
            bits.append(bit)
        label = f"kcycle-incremental-rep{rep}"
    else:
        # exact reverse of the incremental event order: the phase query for
        # slot s runs while slots 1..s are still wired, then slot s goes away
        initial = build + [e for i in range(1, np_ + 1) for e in phase_edges_for[i]]
        for ph in range(1, np_ + 1):
            slot = np_ - ph + 1
            events.append(DistQuery(src, dst))
            bit = int(
                _colorful_cycles_through(g, colors, k, phase_vertices[slot - 1])
            )
            events.append(PhaseMark(ph - 1, bit))
            thresholds.append(_inc_threshold(np_, beta, slot, cross=k + 3))
            bits.append(bit)
            events += [DeleteEdge(a, b) for a, b in phase_edges_for[slot]]
        label = f"kcycle-decremental-rep{rep}"
    script = UpdateScript(n=N, directed=False, initial_edges=initial, events=events)
    return GadgetScript(script, thresholds, bits, (src, dst), [], label)


# ---- providers and the replay harness --------------------------------------


class BfsProvider:
    """The exact oracle: BFS on the replayed graph itself."""

    def __init__(self, g: DynamicGraph) -> None:
        self.g = g

    def apply(self, ev) -> None:
        apply_update(self.g, ev)

    def dist(self, u: int, v: int) -> float:
        return bfs_dist(self.g, u)[v]

    def path(self, u: int, v: int):
        return bfs_path(self.g, u, v)


@dataclass
class PhaseResult:
    phase: int
    estimate: float
    threshold: int
    bit: int
    expected: int


@dataclass
class HarnessReport:
    phases: list[PhaseResult]
    mismatches: list[PhaseResult]
    elapsed: float

    @property
    def bits(self) -> list[int]:
        return [ph.bit for ph in self.phases]


def harness_run(gs: GadgetScript, make_provider) -> HarnessReport:
    """Replay gs against make_provider(initial_graph); mismatches are data."""
    t0 = time.perf_counter()
    shadow = gs.script.initial_graph()
    baseline = shadow.edge_hash()
    provider = make_provider(gs.script.initial_graph())
    phases: list[PhaseResult] = []
    mismatches: list[PhaseResult] = []
    last_est = math.inf
    marks = set(gs.restore_marks)
    for idx, ev, ans, _ in replay(provider, gs.script.events):
        if isinstance(ev, (InsertEdge, DeleteEdge)):
            apply_update(shadow, ev)
        elif isinstance(ev, DistQuery):
            last_est = ans
        elif isinstance(ev, PhaseMark):
            phase_idx = len(phases)
            bit = int(last_est < gs.phase_thresholds[phase_idx])
            res = PhaseResult(
                phase_idx, last_est, gs.phase_thresholds[phase_idx], bit,
                gs.expected_bits[phase_idx],
            )
            phases.append(res)
            if bit != res.expected:
                mismatches.append(res)
        if idx + 1 in marks and shadow.edge_hash() != baseline:
            raise ValueError(f"restore mark after event {idx}: the graph was not restored")
    return HarnessReport(phases, mismatches, time.perf_counter() - t0)
