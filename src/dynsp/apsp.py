"""Fully dynamic all-pairs shortest paths.

Exact flavor: short distances (<= D) come straight from the inverse's
min-degrees; long distances are stitched through a random hitting set
H that whp intersects every shortest path of length D/2.  After every
update one dist_block read over H x H gives the capped distances within
H, a small weighted graph, and Floyd-Warshall closes a copy of it, for
distances only:

    dist(i,j) = min(D^D_ij, min_{p in H} D^D_ip + c_j(p)),
    c_j(p) = min_{q in H} fw(p,q) + D^D_qj

One routine (_via_h) computes c_j, and every exact answer is stitched
from it: a distance, a path, and each column of the all-pairs matrix.
fw(p,q) is the closed distance from p to q, which on a directed graph
differs from fw(q,p).

The closure's input, the capped H x H distances, is kept as well; it
equals a fresh read until the next update, so a query reads only what
it does not hold.  A distance reads nothing when both ends are in H,
and otherwise one row block for an i outside H and one full column for
a j outside H (that column also holds the short distance).  A path
makes the same reads, plus one column block over the segments' far
ends whose column it does not yet have: at most three reads, each
walked hop by hop.  Its waypoints within H follow the package's one
successor rule (graph.descend) on the kept distances: from x towards
q, the next waypoint is the smallest-index y != x with
w(x, y) + fw(y, q) == fw(x, q).

Approximate flavor: distances <= D are answered exactly by the
reporter; anything longer falls back to BFS on a companion spanner,
whose multiplicative-plus-additive certificate bounds the error.  A
block of distances costs one reporter read, plus one BFS on the spanner
per row that has an entry beyond D, and a set of paths costs one
column read over their far ends, plus one BFS on the spanner per path
beyond D.
"""
from __future__ import annotations

import math

import numpy as np

from ._kernels import derive_seed
from .graph import DynamicGraph, bfs_dist, bfs_path
from .inverse import DEFAULT_KAPPA
from .reporter import BEYOND, PathReporter
from .spanner_comb import RebuildSpanner

INF = math.inf


class StitchFailure(RuntimeError):
    """A stitched segment exceeded D; low-probability randomness failure."""


def _capped(md, D: int):
    """Min-degrees as float distances: INF beyond D."""
    return np.where(md <= D, md.astype(float), INF)


class HittingSetApsp:
    def __init__(
        self,
        g: DynamicGraph,
        D: int,
        kappa: float = DEFAULT_KAPPA,
        seed: int = 0,
        c: float = 2.0,
    ) -> None:
        self.pr = PathReporter(g, D, kappa, seed)
        self.g = g
        self.D = D
        n = g.n
        target = math.ceil(c * n * math.log(n) / (D / 2)) if n > 1 else 1
        if target >= n:
            self.H = list(range(n))
        else:
            rng = np.random.default_rng(derive_seed(seed, 0x11))
            self.H = sorted(int(v) for v in rng.choice(n, size=target, replace=False))
        self._h_index = {v: a for a, v in enumerate(self.H)}
        self._w_hh: np.ndarray | None = None
        self.fw_dist: np.ndarray | None = None
        self._counts = dict.fromkeys(("stitched", "closure_answers", "stitch_failures"), 0)
        self._recompute_fw()

    # ---- maintenance -------------------------------------------------------

    def exact_update(self, ev) -> None:
        self.pr.apply(ev)
        self._recompute_fw()

    def apply(self, ev) -> None:
        self.exact_update(ev)

    def _recompute_fw(self) -> None:
        """Read the H x H distances afresh and close a copy of them."""
        w = _capped(self.pr.dist_block(self.H, self.H), self.D)
        w.flags.writeable = False
        self._w_hh = w  # the closure's input: distances within H, kept for queries
        fw = w.copy()
        for k in range(len(self.H)):
            np.minimum(fw, fw[:, k, None] + fw[None, k, :], out=fw)
        self.fw_dist = fw

    def stats(self) -> dict[str, int]:
        """Deterministic counters of the work done since construction.

        The path reporter's read counters, whose block_reads include the
        one H x H read made at set-up and after every update, plus
        stitched for the queries (distances and paths) whose answer came
        through H, closure_answers for the distance queries between two
        distinct vertices of H, answered from the kept closure without a
        read, and stitch_failures for the queries that raised
        StitchFailure.
        """
        return {**self.pr.stats(), **self._counts}

    # ---- queries -----------------------------------------------------------

    def _via_h(self, to_j: np.ndarray) -> np.ndarray:
        """Stitched lengths from each vertex of H to one target j.

        to_j[q] is the capped distance from H[q] to j; entry p of the
        result is min over q of fw(H[p], H[q]) + to_j[q]: one h x h
        broadcast and a row minimum.
        """
        return (self.fw_dist + to_j).min(axis=1)

    def _stitch(self, i: int, j: int):
        """(short distance, stitched length through each vertex of H, their
        min, column j, column j over H).

        For i != j.  Row i over H is row a of the kept H x H distances
        when i = H[a], otherwise one dist_block([i], H) read; column j
        over H is column b of them when j = H[b], otherwise one
        column_block([j]) read, whose full column is returned for the
        path walk (None when it was not read).  The short distance comes
        from the kept block, the column or the row, whichever holds it.
        The kept block equals a fresh read because it is read after
        every update.  So a distance costs at most two reads, and none
        when both ends are in H.
        """
        D, H, w = self.D, self.H, self._w_hh
        a, b = self._h_index.get(i), self._h_index.get(j)
        from_i = w[a] if a is not None else _capped(self.pr.dist_block([i], H)[0], D)
        col = None
        if b is None:
            col = self.pr.column_block([j])[j]
            to_j = _capped(np.asarray(col)[H], D)
            short = float(col[i]) if col[i] <= D else INF
        else:
            to_j = w[:, b]
            short = float(from_i[b])
        through = from_i + self._via_h(to_j)
        total = min(short, float(through.min()))
        self._counts["stitched"] += total < short
        return short, through, total, col, to_j

    def exact_dist(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i in self._h_index and j in self._h_index:
            self._counts["closure_answers"] += 1
        return self._stitch(i, j)[2]

    def dist(self, i: int, j: int) -> float:
        return self.exact_dist(i, j)

    def exact_dist_matrix(self) -> np.ndarray:
        """All-pairs distances at once (the acceptance-audit fast path).

        One full read, then column j takes, for every i, the smaller of
        the short distance and the best stitch through H, with the
        stitched lengths from H to j from the single-pair routine.
        """
        everyone = range(self.g.n)
        short = _capped(self.pr.dist_block(everyone, everyone), self.D)
        to_h, from_h = short[:, self.H], short[self.H]
        out = short.copy()
        for j in everyone:
            np.minimum(out[:, j], (to_h + self._via_h(from_h[:, j])).min(axis=1), out=out[:, j])
        return out

    def exact_path(self, i: int, j: int) -> list[int]:
        path = self.path(i, j)
        if path is None:
            raise ValueError(f"({i}, {j}) disconnected")
        return path

    def path(self, i: int, j: int):
        """A shortest i-j path; None when j is unreachable.

        The stitch's reads, plus one column_block over the far ends of
        the segments whose column it did not read: at most three reads.
        A short path walks column j; a stitched one takes p, the first
        index whose stitch attains the minimum, and q, the first index
        that attains H[p]'s stitched length to j, picks its waypoints
        from H[p] to H[q] by the successor rule over the kept distances
        and walks each segment down its far end's column.
        """
        if i == j:
            return [i]
        short, through, total, col, to_j = self._stitch(i, j)
        if total == INF:
            return None
        pr = self.pr
        if short == total:
            return pr.walk(col if col is not None else pr.column_block([j])[j], i, j)
        p = int(np.argmin(through))
        q = int(np.argmin(self.fw_dist[p] + to_j))
        w, to_q = self._w_hh, self.fw_dist[:, q]
        waypoints = [p]
        while waypoints[-1] != q:  # w(x, y) >= 1 for y != x: to_q falls at every step
            x = waypoints[-1]
            on_chain = w[x] + to_q == to_q[x]
            on_chain[x] = False
            waypoints.append(int(np.flatnonzero(on_chain)[0]))
        stops = [i] + [self.H[x] for x in waypoints] + [j]
        segments = [(a, b) for a, b in zip(stops, stops[1:]) if a != b]
        cols = {} if col is None else {j: col}
        cols.update(pr.column_block(sorted({b for _a, b in segments} - cols.keys())))
        path = [i]
        for a, b in segments:
            if cols[b][a] > self.D:
                self._counts["stitch_failures"] += 1
                raise StitchFailure(f"segment ({a}, {b}) exceeds D={self.D}")
            path.extend(pr.walk(cols[b], a, b)[1:])
        return path


class ApproxApsp:
    """(1+eps)-approximate distances and paths with a spanner fallback.

    D defaults to min(n, ceil(2*beta/eps)).  Past ceil(2*beta/eps) the
    spanner's (1+eps/2, beta) certificate would fold into a pure (1+eps)
    factor, but the combinatorial spanner's beta runs from thousands to
    millions, so the default is n in practice (ApproxApsp(g, 0.5).D ==
    g.n): every answer then comes from the path reporter, and no query
    reads the spanner.  A smaller D override brings the spanner in past
    D, with the explicit additive beta in the certificate; the tests
    audit against the configured spanner's actual beta either way.
    """

    def __init__(
        self,
        g: DynamicGraph,
        eps,
        seed: int = 0,
        spanner: RebuildSpanner | None = None,
        D: int | None = None,
        kappa: float = DEFAULT_KAPPA,
        spanner_k: int | None = None,
    ) -> None:
        if not 0 < float(eps) <= 2:  # its default spanner runs at eps/2
            raise ValueError("ApproxApsp needs 0 < eps <= 2")
        self.g = g
        self.eps = eps
        if spanner is None:
            spanner = RebuildSpanner(g, eps / 2, derive_seed(seed, 0x5A), k=spanner_k)
        elif spanner.g is not g:  # it would never see an update
            raise ValueError("ApproxApsp needs a spanner built over its own graph")
        self.spanner = spanner
        if D is None:
            D = min(g.n, math.ceil(2 * spanner.beta_certificate / eps))
        self.D = D
        self.pr = PathReporter(g, D, kappa, seed)
        self._h_graph: DynamicGraph | None = None
        self._spanner_rows = 0

    def apply(self, ev) -> None:
        self.pr.apply(ev)  # applies ev to g, which the spanner shares
        self.spanner.note()
        self._h_graph = None

    def _spanner_graph(self) -> DynamicGraph:
        """The current spanner as a graph; counts the BFS the caller runs."""
        if self._h_graph is None:
            self._h_graph = self.spanner.subgraph()
        self._spanner_rows += 1
        return self._h_graph

    def stats(self) -> dict[str, int]:
        """Deterministic counters of the work done since construction.

        The path reporter's read counters, spanner_rows for the BFS runs
        on the spanner that answer entries beyond D, and the spanner's
        own counters under a spanner_ prefix.
        """
        return {
            **self.pr.stats(),
            "spanner_rows": self._spanner_rows,
            **{f"spanner_{key}": v for key, v in self.spanner.stats().items()},
        }

    def approx_dist(self, i: int, j: int) -> float:
        d = self.pr.pr_dist(i, j)
        if d is not BEYOND:
            return float(d)
        return bfs_dist(self._spanner_graph(), i)[j]

    def dist_block(self, rows, cols) -> np.ndarray:
        """approx_dist(i, j) for every i in rows and j in cols, as floats.

        The spanner graph is built only when some entry is beyond D.
        """
        rows, cols = list(rows), list(cols)
        md = self.pr.dist_block(rows, cols)
        out = md.astype(float)
        beyond = md > self.D
        for x in np.flatnonzero(beyond.any(axis=1)):
            far = bfs_dist(self._spanner_graph(), rows[x])
            for y in np.flatnonzero(beyond[x]):
                out[x, y] = far[cols[y]]
        return out

    def approx_path(self, i: int, j: int) -> list[int]:
        path = self.path(i, j)
        if path is None:
            raise ValueError(f"({i}, {j}) disconnected in the spanner")
        return path

    def dist(self, i: int, j: int) -> float:
        return self.approx_dist(i, j)

    def path(self, i: int, j: int):
        """An i-j path within the distance guarantee; None when unreachable."""
        return self.paths([(i, j)])[0]

    def paths(self, pairs) -> list:
        """path(i, j) for every pair (i, j), from one column read.

        Each pair walks the column of its far end; a pair beyond D takes
        the BFS path on the spanner, which is built only then.
        """
        pairs = list(pairs)
        cols = self.pr.column_block(sorted({j for _i, j in pairs}))
        out = []
        for i, j in pairs:
            path = self.pr.walk(cols[j], i, j)
            out.append(path if path is not None else bfs_path(self._spanner_graph(), i, j))
        return out
