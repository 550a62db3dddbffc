"""Fully dynamic all-pairs shortest paths.

Exact flavor: short distances (<= D) come straight from the inverse's
min-degrees; long distances are stitched through a random hitting set
H that whp intersects every shortest path of length D/2.  The H x H
submatrix of the inverse is maintained explicitly, turned into a small
weighted graph, and closed with Floyd-Warshall (with a successor
matrix for path reconstruction) after every update:

    dist(i,j) = min(D^D_ij, min_{p,q in H} D^D_ip + fw(p,q) + D^D_qj)

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

from ._kernels import derive_seed, min_degree_arr
from .graph import DynamicGraph, bfs_dist, bfs_path
from .inverse import DEFAULT_KAPPA
from .reporter import BEYOND, PathReporter
from .spanner_comb import RebuildSpanner

INF = math.inf


class StitchFailure(RuntimeError):
    """A stitched segment exceeded D; low-probability randomness failure."""


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
        self.sub = self.pr.host.register_submatrix(self.H)
        self.fw_dist: np.ndarray | None = None
        self.fw_next: np.ndarray | None = None
        self._recompute_fw()

    # ---- maintenance -------------------------------------------------------

    def exact_update(self, ev) -> None:
        self.pr.apply(ev)
        self._recompute_fw()

    def apply(self, ev) -> None:
        self.exact_update(ev)

    def _recompute_fw(self) -> None:
        h = len(self.H)
        md = min_degree_arr(self.sub.cached) if h else np.zeros((0, 0))
        w = np.where(md <= self.D, md.astype(float), INF)
        if h:
            np.fill_diagonal(w, 0.0)
        nxt = np.where(np.isfinite(w), np.arange(h)[None, :], -1)
        if h:
            np.fill_diagonal(nxt, np.arange(h))
        for k in range(h):
            alt = w[:, k, None] + w[None, k, :]
            better = alt < w
            if better.any():
                w = np.where(better, alt, w)
                nxt = np.where(better, nxt[:, k, None], nxt)
        self.fw_dist, self.fw_next = w, nxt

    # ---- queries -----------------------------------------------------------

    def _stitch_terms(self, i: int, j: int):
        """min-degree rows/columns towards H, as float vectors with INF."""
        row = min_degree_arr(self.pr.host.query_rows([i])[0][self.H])
        col = min_degree_arr(self.pr.host.query_col(j, rows=self.H))
        row = np.where(row <= self.D, row.astype(float), INF)
        col = np.where(col <= self.D, col.astype(float), INF)
        for a, v in enumerate(self.H):  # self-distances are zero by definition
            if v == i:
                row[a] = 0.0
            if v == j:
                col[a] = 0.0
        return row, col

    def _stitch(self, i: int, j: int):
        """(short distance, stitched lengths over H x H or None, their min)."""
        short = self.pr.dist(i, j)
        if not self.H:
            return short, None, short
        row, col = self._stitch_terms(i, j)
        cand = row[:, None] + self.fw_dist + col[None, :]
        return short, cand, min(short, float(cand.min()))

    def exact_dist(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return self._stitch(i, j)[2]

    def dist(self, i: int, j: int) -> float:
        return self.exact_dist(i, j)

    def exact_dist_matrix(self) -> np.ndarray:
        """All-pairs distances at once (the acceptance-audit fast path)."""
        md = self.pr.dist_matrix()
        short = np.where(md <= self.D, md.astype(float), INF)
        np.fill_diagonal(short, 0.0)
        if not self.H:
            return short
        to_h = short[:, self.H]            # D^D_ip
        from_h = short[self.H, :]          # D^D_qj
        mid = np.empty_like(from_h)
        h = len(self.H)
        for q in range(h):                 # min-plus fw x from_h
            mid[q] = (self.fw_dist[:, q][:, None] + from_h).min(axis=0)
        out = short.copy()
        for p in range(h):                 # min-plus to_h x mid
            np.minimum(out, to_h[:, p][:, None] + mid[p][None, :], out=out)
        return out

    def exact_path(self, i: int, j: int) -> list[int]:
        path = self.path(i, j)
        if path is None:
            raise ValueError(f"({i}, {j}) disconnected")
        return path

    def path(self, i: int, j: int):
        """A shortest i-j path; None when j is unreachable."""
        if i == j:
            return [i]
        short, cand, total = self._stitch(i, j)
        if total == INF:
            return None
        if short == total:
            return self.pr.pr_path(i, j)
        hits = np.argwhere(cand == total)
        p, q = min((int(a), int(b)) for a, b in hits)  # deterministic tie-break
        waypoints = [p]
        while waypoints[-1] != q:
            nxt = int(self.fw_next[waypoints[-1], q])
            if nxt < 0:
                raise StitchFailure(f"broken successor chain {p}->{q}")
            waypoints.append(nxt)
        stops = [i] + [self.H[w] for w in waypoints] + [j]
        path = [i]
        for a, b in zip(stops, stops[1:]):
            if a == b:
                continue
            if self.pr.pr_dist(a, b) is BEYOND:
                raise StitchFailure(f"segment ({a}, {b}) exceeds D={self.D}")
            path.extend(self.pr.pr_path(a, b)[1:])
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
        self.g = g
        self.eps = eps
        if spanner is None:
            spanner = RebuildSpanner(g.copy(), eps / 2, derive_seed(seed, 0x5A), k=spanner_k)
        self.spanner = spanner
        if D is None:
            D = min(g.n, math.ceil(2 * spanner.beta_certificate / eps))
        self.D = D
        self.pr = PathReporter(g, D, kappa, seed)
        self._h_graph: DynamicGraph | None = None
        self._spanner_rows = 0

    def apply(self, ev) -> None:
        self.pr.apply(ev)
        self.spanner.apply(ev)
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
