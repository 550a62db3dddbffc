"""Distance queries, successor extraction, and short-path reporting.

Distances up to D are read off the min-degree of maintained inverse
entries: the min-degree of M^-1[i, j] is the distance from i to j when
it is at most D, and it never undercuts that distance.  Paths come from
one column: column j of M^-1 holds every vertex's min-degree towards
j, so a path from i steps, hop by hop, to the smallest-index neighbour
whose min-degree is one less.  That is graph.descend, the one successor
rule of the package: bfs_path and the spanner's BFS levels walk BFS
distances by it too, so every structure reports the same path for a
pair.  Only j has min-degree 0, so every such walk uses present edges,
ends at j and has the length pr_dist reports; a randomness failure that
overstates a neighbour's min-degree surfaces as NoWitnessFound, never
as a wrong path.

Reads come in blocks.  One inverse read costs about the same for one
entry as for a few dozen, so dist_block answers a whole rows x cols set
of distances from one read, and column_block reads every column that a
set of walks needs at once; walk then follows one of those columns.
The single-pair reads (pr_dist, path) stay one read each, and every
read goes through _read.

The paper finds each successor through witness sums instead, because
it counts entry reads as the costly resource: for a copy with column
mask S, sum_{s in S, (i,s) edge} rho_is * M^-1[s, j] has min-degree d-1
exactly when S contains a shortest-path successor of i towards j (rho_is
are fixed random field constants, so accidental cancellation has
probability ~1/p).  With numpy a whole column costs about as much as a
handful of entries, so the walk is cheaper.  The witness sums remain as
copy_values: every copy is defined by (current edge set, static column
mask, rho table), so all copy values for one (i, j) reduce to a single
masked matrix product over the witness vector, entry (i, j) of E_c M^-1
for the copy's witness matrix E_c, and the tests check them against
that product.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._kernels import mat_mul_mod, min_degree_arr, mul_mod, rand_unit
from .graph import DeleteEdge, DynamicGraph, IllegalUpdate, InsertEdge, descend
from .inverse import DEFAULT_KAPPA, InverseState
from .polymat import encode
from .ring import FieldParams


class _Beyond:
    """Sentinel for distances exceeding the degree bound D."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Beyond"


BEYOND = _Beyond()


class NoWitnessFound(RuntimeError):
    """No neighbour is one min-degree closer; a low-probability randomness failure.

    Recovery path: rebuild the reporter with a fresh seed (fixed
    randomness means an identical retry would fail identically).
    """

    def __init__(self, i: int, j: int, seed: int) -> None:
        super().__init__(f"no successor found for ({i}, {j}); seed {seed}")
        self.pair = (i, j)
        self.seed = seed


class PathReporter:
    def __init__(
        self,
        g: DynamicGraph,
        D: int,
        kappa: float = DEFAULT_KAPPA,
        seed: int = 0,
        params: FieldParams | None = None,
    ) -> None:
        self.g = g
        self.D = D
        self.seed = seed
        self.params = params or FieldParams(rng_seed=seed)
        self.host = InverseState(encode(g, self.params, D), kappa)
        self._counts = dict.fromkeys(
            ("block_reads", "entries_read", "column_reads", "successor_steps", "no_witness"),
            0,
        )
        n = g.n
        self.L = max(1, math.ceil(math.log2(n))) if n > 1 else 1

    # ---- witness copies (built on first use) -------------------------------

    @cached_property
    def _rho(self) -> np.ndarray:
        n, p = self.g.n, self.params.p
        rho = np.empty((n, n), dtype=np.uint64)
        for i in range(n):
            for j in range(n):
                rho[i, j] = rand_unit(p, self.params.rng_seed, 0x57, i * n + j)
        return rho

    @cached_property
    def copy_masks(self) -> np.ndarray:
        """Stack of column masks: global bit copies, then sampled groups."""
        n, L = self.g.n, self.L
        cols = np.arange(n)
        bit_masks = np.stack([(cols >> l) & 1 == 1 for l in range(L)])
        stacks = [bit_masks]
        rng = np.random.default_rng(self.params.rng_seed ^ 0xA5A5A5A5)
        for w in range(L):
            size = min(1 << w, n)
            for _rep in range(3 * L):
                sample = rng.choice(n, size=size, replace=False)
                base = np.zeros(n, dtype=bool)
                base[sample] = True
                stacks.append(bit_masks & base)
        return np.concatenate(stacks, axis=0)

    # ---- updates -----------------------------------------------------------

    def pr_insert(self, u: int, v: int) -> None:
        self.g.insert_edge(u, v)
        self._update(u, v, True)

    def pr_delete(self, u: int, v: int) -> None:
        self.g.delete_edge(u, v)
        self._update(u, v, False)

    def _update(self, u: int, v: int, present: bool) -> None:
        """One inverse update: rank-1 for an arc, rank-2 for an undirected edge."""
        delta = self.host.A.entry_delta
        back = None if self.g.directed else delta(v, u, present)
        self.host.dinv_update(u, v, delta(u, v, present), back)

    def apply(self, ev) -> None:
        if isinstance(ev, InsertEdge):
            self.pr_insert(ev.u, ev.v)
        elif isinstance(ev, DeleteEdge):
            self.pr_delete(ev.u, ev.v)
        else:
            raise IllegalUpdate(f"not an edge event: {ev!r}")

    # ---- queries -----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Deterministic counters of the reads made since construction.

        block_reads counts inverse reads: one per non-empty dist_block
        (pr_dist of two distinct vertices is a 1 x 1 one) and non-empty
        column_block call (path makes a one-column one).
        entries_read counts the entries they returned, column_reads the
        columns read for walks, successor_steps the hops walked and
        no_witness the walks that raised NoWitnessFound.
        """
        return dict(self._counts)

    def _read(self, rows, cols) -> np.ndarray:
        """Min-degrees of M^-1[rows, cols] from one inverse read."""
        md = min_degree_arr(self.host.query_rows(rows, cols))
        self._counts["block_reads"] += 1
        self._counts["entries_read"] += md.size
        return md

    def dist_block(self, rows, cols) -> np.ndarray:
        """Min-degrees of M^-1[rows, cols] as a (len(rows), len(cols)) array.

        D+1 encodes beyond D, and an entry whose row vertex is its column
        vertex reads 0.  An empty block makes no read.
        """
        rows, cols = list(rows), list(cols)
        if not rows or not cols:
            return np.zeros((len(rows), len(cols)), dtype=np.int64)
        md = self._read(rows, cols)
        if not set(rows).isdisjoint(cols):
            md[np.equal.outer(rows, cols)] = 0
        return md

    def pr_dist(self, i: int, j: int):
        if i == j:
            return 0
        d = int(self.dist_block([i], [j])[0, 0])
        return d if d <= self.D else BEYOND

    def dist(self, i: int, j: int) -> float:
        """The distance from i to j; inf beyond D."""
        d = self.pr_dist(i, j)
        return math.inf if d is BEYOND else float(d)

    def copy_values(self, i: int, j: int) -> np.ndarray:
        """(num_copies, D+1) witness sums for the pair (i, j), all copies."""
        p = self.params.p
        nbrs = sorted(self.g.adj[i])
        dp1 = self.D + 1
        if not nbrs:
            return np.zeros((self.copy_masks.shape[0], dp1), dtype=np.uint64)
        col = self.host.query_col(j, rows=nbrs)              # (deg, D+1)
        q = mul_mod(self._rho[i, nbrs][:, None], col, p)      # witness vector
        sel = self.copy_masks[:, nbrs].astype(np.uint64)
        return mat_mul_mod(sel, q, p)

    def column_block(self, targets) -> dict[int, list[int]]:
        """{j: min-degrees of column j} for every target, from one read."""
        targets = list(targets)
        if not targets:
            return {}
        md = self._read(None, targets)
        self._counts["column_reads"] += len(targets)
        return dict(zip(targets, md.T.tolist()))

    def pr_path(self, i: int, j: int) -> list[int]:
        path = self.path(i, j)
        if path is None:
            raise ValueError(f"pr_path needs dist <= D for ({i}, {j})")
        return path

    def path(self, i: int, j: int):
        """A shortest i-j path; None beyond D."""
        return self.walk(self.column_block([j])[j], i, j)

    def walk(self, col: list[int], i: int, j: int):
        """The i-j path down col, the min-degrees of column j; None beyond D.

        Raises NoWitnessFound at the first vertex with no neighbour one
        min-degree closer.
        """
        if col[i] > self.D:
            return None
        path = descend(self.g, i, j, col.__getitem__)
        self._counts["successor_steps"] += len(path) - 1
        if path[-1] != j:
            self._counts["no_witness"] += 1
            raise NoWitnessFound(path[-1], j, self.params.rng_seed)
        return path
