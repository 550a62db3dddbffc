"""Distance queries, successor extraction, and short-path reporting.

Distances up to D are read off the min-degree of maintained inverse
entries: the min-degree of M^-1[i, j] is the distance from i to j when
it is at most D, and it never undercuts that distance.  Paths come from
one column: column j of M^-1 holds every vertex's min-degree towards
j, so a path from i steps, hop by hop, to the smallest-index neighbour
whose min-degree is one less.  Only j has min-degree 0, so every such
walk uses present edges, ends at j and has the length pr_dist reports;
a randomness failure that overstates a neighbour's min-degree surfaces
as NoWitnessFound, never as a wrong path.

The paper finds each successor through witness sums instead, because
it counts entry reads as the costly resource: for a copy with column
mask S, sum_{s in S, (i,s) edge} rho_is * M^-1[s, j] has min-degree d-1
exactly when S contains a shortest-path successor of i towards j (rho_is
are fixed random field constants, so accidental cancellation has
probability ~1/p).  With numpy a whole column costs about as much as a
handful of entries, so the walk is cheaper.  The witness sums remain as
copy_values and bitcopy_E: every copy is defined by (current edge set,
static column mask, rho table), so all copy values for one (i, j) reduce
to a single masked matrix product over the witness vector, the same
E*M^-1 = V(I+N) invariant the explicit product module maintains, and the
tests cross-check the two.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._kernels import mat_mul_mod, min_degree_arr, mul_mod, rand_unit
from .graph import DynamicGraph
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
        reps: int | None = None,
        params: FieldParams | None = None,
    ) -> None:
        self.g = g
        self.D = D
        self.seed = seed
        self.params = params or FieldParams(rng_seed=seed)
        self.host = InverseState(encode(g, self.params, D), kappa)
        n = g.n
        self.L = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        self.reps = reps if reps is not None else 3 * self.L

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
            for _rep in range(self.reps):
                sample = rng.choice(n, size=size, replace=False)
                base = np.zeros(n, dtype=bool)
                base[sample] = True
                stacks.append(bit_masks & base)
        return np.concatenate(stacks, axis=0)

    def bitcopy_E(self, copy_index: int) -> np.ndarray:
        """The explicit E matrix of one copy (test hook, small n only)."""
        n, dp1 = self.g.n, self.D + 1
        E = np.zeros((n, n, dp1), dtype=np.uint64)
        mask = self.copy_masks[copy_index]
        for i in range(n):
            for s in self.g.adj[i]:
                if mask[s]:
                    E[i, s, 0] = self._rho[i, s]
        return E

    # ---- updates -----------------------------------------------------------

    def pr_insert(self, u: int, v: int) -> None:
        self.g.insert_edge(u, v)
        self.host.update_edge(u, v, True)
        if not self.g.directed:
            self.host.update_edge(v, u, True)

    def pr_delete(self, u: int, v: int) -> None:
        self.g.delete_edge(u, v)
        self.host.update_edge(u, v, False)
        if not self.g.directed:
            self.host.update_edge(v, u, False)

    def apply(self, ev) -> None:
        from .graph import DeleteEdge, InsertEdge

        if isinstance(ev, InsertEdge):
            self.pr_insert(ev.u, ev.v)
        elif isinstance(ev, DeleteEdge):
            self.pr_delete(ev.u, ev.v)
        else:
            raise TypeError(f"not an edge event: {ev!r}")

    # ---- queries -----------------------------------------------------------

    def pr_dist(self, i: int, j: int):
        if i == j:
            return 0
        d = int(min_degree_arr(self.host._query_raw(i, j)))
        return d if d <= self.D else BEYOND

    def dist_matrix(self) -> np.ndarray:
        """min-degrees of the full inverse; D+1 encodes beyond-D (test/apsp hook)."""
        md = min_degree_arr(self.host.query_full())
        np.fill_diagonal(md, 0)
        return md

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

    def _column(self, j: int) -> list[int]:
        """Min-degrees of column j of M^-1: every vertex's towards j."""
        return min_degree_arr(self.host.query_col(j)).tolist()

    def _step(self, col: list[int], i: int, j: int) -> int:
        """Smallest-index neighbour of i whose min-degree is one less."""
        want = col[i] - 1
        for s in sorted(self.g.adj[i]):
            if col[s] == want:
                return s
        raise NoWitnessFound(i, j, self.params.rng_seed)

    def pr_successor(self, i: int, j: int) -> int:
        col = self._column(j)
        if not 1 <= col[i] <= self.D:
            raise ValueError(f"pr_successor needs 1 <= dist <= D for ({i}, {j})")
        return self._step(col, i, j)

    def pr_path(self, i: int, j: int) -> list[int]:
        col = self._column(j)
        if col[i] > self.D:
            raise ValueError(f"pr_path needs dist <= D for ({i}, {j})")
        path = [i]
        while path[-1] != j:
            path.append(self._step(col, path[-1], j))
        return path
