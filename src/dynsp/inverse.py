"""Dynamic truncated-polynomial matrix inverse with lazy T/N factorization.

Maintains M^-1 = T(I + N) for M = I - A, where A is the symbolic
adjacency.  Every edge entry of A is r u for a nonzero field scalar r,
and one update adds r u to one entry A[i, j], or r u and back u to the
pair A[i, j] and A[j, i] of an undirected edge, as one rank-k Woodbury
step with k = 1 or 2.  With U the identity's columns [i, j] and V^T M^-1
the rows [j, i] of M^-1:

    B = -u diag(r, back) V^T M^-1,  C = I + B U,  B' = -C^-1 B,
    M'^-1 = M^-1 (I + U B').

So B is those rows shifted up one degree and scaled, and the constant
term of C is I: C is a unit, and ring.poly_inv inverts it as one k x k
power series on exact integers, the same code for k = 1 and k = 2.
Between resets only the row-sparse matrix N changes, N <- N + (N U +
U) B'.  Once reset_period = max(1, round(n^kappa)) oriented entries
have changed since the last reset, T absorbs N (T <- T(I+N), N <- 0).

Storage.  T is one dense n x n x (D+1) array, kept for the life of the
state.  N is kept as its nonzero rows only: row a of the stack N holds
vertex nrows[a], in the order the rows appeared.  Each changed entry
adds at most one row, and an update starts with fewer than
reset_period entries changed, so N never has more than reset_period + 1
rows; their buffer is allocated once, with that many rows.  Before
allocating, the state checks that T and that buffer fit in the
machine's physical memory, and raises ValueError naming the bytes when
they do not.

Construction.  encode sets every edge entry of A to u r_ij, so A = u R
for a scalar n x n matrix R, and M^-1 = sum_k u^k R^k: the degree-k
coefficient of T is R^k, D chained scalar products, each folded
straight into its slot of T.  The state starts with N = 0 and no
update made.  Nothing divides by an integer, so any D >= 1 is legal,
D >= p included.  Only min-degrees of entries are read downstream, so
det M is not kept.

Reads.  query_rows is the one read: M^-1 on any rows x cols block, as
T's block plus T[rows, nrows] N[nrows, cols], the product added into
the gathered block of T in place.  query_col and query_full are that
read on one column and on everything.  No block is kept between
updates; a caller that needs one after every update reads it.

Memory.  The reset adds T[:, nrows] N into T itself, one degree-major
fold block at a time (_kernels.poly_mat_mul_add), and the update adds
(N U + U) B' into N's rows the same way.  Beyond T and N's rows, a
reset needs the gathered columns T[:, nrows], which is nrows/n of T,
and the kernels' scratch: the limb stacks of both operands, four times
their size, and one fold block.  The scratch is kept between calls and
shared by every state in a thread, so after the first reset a reset
allocates only the gathered columns.
"""
from __future__ import annotations

import math
import os

import numpy as np

from ._kernels import mat_powers, mul_mod, poly_mat_mul, poly_mat_mul_add, sub_mod
from .polymat import EncodedAdjacency
from .ring import poly_inv

DEFAULT_KAPPA = 0.529


def _take(arr: np.ndarray, rows, cols) -> np.ndarray:
    """arr[rows][:, cols] for index lists, where None selects everything."""
    if rows is None:
        return arr if cols is None else arr[:, cols]
    return arr[rows] if cols is None else arr[np.ix_(rows, cols)]


def _physical_bytes() -> int | None:
    """The machine's physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


class InverseState:
    def __init__(self, A: EncodedAdjacency, kappa: float = DEFAULT_KAPPA) -> None:
        self.A = A
        self.p = A.params.p
        self.n = A.n
        self.D = A.D
        if self.D < 1:
            raise ValueError(f"need D >= 1, got D = {self.D}")
        try:
            scale = float(self.n) ** kappa
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(f"need n^kappa finite, got kappa = {kappa} at n = {self.n}")
        self.kappa = kappa
        self.reset_period = max(1, round(scale))
        # N has at most reset_period + 1 nonzero rows: an update starts
        # below the period and adds one row per changed entry
        n_cap = min(self.n, self.reset_period + 1)
        need = (self.n + n_cap) * self.n * (self.D + 1) * 8
        have = _physical_bytes()
        if have is not None and need > have:
            raise ValueError(
                f"the inverse at n = {self.n}, D = {self.D} needs {need} bytes "
                f"(T and {n_cap} rows of N), more than the {have} bytes of physical memory"
            )
        self.T = mat_powers(A.R, self.D, self.p)
        self._n_buf = np.empty((n_cap, self.n, self.D + 1), dtype=np.uint64)
        self.nrows: list[int] = []
        self.updates_since_reset = 0
        self._counts = dict.fromkeys(
            ("updates", "rank2_updates", "entries", "resets", "nrows_max"), 0
        )

    @property
    def N(self) -> np.ndarray:
        """N's nonzero rows, row a of the stack being vertex nrows[a]."""
        return self._n_buf[: len(self.nrows)]

    # ---- queries -----------------------------------------------------------

    def query_rows(self, rows, cols=None) -> np.ndarray:
        """M^-1[rows, cols] = T[rows, cols] + T[rows, nrows] N[nrows, cols].

        rows and cols are iterables of indices, or None for all of them;
        the result is a (len(rows), len(cols), D+1) array: the gathered
        block of T, with the product added into it in place.
        """
        rows = None if rows is None else list(rows)
        cols = None if cols is None else list(cols)
        out = _take(self.T, rows, cols)
        if out is self.T:
            out = out.copy()
        if self.nrows:
            a = _take(self.T, rows, self.nrows)
            poly_mat_mul_add(out, a, _take(self.N, None, cols), self.p)
        return out

    def query_col(self, j: int, rows=None) -> np.ndarray:
        """Column j of M^-1, optionally restricted to the given rows."""
        return self.query_rows(rows, [j])[:, 0]

    def query_full(self) -> np.ndarray:
        """The entire maintained inverse T(I+N), densely."""
        return self.query_rows(None)

    def stats(self) -> dict[str, int]:
        """Deterministic counters of the work done since construction.

        updates counts dinv_update calls, rank2_updates the pairs among
        them and entries the oriented entries changed (one or two per
        update, the unit the reset period counts); nrows_max is the
        high-water mark of N's nonzero rows, reached just before a reset.
        """
        return dict(self._counts)

    # ---- updates -----------------------------------------------------------

    def dinv_update(self, i: int, j: int, r: int, back: int | None = None) -> None:
        """Add r u to A[i, j], and back u to A[j, i] when given, in one update."""
        p = self.p
        cols, rows = ([i], [j]) if back is None else ([i, j], [j, i])
        scalars = [r] if back is None else [r, back]
        k = len(cols)
        # B = -u diag(r, back) (rows [j, i] of T(I+N)): each row one degree up, times -r
        neg_r = np.array([-x % p for x in scalars], dtype=np.uint64)[:, None, None]
        B = np.zeros((k, self.n, self.D + 1), dtype=np.uint64)
        B[:, :, 1:] = mul_mod(neg_r, self.query_rows(rows)[:, :, :-1], p)
        C = B[:, cols]
        C[range(k), range(k), 0] = 1
        bprime = poly_mat_mul(sub_mod(0, poly_inv(C, p), p), B, p)
        # N <- N + (N U + U) B', with a zero row of N for each new vertex
        for c in cols:
            if c not in self.nrows:
                self._n_buf[len(self.nrows)] = 0
                self.nrows.append(c)
        vec = self.N[:, cols]
        for s, c in enumerate(cols):
            a = self.nrows.index(c)
            vec[a, s, 0] = (int(vec[a, s, 0]) + 1) % p
        poly_mat_mul_add(self.N, vec, bprime, p)
        counts = self._counts
        counts["updates"] += 1
        counts["rank2_updates"] += k == 2
        counts["entries"] += k
        counts["nrows_max"] = max(counts["nrows_max"], len(self.nrows))
        self.updates_since_reset += k
        if self.updates_since_reset >= self.reset_period:
            self._reset()

    def _reset(self) -> None:
        """T <- T (I + N) = T + T[:, nrows] N, folded into T in place; N <- 0."""
        self._counts["resets"] += 1
        if self.nrows:
            poly_mat_mul_add(self.T, self.T[:, self.nrows], self.N, self.p)
        self.nrows = []
        self.updates_since_reset = 0
