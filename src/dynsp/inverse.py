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

Construction.  encode sets every edge entry of A to u r_ij, so A = u R
for a scalar n x n matrix R, and M^-1 = sum_k u^k R^k: the degree-k
coefficient of T is R^k, D chained scalar products.  The state starts
with N = 0 and no update made.  Nothing divides by an integer, so any
D >= 1 is legal, D >= p included.  Only min-degrees of entries are
read downstream, so det M is not kept.

A registered SubmatrixView keeps M^-1 on H x H by adding each update's
correction, read against the inverse before the update.
"""
from __future__ import annotations

import math

import numpy as np

from ._kernels import add_mod, mat_powers, mul_mod, poly_mat_mul, sub_mod
from .polymat import EncodedAdjacency
from .ring import poly_inv

DEFAULT_KAPPA = 0.529


def _take(arr: np.ndarray, rows, cols) -> np.ndarray:
    """arr[rows][:, cols] for index lists, where None selects everything."""
    if rows is None:
        return arr if cols is None else arr[:, cols]
    return arr[rows] if cols is None else arr[np.ix_(rows, cols)]


class SubmatrixView:
    """Explicitly maintained M^-1 restricted to H x H (low-rank updates)."""

    __slots__ = ("host", "H", "cached")

    def __init__(self, host: "InverseState", H) -> None:
        self.host = host
        self.H = sorted(set(H))
        self.cached = host.query_rows(self.H)[:, self.H, :] if self.H else (
            np.zeros((0, 0, host.D + 1), dtype=np.uint64)
        )

    def _apply(self, cols_h: np.ndarray, bprime_h: np.ndarray) -> None:
        """cached += M^-1[H, U] B'[:, H], with M^-1 read before the update."""
        if not self.H:
            return
        corr = poly_mat_mul(cols_h, bprime_h, self.host.p)
        self.cached = add_mod(self.cached, corr, self.host.p)


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
        self.T = mat_powers(A.R, self.D, self.p)
        self.N = np.zeros_like(self.T)
        self.nrows: list[int] = []
        self.updates_since_reset = 0
        self._views: list[SubmatrixView] = []
        self._counts = dict.fromkeys(
            ("updates", "rank2_updates", "entries", "resets", "nrows_max"), 0
        )

    # ---- registration ------------------------------------------------------

    def register_submatrix(self, H) -> SubmatrixView:
        view = SubmatrixView(self, H)
        self._views.append(view)
        return view

    # ---- queries -----------------------------------------------------------

    def _block(self, rows, cols) -> np.ndarray:
        """M^-1[rows, cols] = T[rows, cols] + T[rows, nrows] N[nrows, cols].

        rows and cols are index lists, or None for all of them.
        """
        out = _take(self.T, rows, cols)
        if not self.nrows:
            return out.copy()
        extra = poly_mat_mul(
            _take(self.T, rows, self.nrows), _take(self.N, self.nrows, cols), self.p
        )
        return add_mod(out, extra, self.p)

    def query_rows(self, rows) -> np.ndarray:
        """M^-1 restricted to the given rows, as a (len(rows), n, D+1) array."""
        return self._block(list(rows), None)

    def query_col(self, j: int, rows=None) -> np.ndarray:
        """Column j of M^-1, optionally restricted to the given rows."""
        return self._block(None if rows is None else list(rows), [j])[:, 0]

    def query_full(self) -> np.ndarray:
        """The entire maintained inverse T(I+N), densely."""
        return self._block(None, None)

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
        B[:, :, 1:] = mul_mod(neg_r, self._block(rows, None)[:, :, :-1], p)
        C = B[:, cols]
        C[range(k), range(k), 0] = 1
        bprime = poly_mat_mul(sub_mod(0, poly_inv(C, p), p), B, p)
        # submatrix views see the rank-k correction against the OLD inverse
        for view in self._views:
            if view.H:
                view._apply(self._block(view.H, cols), bprime[:, view.H])
        # N <- N + (N U + U) B'
        affected = sorted(set(self.nrows).union(cols))
        vec = _take(self.N, affected, cols)
        for s, c in enumerate(cols):
            a = affected.index(c)
            vec[a, s, 0] = (int(vec[a, s, 0]) + 1) % p
        self.N[affected] = add_mod(self.N[affected], poly_mat_mul(vec, bprime, p), p)
        self.nrows = affected
        counts = self._counts
        counts["updates"] += 1
        counts["rank2_updates"] += k == 2
        counts["entries"] += k
        counts["nrows_max"] = max(counts["nrows_max"], len(affected))
        self.updates_since_reset += k
        if self.updates_since_reset >= self.reset_period:
            self._reset()

    def _reset(self) -> None:
        self._counts["resets"] += 1
        if self.nrows:
            extra = poly_mat_mul(self.T[:, self.nrows], self.N[self.nrows], self.p)
            self.T = add_mod(self.T, extra, self.p)
            self.N[self.nrows] = 0
        self.nrows = []
        self.updates_since_reset = 0
