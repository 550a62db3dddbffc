"""Dynamic truncated-polynomial matrix inverse with lazy T/N factorization.

Maintains M^-1 = T(I + N) and det M for M = I - A, where A is the
symbolic adjacency.  One update changes one entry A[i, j], or the pair
A[i, j] and A[j, i] of an undirected edge, as one rank-k Woodbury step
with k = 1 or 2.  With U the identity's columns [i, j] and V^T M^-1 the
rows [j, i] of M^-1, each times its entry's change to M:

    B = V^T M^-1,  C = I + B U,  B' = -C^-1 B,
    M'^-1 = M^-1 (I + U B'),  det M' = det M det C.

C^-1 is adj(C) det(C)^-1, computed on exact integers.  Between resets
only the row-sparse matrix N changes, N <- N + (N U + U) B'.  Once
reset_period = max(1, round(n^kappa)) oriented entries have changed
since the last reset, T absorbs N (T <- T(I+N), N <- 0).

Construction.  encode sets every edge entry of A to u r_ij, so A = u R
for a scalar n x n matrix R, and M^-1 = sum_k u^k R^k: the degree-k
coefficient of T is R^k, D chained scalar products.  The determinant
follows from the traces s_k = tr(R^k) of the same powers, by Newton's
identities: log det(I - uR) = -sum_k s_k u^k / k, so its coefficients
satisfy k c_k = -sum_(i=1..k) s_i c_(k-i) with c_0 = 1.  Dividing by k
needs D < p.  The state starts with N = 0 and no update made.

Sign convention: callers pass the additive change applied to A; the
negation for M = I - A happens here.  Every legal update has zero
constant coefficient (edge entries carry a factor u), which keeps the
constant term of C equal to I, so det C is a unit and the determinant's
constant term stays 1.

Registered product states (witness-product module) and submatrix views
are sequenced by this owner object so the reset order V before T, T
before N-clear is a checked runtime contract.
"""
from __future__ import annotations

import numpy as np

from ._kernels import add_mod, mat_powers, neg_mod, poly_mat_mul
from .polymat import EncodedAdjacency
from .ring import TruncPoly, poly_inv, poly_mul, poly_neg

DEFAULT_KAPPA = 0.529


class NonUnitPivot(RuntimeError):
    """The capacitance's constant term is not I; impossible for legal edge updates."""


def _take(arr: np.ndarray, rows, cols) -> np.ndarray:
    """arr[rows][:, cols] for index lists, where None selects everything."""
    if rows is None:
        return arr if cols is None else arr[:, cols]
    return arr[rows] if cols is None else arr[np.ix_(rows, cols)]


def _neg_capacitance_inverse(C: np.ndarray, p: int):
    """-C^-1 as a (k, k, D+1) array, and det C, for a 1x1 or 2x2 C.

    C^-1 = adj(C) det(C)^-1; every product runs on exact integers.
    """
    c = [[TruncPoly(p, e) for e in row] for row in C]
    if len(c) == 1:
        det = c[0][0]
        return poly_neg(poly_inv(det)).coeffs[None, None], det
    (a, b), (e, d) = c
    det = a * d - b * e
    inv = poly_inv(det)
    ninv = poly_neg(inv)
    neg_cinv = [[d * ninv, b * inv], [e * inv, a * ninv]]
    return np.array([[x.coeffs for x in row] for row in neg_cinv]), det


def _det_from_power_traces(T: np.ndarray, p: int) -> np.ndarray:
    """det(I - uR) mod u^(D+1), where T[:, :, k] = R^k.

    Newton's identities k c_k = -sum_(i=1..k) s_i c_(k-i) on exact
    integers, with s_i = tr(R^i) (a uint64 sum of n entries below p
    could overflow); k c_k is divided by k, which needs D < p.
    """
    s = [sum(diag.tolist()) % p for diag in np.diagonal(T, axis1=0, axis2=1)]
    c = [1]
    for k in range(1, len(s)):
        acc = sum(s[i] * c[k - i] for i in range(1, k + 1))
        c.append(-acc * pow(k, -1, p) % p)
    return np.array(c, dtype=np.uint64)


class SubmatrixView:
    """Explicitly maintained M^-1 restricted to H x H (low-rank updates)."""

    __slots__ = ("host", "H", "_pos", "cached")

    def __init__(self, host: "InverseState", H) -> None:
        self.host = host
        self.H = sorted(set(H))
        self._pos = {v: a for a, v in enumerate(self.H)}
        self.cached = host.query_rows(self.H)[:, self.H, :] if self.H else (
            np.zeros((0, 0, host.D + 1), dtype=np.uint64)
        )

    def entry(self, a: int, b: int) -> TruncPoly:
        return TruncPoly(self.host.p, self.cached[self._pos[a], self._pos[b]].copy())

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
        if not 1 <= self.D < self.p:
            raise ValueError(f"need 1 <= D < p, got D = {self.D} and p = {self.p}")
        self.kappa = kappa
        self.reset_period = max(1, round(self.n**kappa))
        self.T = mat_powers(A.matrix.data[:, :, 1], self.D, self.p)
        self.N = np.zeros_like(self.T)
        self.nrows: list[int] = []
        self.det = _det_from_power_traces(self.T, self.p)
        self.updates_since_reset = 0
        self.update_serial = 0
        self._in_reset = False
        self._products: list = []
        self._views: list[SubmatrixView] = []
        self._counts = dict.fromkeys(
            ("updates", "rank2_updates", "entries", "resets", "nrows_max"), 0
        )

    # ---- registration ------------------------------------------------------

    def register_product(self, ps) -> None:
        self._products.append(ps)

    def register_submatrix(self, H) -> SubmatrixView:
        view = SubmatrixView(self, H)
        self._views.append(view)
        return view

    # ---- queries -----------------------------------------------------------

    def query(self, i: int, j: int) -> TruncPoly:
        return TruncPoly(self.p, self._query_raw(i, j))

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

    def _query_raw(self, i: int, j: int) -> np.ndarray:
        return self._block([i], [j])[0, 0]

    def query_rows(self, rows) -> np.ndarray:
        """M^-1 restricted to the given rows, as a (len(rows), n, D+1) array."""
        return self._block(list(rows), None)

    def query_col(self, j: int, rows=None) -> np.ndarray:
        """Column j of M^-1, optionally restricted to the given rows."""
        return self._block(None if rows is None else list(rows), [j])[:, 0]

    def query_full(self) -> np.ndarray:
        """The entire maintained inverse T(I+N), densely."""
        return self._block(None, None)

    def det_poly(self) -> TruncPoly:
        return TruncPoly(self.p, self.det.copy())

    def stats(self) -> dict[str, int]:
        """Deterministic counters of the work done since construction.

        updates counts dinv_update calls, rank2_updates the pairs among
        them and entries the oriented entries changed (one or two per
        update, the unit the reset period counts); nrows_max is the
        high-water mark of N's nonzero rows, reached just before a reset.
        """
        return dict(self._counts)

    # ---- updates -----------------------------------------------------------

    def update_edge(self, i: int, j: int, present: bool) -> None:
        """Convenience: apply the oriented edge change through dinv_update."""
        self.dinv_update(i, j, self.A.entry_delta(i, j, present))

    def dinv_update(self, i: int, j: int, dv: np.ndarray, back=None) -> None:
        """Add dv to A[i, j], and back to A[j, i] when given, in one update."""
        p = self.p
        cols, rows = ([i], [j]) if back is None else ([i, j], [j, i])
        k = len(cols)
        dvs = np.asarray([dv] if back is None else [dv, back], dtype=np.uint64)
        # B = diag(v) (rows [j, i] of T(I+N)), with v the change to M = I - A
        diag = np.zeros((k, k, self.D + 1), dtype=np.uint64)
        diag[range(k), range(k)] = neg_mod(dvs, p)
        B = poly_mat_mul(diag, self._block(rows, None), p)
        C = B[:, cols]
        if C[:, :, 0].any():
            raise NonUnitPivot("update with nonzero constant coefficient")
        C[range(k), range(k), 0] = 1
        neg_cinv, det_c = _neg_capacitance_inverse(C, p)
        bprime = poly_mat_mul(neg_cinv, B, p)
        # submatrix views see the rank-k correction against the OLD inverse
        for view in self._views:
            if view.H:
                view._apply(self._block(view.H, cols), bprime[:, view.H])
        # determinant picks up det C
        self.det = poly_mul(TruncPoly(p, self.det), det_c).coeffs
        # N <- N + (N U + U) B'
        affected = sorted(set(self.nrows).union(cols))
        vec = _take(self.N, affected, cols)
        for s, c in enumerate(cols):
            r = affected.index(c)
            vec[r, s, 0] = (int(vec[r, s, 0]) + 1) % p
        self.N[affected] = add_mod(self.N[affected], poly_mat_mul(vec, bprime, p), p)
        self.nrows = affected
        # adjacency mirror
        for c, r, d in zip(cols, rows, dvs):
            self.A.matrix.data[c, r] = add_mod(self.A.matrix.data[c, r], d, p)
        counts = self._counts
        counts["updates"] += 1
        counts["rank2_updates"] += k == 2
        counts["entries"] += k
        counts["nrows_max"] = max(counts["nrows_max"], len(affected))
        self.update_serial += 1
        self.updates_since_reset += k
        for ps in self._products:
            ps.prod_on_A_update()
        if self.updates_since_reset >= self.reset_period:
            self._reset()

    def _reset(self) -> None:
        self._counts["resets"] += 1
        self._in_reset = True
        for ps in self._products:
            ps.prod_on_A_update()  # reset leg: folds N into V before T moves
        if self.nrows:
            extra = poly_mat_mul(self.T[:, self.nrows], self.N[self.nrows], self.p)
            self.T = add_mod(self.T, extra, self.p)
            self.N[self.nrows] = 0
        self.nrows = []
        self.updates_since_reset = 0
        self._in_reset = False
