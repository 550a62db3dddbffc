"""Dynamic truncated-polynomial matrix inverse with lazy T/N factorization.

Maintains M^-1 = T(I + N) and det M for M = I - A under single-entry
updates to A, where A is the symbolic adjacency.  Between resets only
the row-sparse matrix N changes; every reset_period = max(1,
round(n^kappa)) updates, T absorbs N (T <- T(I+N), N <- 0).

Sign convention: callers pass the additive change applied to A; the
negation for M = I - A happens here.  Every legal update has zero
constant coefficient (edge entries carry a factor u), which keeps the
pivot 1 + b_i a unit and the determinant's constant term equal to 1.

Registered product states (witness-product module) and submatrix views
are sequenced by this owner object so the reset order V before T, T
before N-clear is a checked runtime contract.
"""
from __future__ import annotations

import numpy as np

from ._kernels import add_mod, conv_trunc, mul_mod, neg_mod, poly_mat_mul
from .polymat import EncodedAdjacency, PolyMatrix, series_inverse
from .ring import TruncPoly, poly_inv

DEFAULT_KAPPA = 0.529


class NonUnitPivot(RuntimeError):
    """1 + b_i failed to be a unit; impossible for legal edge updates."""


def _take(arr: np.ndarray, rows, cols) -> np.ndarray:
    """arr[rows][:, cols] for index lists, where None selects everything."""
    if rows is None:
        return arr if cols is None else arr[:, cols]
    return arr[rows] if cols is None else arr[np.ix_(rows, cols)]


class SubmatrixView:
    """Explicitly maintained M^-1 restricted to H x H (rank-one updates)."""

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

    def _apply(self, col_h: np.ndarray, bprime_h: np.ndarray) -> None:
        if not self.H:
            return
        corr = poly_mat_mul(col_h[:, None, :], bprime_h[None, :, :], self.host.p)
        self.cached = add_mod(self.cached, corr, self.host.p)


class InverseState:
    def __init__(self, A: EncodedAdjacency, kappa: float = DEFAULT_KAPPA) -> None:
        self.A = A
        self.p = A.params.p
        self.n = A.n
        self.D = A.D
        self.kappa = kappa
        self.reset_period = max(1, round(self.n**kappa))
        dp1 = self.D + 1
        bootstrap = bool(A.matrix.data.any())
        if bootstrap:
            self.T = PolyMatrix.identity(self.p, self.n, self.D).data
        else:
            self.T = series_inverse(A.matrix).data.copy()
        self.N = np.zeros((self.n, self.n, dp1), dtype=np.uint64)
        self.nrows: list[int] = []
        self.det = np.zeros(dp1, dtype=np.uint64)
        self.det[0] = 1
        self.updates_since_reset = 0
        self.update_serial = 0
        self._in_reset = False
        self._products: list = []
        self._views: list[SubmatrixView] = []
        if bootstrap:
            # determinant bootstrap: replay the initial edges through the
            # update rule so det is always maintained by the product formula
            initial = np.argwhere(A.matrix.data.any(axis=2))
            A.matrix.data[:] = 0
            for i, j in initial:
                self.dinv_update(int(i), int(j), A.entry_delta(int(i), int(j), True))

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

    # ---- updates -----------------------------------------------------------

    def update_edge(self, i: int, j: int, present: bool) -> None:
        """Convenience: apply the oriented edge change through dinv_update."""
        self.dinv_update(i, j, self.A.entry_delta(i, j, present))

    def dinv_update(self, i: int, j: int, dv: np.ndarray) -> None:
        p = self.p
        dv = np.asarray(dv, dtype=np.uint64)
        v = neg_mod(dv, p)  # change to M = I - A
        # b = v * (row j of T(I+N)), as (1, n, D+1)
        b = poly_mat_mul(v[None, None, :], self._block([j], None), p)
        one_plus_bi = b[0, i].copy()
        if one_plus_bi[0] != 0:
            raise NonUnitPivot("update with nonzero constant coefficient")
        one_plus_bi[0] = 1
        inv_pivot = poly_inv(TruncPoly(p, one_plus_bi)).coeffs
        bprime = neg_mod(poly_mat_mul(inv_pivot[None, None, :], b, p)[0], p)
        # submatrix views see the rank-one correction against the OLD inverse
        for view in self._views:
            if view.H:
                col_h = self.query_col(i, view.H)
                view._apply(col_h, bprime[view.H])
        # determinant picks up the pivot factor
        self.det = conv_trunc(self.det, one_plus_bi, p)
        # N <- NB + B - I  ==  N + outer(N e_i + e_i, b')
        affected = sorted(set(self.nrows) | {i})
        vec = self.N[affected, i].copy()
        ii = affected.index(i)
        vec[ii, 0] = (int(vec[ii, 0]) + 1) % p
        self.N[affected] = add_mod(
            self.N[affected],
            poly_mat_mul(vec[:, None, :], bprime[None, :, :], p),
            p,
        )
        self.nrows = affected
        # adjacency mirror
        self.A.matrix.data[i, j] = add_mod(self.A.matrix.data[i, j], dv, p)
        self.update_serial += 1
        self.updates_since_reset += 1
        for ps in self._products:
            ps.prod_on_A_update()
        if self.updates_since_reset >= self.reset_period:
            self._reset()

    def _reset(self) -> None:
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
