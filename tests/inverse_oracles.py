"""Reference algebra the tests check the dynamic structures against.

series_inverse computes (I - A)^-1 mod u^(D+1) from scratch through the
product form prod_i (I + A^(2^i)), valid because every entry of A has
zero constant coefficient.  adjacency rebuilds A = u R from an edge set
the test tracks itself, and bitcopy_E builds the witness matrix of one
of PathReporter's copies; neither reads state a structure keeps.
DenseInverseState is the inverse as it was kept before N shrank to its
nonzero rows: N as dense as T, and every product and sum in new arrays.
"""

import numpy as np

from dynsp._kernels import add_mod, mat_powers, mul_mod, poly_mat_mul, sub_mod
from dynsp.ring import poly_inv


def identity(n, D):
    """The n x n identity as an (n, n, D+1) coefficient array."""
    out = np.zeros((n, n, D + 1), dtype=np.uint64)
    out[np.arange(n), np.arange(n), 0] = 1
    return out


def series_inverse(a, p):
    """(I - A)^-1 mod u^(D+1) for an (n, n, D+1) array A with zero
    constant coefficients."""
    n, cols, dp1 = a.shape
    if n != cols:
        raise ValueError("need a square matrix")
    if a[:, :, 0].any():
        raise ValueError("some entry has a nonzero constant term")
    total = add_mod(identity(n, dp1 - 1), a, p)  # I + A
    power = a                                    # A^(2^i)
    span = 2                                     # covers all A^j with j < span
    while span < dp1 and power.any():
        power = poly_mat_mul(power, power, p)
        if not power.any():
            break
        total = add_mod(total, poly_mat_mul(total, power, p), p)
        span *= 2
    return total


def arcs(g):
    """Every oriented edge of a graph: both orientations of an undirected one."""
    return [(u, v) for u in range(g.n) for v in sorted(g.adj[u])]


def adjacency(A, edges):
    """A = u R over the given oriented edges, as an (n, n, D+1) array,
    with the encoding's fixed coefficients r_ij."""
    out = np.zeros((A.n, A.n, A.D + 1), dtype=np.uint64)
    for i, j in edges:
        out[i, j, 1] = A.r_value(i, j)
    return out


def bitcopy_E(pr, copy_index):
    """The witness matrix E_c of one copy: E_c[i, s] = rho_is for every
    edge (i, s) whose head s lies in the copy's column mask."""
    n, dp1 = pr.g.n, pr.D + 1
    E = np.zeros((n, n, dp1), dtype=np.uint64)
    mask = pr.copy_masks[copy_index]
    for i in range(n):
        for s in pr.g.adj[i]:
            if mask[s]:
                E[i, s, 0] = pr._rho[i, s]
    return E


def _take(arr, rows, cols):
    if rows is None:
        return arr if cols is None else arr[:, cols]
    return arr[rows] if cols is None else arr[np.ix_(rows, cols)]


class DenseInverseState:
    """InverseState's maintained T(I+N) with a dense N, sorted nrows and
    fresh arrays for every product; the same reset period and counters."""

    def __init__(self, A, kappa):
        self.A, self.p, self.n, self.D = A, A.params.p, A.n, A.D
        self.reset_period = max(1, round(float(self.n) ** kappa))
        self.T = mat_powers(A.R, self.D, self.p)
        self.N = np.zeros_like(self.T)
        self.nrows = []
        self.updates_since_reset = 0
        self._counts = dict.fromkeys(
            ("updates", "rank2_updates", "entries", "resets", "nrows_max"), 0
        )

    def query_rows(self, rows, cols=None):
        rows = None if rows is None else list(rows)
        cols = None if cols is None else list(cols)
        out = _take(self.T, rows, cols)
        if not self.nrows:
            return out.copy()
        extra = poly_mat_mul(
            _take(self.T, rows, self.nrows), _take(self.N, self.nrows, cols), self.p
        )
        return add_mod(out, extra, self.p)

    def query_full(self):
        return self.query_rows(None)

    def stats(self):
        return dict(self._counts)

    def dinv_update(self, i, j, r, back=None):
        p = self.p
        cols, rows = ([i], [j]) if back is None else ([i, j], [j, i])
        scalars = [r] if back is None else [r, back]
        k = len(cols)
        neg_r = np.array([-x % p for x in scalars], dtype=np.uint64)[:, None, None]
        B = np.zeros((k, self.n, self.D + 1), dtype=np.uint64)
        B[:, :, 1:] = mul_mod(neg_r, self.query_rows(rows)[:, :, :-1], p)
        C = B[:, cols]
        C[range(k), range(k), 0] = 1
        bprime = poly_mat_mul(sub_mod(0, poly_inv(C, p), p), B, p)
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
            self._counts["resets"] += 1
            if self.nrows:
                extra = poly_mat_mul(self.T[:, self.nrows], self.N[self.nrows], p)
                self.T = add_mod(self.T, extra, p)
                self.N[self.nrows] = 0
            self.nrows = []
            self.updates_since_reset = 0
