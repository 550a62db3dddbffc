"""Reference algebra the tests check the dynamic structures against.

series_inverse computes (I - A)^-1 mod u^(D+1) from scratch through the
product form prod_i (I + A^(2^i)), valid because every entry of A has
zero constant coefficient.  adjacency rebuilds A = u R from an edge set
the test tracks itself, and bitcopy_E builds the witness matrix of one
of PathReporter's copies; neither reads state a structure keeps.
"""

import numpy as np

from dynsp._kernels import add_mod, poly_mat_mul


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
