"""Dense matrices over the truncated polynomial ring.

The central object is the symbolic adjacency encoding: a graph G maps
to the matrix A with A_ij = u * r_ij for every oriented edge (i, j),
where r_ij is a nonzero field element fixed once per ordered pair by
the seed (so re-inserting a deleted edge reuses the same value and an
edge update is always an additive change of known magnitude).

series_inverse computes (I - A)^-1 mod u^(D+1) through the product
form prod_i (I + A^(2^i)), valid because every entry of A has zero
constant coefficient.  The min-degree of entry (i, j) of the inverse
equals dist_G(i, j) with high probability; that is the bridge from
algebra back to shortest paths.
"""
from __future__ import annotations

import numpy as np

from ._kernels import add_mod, mul_mod, poly_mat_mul, rand_unit
from .graph import DynamicGraph
from .ring import FieldParams, TruncPoly


class DimMismatch(ValueError):
    pass


class NotNilpotentConstant(ValueError):
    """series_inverse input has a nonzero constant coefficient somewhere."""


class PolyMatrix:
    """rows x cols grid of TruncPoly sharing (p, D); backed by one array."""

    __slots__ = ("p", "data")

    def __init__(self, p: int, data: np.ndarray) -> None:
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError("need a (rows, cols, D+1) array")
        self.p = p
        self.data = np.asarray(data, dtype=np.uint64)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int, D: int) -> "PolyMatrix":
        return cls(p, np.zeros((rows, cols, D + 1), dtype=np.uint64))

    @classmethod
    def identity(cls, p: int, n: int, D: int) -> "PolyMatrix":
        data = np.zeros((n, n, D + 1), dtype=np.uint64)
        data[np.arange(n), np.arange(n), 0] = 1
        return cls(p, data)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def D(self) -> int:
        return self.data.shape[2] - 1

    def entry(self, i: int, j: int) -> TruncPoly:
        return TruncPoly(self.p, self.data[i, j].copy())

    def set_entry(self, i: int, j: int, value: TruncPoly) -> None:
        self.data[i, j] = value.coeffs

    def copy(self) -> "PolyMatrix":
        return PolyMatrix(self.p, self.data.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.data, other.data)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, D={self.D}, p={self.p})"


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.p != b.p or a.D != b.D:
        raise DimMismatch("ring parameters differ")
    if a.cols != b.rows:
        raise DimMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return PolyMatrix(a.p, poly_mat_mul(a.data, b.data, a.p))


def mat_add(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.p != b.p or a.data.shape != b.data.shape:
        raise DimMismatch("incompatible matrices")
    return PolyMatrix(a.p, add_mod(a.data, b.data, a.p))


def series_inverse(a: PolyMatrix) -> PolyMatrix:
    """(I - A)^-1 mod u^(D+1) for A with all-zero constant coefficients."""
    if a.rows != a.cols:
        raise DimMismatch("need a square matrix")
    if a.data[:, :, 0].any():
        raise NotNilpotentConstant("some entry has a nonzero constant term")
    p, n, dp1 = a.p, a.rows, a.D + 1
    ident = PolyMatrix.identity(p, n, a.D).data
    total = add_mod(ident, a.data, p)           # I + A
    power = a.data                              # A^(2^i)
    span = 2                                    # covers all A^j with j < span
    while span < dp1 and power.any():
        power = poly_mat_mul(power, power, p)
        if not power.any():
            break
        total = add_mod(total, poly_mat_mul(total, power, p), p)
        span *= 2
    return PolyMatrix(p, total)


class EncodedAdjacency:
    """Symbolic adjacency A_ij = u * r_ij over the current edge set."""

    __slots__ = ("params", "D", "n", "matrix", "_edge_seed")

    def __init__(self, g: DynamicGraph, params: FieldParams, D: int) -> None:
        self.params = params
        self.D = D
        self.n = g.n
        self.matrix = PolyMatrix.zeros(params.p, g.n, g.n, D)
        self._edge_seed = params.rng_seed
        for u in range(g.n):
            for v in g.adj[u]:
                self.matrix.data[u, v, 1] = self.r_value(u, v)

    def r_value(self, i: int, j: int) -> int:
        """The fixed random coefficient for ordered pair (i, j)."""
        return rand_unit(self.params.p, self._edge_seed, 0x0E, i * self.n + j)

    def entry_delta(self, i: int, j: int, present: bool) -> np.ndarray:
        """Additive change to A_ij when the oriented edge appears/disappears."""
        p = self.params.p
        delta = np.zeros(self.D + 1, dtype=np.uint64)
        r = self.r_value(i, j)
        delta[1] = r if present else p - r
        return delta

    def apply(self, i: int, j: int, present: bool) -> np.ndarray:
        delta = self.entry_delta(i, j, present)
        self.matrix.data[i, j] = add_mod(self.matrix.data[i, j], delta, self.params.p)
        return delta


def encode(g: DynamicGraph, params: FieldParams, D: int) -> EncodedAdjacency:
    return EncodedAdjacency(g, params, D)
