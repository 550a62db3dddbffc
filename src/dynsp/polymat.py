"""The symbolic adjacency encoding A = u R.

A graph G maps to the matrix A with A_ij = u * r_ij for every oriented
edge (i, j), where r_ij is a nonzero field element fixed once per ordered
pair by the seed (so re-inserting a deleted edge reuses the same value).
An edge update adds s u to one entry, with s = r_ij or p - r_ij, and
entry_delta returns that scalar s.  Every entry is a multiple of u, so
the encoding holds only the scalar n x n matrix R of the initial edge
set; the inverse is built from its powers.
The min-degree of entry (i, j) of (I - A)^-1 equals dist_G(i, j) with
high probability; that is the bridge from algebra back to shortest paths.
"""
from __future__ import annotations

import numpy as np

from ._kernels import rand_unit
from .graph import DynamicGraph
from .ring import FieldParams


class EncodedAdjacency:
    """A = u R over the initial edge set: R[i, j] = r_ij for every edge (i, j)."""

    __slots__ = ("params", "D", "n", "R", "_edge_seed")

    def __init__(self, g: DynamicGraph, params: FieldParams, D: int) -> None:
        self.params = params
        self.D = D
        self.n = g.n
        self._edge_seed = params.rng_seed
        self.R = np.zeros((g.n, g.n), dtype=np.uint64)
        for u in range(g.n):
            for v in g.adj[u]:
                self.R[u, v] = self.r_value(u, v)

    def r_value(self, i: int, j: int) -> int:
        """The fixed random coefficient for ordered pair (i, j)."""
        return rand_unit(self.params.p, self._edge_seed, 0x0E, i * self.n + j)

    def entry_delta(self, i: int, j: int, present: bool) -> int:
        """The scalar s with A_ij gaining s u when the oriented edge appears
        (r_ij) or disappears (p - r_ij)."""
        r = self.r_value(i, j)
        return r if present else self.params.p - r


def encode(g: DynamicGraph, params: FieldParams, D: int) -> EncodedAdjacency:
    return EncodedAdjacency(g, params, D)
