"""Polynomial matrices and the symbolic adjacency encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsp.graph import DynamicGraph, bfs_dist
from dynsp.polymat import (
    DimMismatch,
    NotNilpotentConstant,
    PolyMatrix,
    encode,
    mat_add,
    mat_mul,
    series_inverse,
)
from dynsp.ring import FieldParams, TruncPoly, min_degree, poly_add, poly_mul

SMALL_P = 10007


def naive_mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    out = PolyMatrix.zeros(a.p, a.rows, b.cols, a.D)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = TruncPoly.zero(a.p, a.D)
            for k in range(a.cols):
                acc = poly_add(acc, poly_mul(a.entry(i, k), b.entry(k, j)))
            out.set_entry(i, j, acc)
    return out


@st.composite
def matrices(draw, rows, cols, D=4):
    data = draw(
        st.lists(
            st.integers(min_value=0, max_value=SMALL_P - 1),
            min_size=rows * cols * (D + 1),
            max_size=rows * cols * (D + 1),
        )
    )
    arr = np.array(data, dtype=np.uint64).reshape(rows, cols, D + 1)
    return PolyMatrix(SMALL_P, arr)


@given(matrices(3, 4), matrices(4, 2))
@settings(max_examples=25, deadline=None)
def test_mat_mul_matches_naive(a, b):
    assert mat_mul(a, b) == naive_mat_mul(a, b)


def test_dimension_mismatch():
    a = PolyMatrix.zeros(SMALL_P, 2, 3, 4)
    b = PolyMatrix.zeros(SMALL_P, 2, 3, 4)
    with pytest.raises(DimMismatch):
        mat_mul(a, b)
    with pytest.raises(DimMismatch):
        mat_add(a, PolyMatrix.zeros(SMALL_P, 3, 2, 4))


def test_identity_is_neutral():
    ident = PolyMatrix.identity(SMALL_P, 3, 4)
    a = PolyMatrix.zeros(SMALL_P, 3, 3, 4)
    a.data[0, 2, 1] = 7
    a.data[1, 1, 0] = 5
    assert mat_mul(ident, a) == a
    assert mat_mul(a, ident) == a


def test_series_inverse_inverts():
    rng = np.random.default_rng(0)
    D = 5
    a = PolyMatrix.zeros(SMALL_P, 4, 4, D)
    a.data[:, :, 1:] = rng.integers(0, SMALL_P, size=(4, 4, D))
    inv = series_inverse(a)
    # (I - A) * inv == I
    m = PolyMatrix.identity(SMALL_P, 4, D)
    m.data[:, :, :] = (m.data.astype(object) - a.data.astype(object)) % SMALL_P
    assert mat_mul(PolyMatrix(SMALL_P, m.data.astype(np.uint64)), inv) == (
        PolyMatrix.identity(SMALL_P, 4, D)
    )


def test_series_inverse_rejects_constant_terms():
    a = PolyMatrix.zeros(SMALL_P, 2, 2, 3)
    a.data[0, 1, 0] = 1
    with pytest.raises(NotNilpotentConstant):
        series_inverse(a)


def test_encoded_adjacency_min_degrees_are_distances():
    g = DynamicGraph(7)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]:
        g.insert_edge(u, v)
    D = 5
    A = encode(g, FieldParams(rng_seed=11), D)
    inv = series_inverse(A.matrix)
    for i in range(7):
        dist = bfs_dist(g, i)
        for j in range(7):
            md = min_degree(inv.entry(i, j))
            if dist[j] <= D:
                assert md == dist[j], (i, j)
            else:
                assert md is None or md > D


def test_edge_coefficients_are_stable_across_reinsertion():
    g = DynamicGraph(3)
    g.insert_edge(0, 1)
    A = encode(g, FieldParams(rng_seed=5), 3)
    r = int(A.matrix.data[0, 1, 1])
    A.apply(0, 1, False)
    assert not A.matrix.data[0, 1].any()
    A.apply(0, 1, True)
    assert int(A.matrix.data[0, 1, 1]) == r
