"""Polynomial matrix products, the series-inverse oracle, and the symbolic
adjacency encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inverse_oracles import adjacency, arcs, identity, series_inverse

from dynsp._kernels import min_degree_arr, poly_mat_mul, sub_mod
from dynsp.graph import DynamicGraph, bfs_dist
from dynsp.polymat import encode
from dynsp.ring import FieldParams

SMALL_P = 10007


def naive_mat_mul(a, b):
    """Entry by entry on Python ints: out[i, j, d] = sum_(k, s + t = d)
    a[i, k, s] b[k, j, t]."""
    D = a.shape[2] - 1
    out = np.zeros((a.shape[0], b.shape[1], D + 1), dtype=np.uint64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = [0] * (D + 1)
            for k in range(a.shape[1]):
                x, y = a[i, k].tolist(), b[k, j].tolist()
                for s in range(D + 1):
                    for t in range(D + 1 - s):
                        acc[s + t] += x[s] * y[t]
            out[i, j] = [c % SMALL_P for c in acc]
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
    return np.array(data, dtype=np.uint64).reshape(rows, cols, D + 1)


@given(matrices(3, 4), matrices(4, 2))
@settings(max_examples=25, deadline=None)
def test_mat_mul_matches_naive(a, b):
    assert np.array_equal(poly_mat_mul(a, b, SMALL_P), naive_mat_mul(a, b))


def test_identity_is_neutral():
    ident = identity(3, 4)
    a = np.zeros((3, 3, 5), dtype=np.uint64)
    a[0, 2, 1] = 7
    a[1, 1, 0] = 5
    assert np.array_equal(poly_mat_mul(ident, a, SMALL_P), a)
    assert np.array_equal(poly_mat_mul(a, ident, SMALL_P), a)


def test_series_inverse_inverts():
    rng = np.random.default_rng(0)
    D = 5
    a = np.zeros((4, 4, D + 1), dtype=np.uint64)
    a[:, :, 1:] = rng.integers(0, SMALL_P, size=(4, 4, D))
    inv = series_inverse(a, SMALL_P)
    # (I - A) * inv == I
    m = sub_mod(identity(4, D), a, SMALL_P)
    assert np.array_equal(poly_mat_mul(m, inv, SMALL_P), identity(4, D))


def test_series_inverse_rejects_constant_terms():
    a = np.zeros((2, 2, 4), dtype=np.uint64)
    a[0, 1, 0] = 1
    with pytest.raises(ValueError, match="constant term"):
        series_inverse(a, SMALL_P)


def test_encoded_adjacency_min_degrees_are_distances():
    g = DynamicGraph(7)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]:
        g.insert_edge(u, v)
    D = 5
    params = FieldParams(rng_seed=11)
    A = encode(g, params, D)
    a = adjacency(A, arcs(g))
    assert np.array_equal(A.R, a[:, :, 1])
    md = min_degree_arr(series_inverse(a, params.p))
    for i in range(7):
        dist = bfs_dist(g, i)
        for j in range(7):
            if dist[j] <= D:
                assert md[i, j] == dist[j], (i, j)
            else:
                assert md[i, j] > D


def test_edge_coefficients_are_stable_across_reinsertion():
    g = DynamicGraph(3)
    g.insert_edge(0, 1)
    params = FieldParams(rng_seed=5)
    R = encode(g, params, 3).R
    g.delete_edge(0, 1)
    assert not encode(g, params, 3).R.any()
    g.insert_edge(0, 1)
    A = encode(g, params, 3)
    assert np.array_equal(A.R, R)
    on, off = A.entry_delta(0, 1, True), A.entry_delta(0, 1, False)
    assert (on + off) % params.p == 0
    assert on == int(R[0, 1]) != 0
