"""The field parameters and the k x k power-series inverse, against the
identity C X = X C = I and a Newton-iteration reference."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inverse_oracles import identity

from dynsp._kernels import conv_trunc, min_degree_arr, poly_mat_mul, sub_mod
from dynsp.ring import DEFAULT_PRIME, FieldParams, poly_inv

SMALL_P = 10007
D = 6


def unit_matrix(k, D, p, rng):
    """A random (k, k, D+1) array with constant term I; each entry's
    terms start at a random degree, as the capacitance entries do."""
    c = np.array(
        [[[rng.randrange(p) for _ in range(D + 1)] for _ in range(k)] for _ in range(k)],
        dtype=np.uint64,
    )
    for i in range(k):
        for l in range(k):
            c[i, l, : rng.randrange(1, D + 2)] = 0
    c[:, :, 0] = np.eye(k, dtype=np.uint64)
    return c


# ---- the power-series inverse ----------------------------------------------


@given(
    k=st.sampled_from([1, 2]),
    D=st.integers(1, 30),
    p=st.sampled_from([5, SMALL_P, DEFAULT_PRIME]),
    seed=st.integers(0, 2**32),
)
@example(k=2, D=5, p=5, seed=1)  # D = p
@example(k=2, D=30, p=5, seed=2)  # D far past p
@example(k=1, D=9, p=5, seed=3)
@settings(max_examples=80, deadline=None)
def test_inverse_is_two_sided(k, D, p, seed):
    c = unit_matrix(k, D, p, random.Random(seed))
    x = poly_inv(c, p)
    assert x.shape == c.shape and x.dtype == np.uint64
    assert np.array_equal(poly_mat_mul(c, x, p), identity(k, D))
    assert np.array_equal(poly_mat_mul(x, c, p), identity(k, D))
    if k == 1:
        assert np.array_equal(x[0, 0], ref_inv(c[0, 0], p))


def test_inverse_at_default_prime():
    p = DEFAULT_PRIME
    c = np.array([[[1, p - 5, 7, 0, 11, 2, 1, 9, 0]]], dtype=np.uint64)
    assert np.array_equal(poly_mat_mul(c, poly_inv(c, p), p), identity(1, 8))
    # entries near p, so every dot product sums far past 2^64
    c = np.full((2, 2, 25), p - 1, dtype=np.uint64)
    c[:, :, 0] = np.eye(2, dtype=np.uint64)
    assert np.array_equal(poly_mat_mul(c, poly_inv(c, p), p), identity(2, 24))


def test_zero_constant_is_not_a_unit():
    with pytest.raises(ValueError, match="constant term"):
        poly_inv(np.array([[[0, 1, 0, 0]]], dtype=np.uint64), SMALL_P)
    c = identity(2, 3)
    c[0, 1, 0] = 1  # a unit, but the constant term is not I
    with pytest.raises(ValueError, match="constant term"):
        poly_inv(c, SMALL_P)


def ref_inv(a, p):
    """Newton iteration on conv_trunc, doubling the precision each step."""
    a = np.asarray(a, np.uint64)
    dp1 = a.size
    x = np.zeros(dp1, dtype=np.uint64)
    x[0] = pow(int(a[0]), p - 2, p)
    prec = 1
    while prec < dp1:
        prec = min(2 * prec, dp1)
        ax = conv_trunc(a[:prec], x[:prec], p)
        two_minus = sub_mod(np.zeros(prec, dtype=np.uint64), ax, p)
        two_minus[0] = (int(two_minus[0]) + 2) % p
        x[:prec] = conv_trunc(x[:prec], two_minus, p)
    return x


@pytest.mark.parametrize("p", [SMALL_P, DEFAULT_PRIME])
def test_inverse_matches_newton_reference(p):
    rng = random.Random(p)
    for degree in range(41):
        for _ in range(3):
            c = unit_matrix(1, degree, p, rng)
            assert np.array_equal(poly_inv(c, p)[0, 0], ref_inv(c[0, 0], p))


# ---- min-degrees and the field ---------------------------------------------


def test_min_degree():
    # the zero element reads D + 1, one past every degree
    assert min_degree_arr(np.zeros(D + 1, dtype=np.uint64)) == D + 1
    assert min_degree_arr(np.array([4] + [0] * D, dtype=np.uint64)) == 0
    assert min_degree_arr(np.array([0, 0, 3, 1, 0, 0, 0], dtype=np.uint64)) == 2
    rows = np.array([[0] * 7, [0, 0, 0, 0, 0, 0, 9], [5] + [0] * 6], dtype=np.uint64)
    assert min_degree_arr(rows).tolist() == [D + 1, D, 0]


def test_field_params_reject_unsupported_moduli():
    FieldParams(p=DEFAULT_PRIME)
    FieldParams(p=SMALL_P)
    with pytest.raises(ValueError):
        FieldParams(p=15)  # composite
    with pytest.raises(ValueError):
        FieldParams(p=(1 << 61) + 9)  # prime but not a supported shape
