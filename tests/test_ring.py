"""Truncated-polynomial ring arithmetic against naive integer oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsp._kernels import conv_trunc, min_degree_arr, sub_mod
from dynsp.ring import (
    DEFAULT_PRIME,
    FieldParams,
    NonUnit,
    ParamMismatch,
    TruncPoly,
    poly_add,
    poly_inv,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sub,
)

SMALL_P = 10007
D = 6


def naive_mul(a, b, p, dmax):
    out = [0] * (dmax + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= dmax:
                out[i + j] = (out[i + j] + int(ai) * int(bj)) % p
    return out


coeff_vecs = st.lists(
    st.integers(min_value=0, max_value=SMALL_P - 1), min_size=D + 1, max_size=D + 1
)


@given(coeff_vecs, coeff_vecs)
@settings(max_examples=60, deadline=None)
def test_mul_matches_naive_convolution(ac, bc):
    a = TruncPoly(SMALL_P, ac)
    b = TruncPoly(SMALL_P, bc)
    assert list(poly_mul(a, b).coeffs) == naive_mul(ac, bc, SMALL_P, D)


@given(coeff_vecs, coeff_vecs)
@settings(max_examples=40, deadline=None)
def test_add_sub_roundtrip(ac, bc):
    a = TruncPoly(SMALL_P, ac)
    b = TruncPoly(SMALL_P, bc)
    assert poly_sub(poly_add(a, b), b) == a
    assert poly_add(a, poly_neg(a)).is_zero()


@given(coeff_vecs)
@settings(max_examples=40, deadline=None)
def test_inverse_is_two_sided(ac):
    ac = list(ac)
    if ac[0] == 0:
        ac[0] = 1
    a = TruncPoly(SMALL_P, ac)
    inv = poly_inv(a)
    assert poly_mul(a, inv) == TruncPoly.constant(SMALL_P, 1, D)
    assert poly_mul(inv, a) == TruncPoly.constant(SMALL_P, 1, D)


def test_inverse_at_default_prime():
    coeffs = [3, DEFAULT_PRIME - 5, 7, 0, 11, 2, 1, 9, 0]
    a = TruncPoly(DEFAULT_PRIME, coeffs)
    assert poly_mul(a, poly_inv(a)) == TruncPoly.constant(DEFAULT_PRIME, 1, 8)


def test_zero_constant_is_not_a_unit():
    with pytest.raises(NonUnit):
        poly_inv(TruncPoly(SMALL_P, [0, 1, 0, 0]))


def test_min_degree():
    # the zero element reads D + 1, one past every degree
    assert min_degree_arr(TruncPoly.zero(SMALL_P, D).coeffs) == D + 1
    assert min_degree_arr(TruncPoly.constant(SMALL_P, 4, D).coeffs) == 0
    assert min_degree_arr(TruncPoly(SMALL_P, [0, 0, 3, 1, 0, 0, 0]).coeffs) == 2
    rows = np.array([[0] * 7, [0, 0, 0, 0, 0, 0, 9], [5] + [0] * 6], dtype=np.uint64)
    assert min_degree_arr(rows).tolist() == [D + 1, D, 0]


def test_param_mismatch_rejected():
    a = TruncPoly(SMALL_P, [1] * (D + 1))
    b = TruncPoly(SMALL_P, [1] * D)
    with pytest.raises(ParamMismatch):
        poly_add(a, b)


def test_scale_matches_repeated_addition():
    a = TruncPoly(SMALL_P, [5, 3, 0, 2, 0, 0, 1])
    triple = poly_add(poly_add(a, a), a)
    assert poly_scale(3, a) == triple


def test_field_params_reject_unsupported_moduli():
    FieldParams(p=DEFAULT_PRIME)
    FieldParams(p=SMALL_P)
    with pytest.raises(ValueError):
        FieldParams(p=15)  # composite
    with pytest.raises(ValueError):
        FieldParams(p=(1 << 61) + 9)  # prime but not a supported shape


def test_coefficients_are_reduced_and_frozen():
    a = TruncPoly(SMALL_P, [SMALL_P + 3, 2 * SMALL_P, 1])
    assert list(a.coeffs) == [3, 0, 1]
    with pytest.raises(ValueError):
        a.coeffs[0] = 9


# ---- the BLAS implementations that poly_mul and poly_inv replaced ---------


def ref_mul(a, b, p):
    return conv_trunc(np.asarray(a, np.uint64), np.asarray(b, np.uint64), p)


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
def test_mul_and_inv_match_blas_reference(p):
    rng = random.Random(p)
    for degree in range(41):
        for _ in range(3):
            ac = [rng.randrange(p) for _ in range(degree + 1)]
            bc = [rng.randrange(p) for _ in range(degree + 1)]
            ac[0] = rng.randrange(2, p)  # a unit other than 1
            low = rng.randrange(degree + 1)
            bc[:low] = [0] * low  # low-degree zeros, as edge entries have
            a, b = TruncPoly(p, ac), TruncPoly(p, bc)
            assert np.array_equal(poly_mul(a, b).coeffs, ref_mul(ac, bc, p))
            assert np.array_equal(poly_inv(a).coeffs, ref_inv(ac, p))
