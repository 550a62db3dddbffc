"""Exact kernels against the per-degree loop and nine-partial fold they replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsp import _kernels
from dynsp._kernels import (
    MERSENNE61,
    add_mod,
    conv_trunc,
    mat_mul_mod,
    mul_mod,
    poly_mat_mul,
)

SMALL_PRIME = (1 << 31) - 1   # the largest prime below 2^31
PRIMES = [MERSENNE61, SMALL_PRIME]


# ---- the reference: nine limb partials, each reduced through mul_mod -------


def ref_mat_mul_mod(a, b, p):
    def limbs(x):
        return np.stack(
            [((x >> np.uint64(21 * i)) & np.uint64((1 << 21) - 1)).astype(np.float64)
             for i in range(3)]
        )

    def chunk(a, b):
        prod = np.matmul(limbs(a)[:, None], limbs(b)[None, :])
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
        for i in range(3):
            for j in range(3):
                part = prod[i, j].astype(np.uint64) % np.uint64(p)
                shift = np.uint64(pow(2, 21 * (i + j), p))
                out = add_mod(out, mul_mod(part, shift, p), p)
        return out

    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
    for lo in range(0, a.shape[1], 2048):
        out = add_mod(out, chunk(a[:, lo : lo + 2048], b[lo : lo + 2048]), p)
    return out


def ref_poly_mat_mul(a, b, p):
    """One modular matmul per output degree d: sum_t A_t @ B_(d-t)."""
    n, k, dp1 = a.shape
    out = np.zeros((n, b.shape[1], dp1), dtype=np.uint64)
    at = np.ascontiguousarray(a.transpose(0, 2, 1)).reshape(n, dp1 * k)
    bt = b.transpose(2, 0, 1)
    for d in range(dp1):
        bstack = np.ascontiguousarray(bt[d::-1]).reshape((d + 1) * k, b.shape[1])
        out[:, :, d] = ref_mat_mul_mod(at[:, : (d + 1) * k], bstack, p)
    return out


def ref_conv_trunc(a, b, p):
    dp1 = a.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (dp1,)
    out = np.zeros(shape, dtype=np.uint64)
    for t in range(dp1):
        out[..., t:] = add_mod(out[..., t:], mul_mod(a[..., t : t + 1], b[..., : dp1 - t], p), p)
    return out


# ---- operands: random entries, with some rows and columns all p - 1 ----------


def operand(rng, shape, p, full_rows, full_cols):
    """Random entries below p; the flagged leading rows / trailing
    columns (axis 0 / axis 1) are all p - 1, the largest partial sums."""
    x = rng.integers(0, p, size=shape, dtype=np.uint64)
    x[:full_rows] = p - 1
    if full_cols:
        x[:, -full_cols:] = p - 1
    return x


@st.composite
def mat_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.sampled_from([2047, 2048, 2049]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a = operand(rng, (n, k), p, draw(st.integers(0, n)), 0)
    b = operand(rng, (k, m), p, 0, draw(st.integers(0, m)))
    return a, b, p


@given(mat_cases())
@settings(max_examples=30, deadline=None)
def test_mat_mul_mod_matches_nine_partial_fold(case):
    a, b, p = case
    assert np.array_equal(mat_mul_mod(a, b, p), ref_mat_mul_mod(a, b, p))


@st.composite
def poly_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    # K * (D+1) just below, at and just above the 2048 chunk boundary
    dp1 = draw(st.sampled_from([8, 16]))
    k = 2048 // dp1 + draw(st.sampled_from([-1, 0, 1]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a = operand(rng, (n, k, dp1), p, draw(st.integers(0, n)), draw(st.integers(0, 2)))
    b = operand(rng, (k, m, dp1), p, draw(st.integers(0, 2)), draw(st.integers(0, m)))
    return a, b, p


@given(poly_cases())
@settings(max_examples=30, deadline=None)
def test_poly_mat_mul_matches_per_degree_loop(case):
    a, b, p = case
    assert np.array_equal(poly_mat_mul(a, b, p), ref_poly_mat_mul(a, b, p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("budget", [1, 40, 1 << 14])
@pytest.mark.parametrize(
    "n, k, m, dp1",
    [(5, 3, 7, 4), (7, 3, 5, 4), (6, 1, 6, 9), (1, 4, 9, 1), (4, 0, 3, 3), (0, 2, 3, 2)],
)
def test_poly_mat_mul_block_boundaries(monkeypatch, p, budget, n, k, m, dp1):
    """Toeplitz blocks of one or several outer entries give one answer."""
    monkeypatch.setattr(_kernels, "_EXPAND_BUDGET", budget)
    rng = np.random.default_rng(n * 100 + m)
    a = operand(rng, (n, k, dp1), p, 1, 0)
    b = operand(rng, (k, m, dp1), p, 0, 1)
    out = poly_mat_mul(a, b, p)
    assert out.shape == (n, m, dp1) and out.flags.c_contiguous
    assert np.array_equal(out, ref_poly_mat_mul(a, b, p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "sa, sb", [((25,), (25,)), ((1, 9), (6, 9)), ((4, 1, 5), (1, 3, 5)), ((1,), (1,))]
)
def test_conv_trunc_matches_degree_loop(p, sa, sb):
    rng = np.random.default_rng(len(sa) * 10 + sb[0])
    for a, b in [
        (rng.integers(0, p, size=sa, dtype=np.uint64), rng.integers(0, p, size=sb, dtype=np.uint64)),
        (np.full(sa, p - 1, dtype=np.uint64), np.full(sb, p - 1, dtype=np.uint64)),
    ]:
        assert np.array_equal(conv_trunc(a, b, p), ref_conv_trunc(a, b, p))


def test_unsupported_modulus_is_rejected():
    a = np.ones((2, 2), dtype=np.uint64)
    with pytest.raises(ValueError):
        mat_mul_mod(a, a, (1 << 31) + 11)


# ---- memory: the Toeplitz operand is never built whole -----------------------


@pytest.mark.parametrize(
    "n, k, m",
    [(72, 10, 72),   # the apsp-ring reset: T[:, nrows] @ N[nrows]
     (1, 9, 72)],    # one row of T(I+N)
)
def test_poly_mat_mul_peak_memory(n, k, m):
    """Peak = output + limbs of the flat operand + one Toeplitz block.

    Expanding the operand with more outer entries whole (its float limbs
    are 10.8 MB at the reset shape, 9.7 MB at the one-row read) exceeds
    the bound more than twice.  At the one-row read the bound cannot be
    a small multiple of the output alone: the other operand's limbs are
    27 times the output.
    """
    dp1 = 25
    rng = np.random.default_rng(0)
    a = rng.integers(0, MERSENNE61, size=(n, k, dp1), dtype=np.uint64)
    b = rng.integers(0, MERSENNE61, size=(k, m, dp1), dtype=np.uint64)
    out_bytes = n * m * dp1 * 8
    bound = 2 * out_bytes + 4 * (a.nbytes + b.nbytes) + 2 * 3 * 8 * _kernels._EXPAND_BUDGET
    assert 2 * bound < 3 * 8 * max(n, m) * k * dp1 * dp1
    tracemalloc.start()
    try:
        poly_mat_mul(a, b, MERSENNE61)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
