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
    mat_powers,
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


# contraction lengths at the kernel's chunk bound (341 terms) and twice
# it, at 512, and at the 2048 of the nine-partial reference
CHUNK_LENGTHS = [340, 341, 342, 511, 512, 513, 682, 683, 2047, 2048, 2049]


@st.composite
def mat_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.sampled_from(CHUNK_LENGTHS))
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
    # K * (D+1) just below, at and just above 341, 512 and 2048 terms
    dp1 = draw(st.sampled_from([8, 16]))
    k = draw(st.sampled_from([341, 512, 2048])) // dp1 + draw(st.sampled_from([-1, 0, 1]))
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
    """One Toeplitz block, or the degree-major path when b needs several, gives one answer."""
    monkeypatch.setattr(_kernels, "_EXPAND_BUDGET", budget)
    rng = np.random.default_rng(n * 100 + m)
    a = operand(rng, (n, k, dp1), p, 1, 0)
    b = operand(rng, (k, m, dp1), p, 0, 1)
    out = poly_mat_mul(a, b, p)
    assert out.shape == (n, m, dp1) and out.flags.c_contiguous
    assert np.array_equal(out, ref_poly_mat_mul(a, b, p))


@st.composite
def by_degree_cases(draw):
    """Shapes that a small _EXPAND_BUDGET sends to the degree-major path
    whenever n and m are both at least 2, n < m included."""
    p = draw(st.sampled_from(PRIMES))
    if draw(st.booleans()):
        n, m = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        k, dp1 = draw(st.integers(0, 6)), draw(st.integers(1, 9))
    else:
        # K (D+1) at and around the chunk bounds; D+1 = 1 included
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        k, dp1 = draw(st.sampled_from(
            [(2047, 1), (2048, 1), (2049, 1), (89, 23), (23, 89), (256, 8), (683, 3),
             (340, 1), (341, 1), (342, 1), (11, 31), (19, 18), (7, 73), (27, 19)]
        ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        a = operand(rng, (n, k, dp1), p, draw(st.integers(0, n)), draw(st.integers(0, 2)))
        b = operand(rng, (k, m, dp1), p, draw(st.integers(0, 2)), draw(st.integers(0, m)))
    else:  # every partial sum at its largest
        a = np.full((n, k, dp1), p - 1, dtype=np.uint64)
        b = np.full((k, m, dp1), p - 1, dtype=np.uint64)
    return a, b, p, draw(st.sampled_from([1, 40, 600]))


@given(by_degree_cases())
@settings(max_examples=80, deadline=None)
def test_poly_mat_mul_by_degree_matches_per_degree_loop(case):
    a, b, p, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_EXPAND_BUDGET", budget)
        out = poly_mat_mul(a, b, p)
    assert out.shape == (a.shape[0], b.shape[1], a.shape[2]) and out.flags.c_contiguous
    assert np.array_equal(out, ref_poly_mat_mul(a, b, p))


def test_only_products_of_several_toeplitz_blocks_go_by_degree():
    fits = _kernels._fits_one_block
    assert not fits(72, 10, 72, 25)     # the apsp-ring reset
    assert not fits(128, 14, 128, 9)    # the reporter-gnp reset
    assert not fits(52, 2, 52, 25)      # the apsp-ring H x H view correction
    assert fits(1, 10, 52, 25)          # one row of the inverse
    assert fits(14, 14, 128, 9)         # 14 rows of the inverse
    assert fits(128, 14, 1, 9) and fits(1, 14, 128, 9)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "sa, sb",
    [((25,), (25,)), ((1, 9), (6, 9)), ((4, 1, 5), (1, 3, 5)), ((1,), (1,))]
    + [((d,), (d,)) for d in (340, 341, 342, 511, 512, 513)],   # D+1 at the chunk bounds
)
def test_conv_trunc_matches_degree_loop(p, sa, sb):
    rng = np.random.default_rng(len(sa) * 10 + sb[0])
    for a, b in [
        (rng.integers(0, p, size=sa, dtype=np.uint64), rng.integers(0, p, size=sb, dtype=np.uint64)),
        (np.full(sa, p - 1, dtype=np.uint64), np.full(sb, p - 1, dtype=np.uint64)),
    ]:
        assert np.array_equal(conv_trunc(a, b, p), ref_conv_trunc(a, b, p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n, k", [(7, 5), (3, 1)])
def test_mat_powers_match_repeated_reference_products(p, n, k):
    r = np.random.default_rng(n * 10 + k).integers(0, p, size=(n, n), dtype=np.uint64)
    got = mat_powers(r, k, p)
    power = np.eye(n, dtype=np.uint64)
    for i in range(k + 1):
        assert np.array_equal(got[:, :, i], power)
        power = ref_mat_mul_mod(r, power, p)


# (K, D+1) with K (D+1) = the contraction length of the largest output degree
FACTORED = {340: (20, 17), 341: (11, 31), 342: (19, 18), 511: (7, 73), 512: (32, 16),
            513: (27, 19), 682: (22, 31), 683: (683, 1)}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("length", sorted(FACTORED))
def test_all_p_minus_one_products_at_the_chunk_bounds(p, length):
    """Every limb product, group and partial sum at its largest, with
    contractions just below, at and just above one and two chunks."""
    top = np.uint64(p - 1)
    a, b = np.full((2, length), top), np.full((length, 3), top)
    assert np.array_equal(mat_mul_mod(a, b, p), ref_mat_mul_mod(a, b, p))
    k, dp1 = FACTORED[length]
    pa, pb = np.full((2, k, dp1), top), np.full((k, 2, dp1), top)
    assert _kernels._fits_one_block(2, k, 1, dp1)
    assert np.array_equal(poly_mat_mul(pa, pb[:, :1], p), ref_poly_mat_mul(pa, pb[:, :1], p))
    assert np.array_equal(
        _kernels._poly_mat_mul_by_degree(pa, pb, p), ref_poly_mat_mul(pa, pb, p)
    )


@pytest.mark.parametrize("p", PRIMES)
def test_a_product_that_sums_to_p_reduces_to_zero(p):
    """1 * 1 + 1 * (p - 1): its limb groups sum to p exactly, which the
    last reduction must map to 0."""
    a, b = np.ones((1, 2), dtype=np.uint64), np.array([[1], [p - 1]], dtype=np.uint64)
    assert mat_mul_mod(a, b, p)[0, 0] == 0
    pa, pb = a[:, :, None], b[:, :, None]
    assert _kernels._poly_mat_mul_by_degree(pa, pb, p)[0, 0, 0] == 0


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [341, 342, 511, 512, 513])
def test_mat_powers_of_an_all_p_minus_one_matrix(p, n):
    r = np.full((n, n), p - 1, dtype=np.uint64)
    got = mat_powers(r, 2, p)
    assert np.array_equal(got[:, :, 1], r)
    assert np.array_equal(got[:, :, 2], ref_mat_mul_mod(r, r, p))


def test_unsupported_modulus_is_rejected():
    a = np.ones((2, 2), dtype=np.uint64)
    with pytest.raises(ValueError):
        mat_mul_mod(a, a, (1 << 31) + 11)


# ---- memory: the Toeplitz operand is never built whole -----------------------


@pytest.mark.parametrize(
    "n, k, m",
    [(72, 10, 72),    # the apsp-ring reset: T[:, nrows] @ N[nrows]
     (128, 14, 128),  # the reporter-gnp reset's outer shape
     (1, 9, 72)],     # one row of T(I+N)
)
def test_poly_mat_mul_peak_memory(n, k, m):
    """Peak = output + limbs of the operands + one block of the fold.

    The two resets go by degree (the limbs of both operands and one
    block of whole output degrees), the one-row read is one Toeplitz
    block.  Expanding the operand with more outer entries whole (its
    float limbs are 10.8 MB at the apsp-ring reset shape, 26.9 MB at
    the reporter-gnp one, 9.7 MB at the one-row read) exceeds the bound
    more than twice.  At the one-row read the bound cannot be a small
    multiple of the output alone: the other operand's limbs are 27 times
    the output.
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
