"""Vectorized modular arithmetic on numpy uint64 arrays.

Everything in this file operates on arrays whose entries are already
reduced modulo a prime p.  Two primes are supported:

* the default Mersenne prime 2^61 - 1, where products are reduced with
  shift/mask folding (2^61 = 1 mod p), and
* any prime below 2^31, where a 64-bit product cannot overflow and a
  plain ``%`` suffices.

Exact matrix products run on float64 BLAS.  Each entry is split into
21-bit limbs: three for 2^61 - 1, two below 2^31 (the third would be
zero).  Limbs i of A and j of B give one float matmul, whose entries
are at most K (2^21 - 1)^2 < 2^53 for contraction length K <= 2048,
so they are exact integers; longer contractions are chunked.

Grouped limb fold.  The partials are converted to uint64 one at a
time and added into the group of their shift 21 (i + j): nine partials
into five groups G_0..G_4.  At most three partials share a group, so
every group sum stays below 2^55.  The product is then
sum_s G_s 2^(21 s) mod p, and each group is folded in as soon as it is
complete.  For 2^61 - 1, multiplying a value below 2^61 by 2^r is a
rotation of its 61 bits left by r mod 61, so the groups are rotated by
0, 21, 42, 2 and 23 bits.  The five rotated values sum below 2^64, and
two folds of the bits above 2^61, plus mapping p itself to 0, leave
the canonical residue.  Below 2^31 the three groups are combined by
Horner's rule with ``%``.

Polynomials in F_p[u]/<u^(D+1)> are stored as dense coefficient vectors
along the LAST axis of an array; leading axes broadcast.

Toeplitz layout.  A truncated product of polynomials is a contraction
too.  A polynomial b becomes the (D+1) x (D+1) Toeplitz matrix whose
entry (s, d) is b's coefficient of degree d - s, zero when d < s; a
row vector of a's coefficients times it is a b mod u^(D+1).  So
conv_trunc is one limb product.  poly_mat_mul of (n, K, D+1) by
(K, m, D+1) with n >= m (else it multiplies the transposes) takes
this layout when b fits in one Toeplitz block (see the entry budget):
one modular matmul of contraction length K (D+1), a flattened to
columns (k, s) against b laid out with entry ((k, s), (y, d)) holding
its coefficient of degree d - s.  It multiplies the Toeplitz zeros,
up to twice the flops of one matmul per output degree, but one call
and one fold cost less than D + 1 of each at these sizes: every read
of the inverse in the benchmark's workloads is one block.
conv_trunc has no caller in this package; it is kept as the tests'
batched reference for truncated products.

Degree-major layout.  A product too large for one Toeplitz block (the
inverse's reset T(I+N), the H x H view correction) is contracted
degree by degree.  a's limbs are laid out with columns (t, k), degree
first, and b's with rows (D - t, k), degrees reversed, each split once
per call.  Output degree d is then a column prefix of a, of length
(d + 1) K, against a row suffix of b: slices, so nothing is copied and
no Toeplitz zero is multiplied.  The limb partials are folded over
blocks of whole output degrees; a contraction longer than 2048 is
folded chunk by chunk and the chunks added mod p.

Entry budget.  A Toeplitz block of g outer entries has K (D+1) rows
and g (D+1) columns, and its output n g (D+1) entries; b fits in one
block when both stay within _EXPAND_BUDGET entries for g = m, or when
m = 1.  The degree-major path keeps the limbs of both operands, up to
three times their size, and folds g output degrees at a time, with
g n m <= max(_EXPAND_BUDGET, n m) entries in each of its four fold
buffers.  So the extra memory of one call is a few times the operands
and the output, and does not grow with a Toeplitz expansion.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MERSENNE61 = (1 << 61) - 1

_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_CHUNK = 2048  # max contraction length for exact float64 limb products
_EXPAND_BUDGET = 1 << 14  # entries of one Toeplitz block, or of one degree-major fold


def supported_prime(p: int) -> bool:
    return p == MERSENNE61 or 1 < p < (1 << 31)


def add_mod(a, b, p):
    s = np.add(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    return np.where(s >= p, s - np.uint64(p), s)


def sub_mod(a, b, p):
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return np.where(a >= b, a - b, a + np.uint64(p) - b)


def _mul_mod_m61(a, b):
    p = np.uint64(MERSENNE61)
    ah = a >> np.uint64(32)
    al = a & np.uint64(0xFFFFFFFF)
    bh = b >> np.uint64(32)
    bl = b & np.uint64(0xFFFFFFFF)
    # a*b = ah*bh*2^64 + (ah*bl + al*bh)*2^32 + al*bl, with 2^64 = 8 mod p
    hi = ah * bh
    mid = ah * bl + al * bh            # < 2^62, no overflow
    lo = al * bl
    acc = hi * np.uint64(8)
    acc += mid >> np.uint64(29)        # mid = mh*2^29 + ml; mh*2^61 = mh
    acc += (mid & np.uint64((1 << 29) - 1)) << np.uint64(32)
    acc += (lo & p) + (lo >> np.uint64(61))
    acc = (acc & p) + (acc >> np.uint64(61))
    acc = (acc & p) + (acc >> np.uint64(61))
    return np.where(acc >= p, acc - p, acc)


def mul_mod(a, b, p):
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if p == MERSENNE61:
        return _mul_mod_m61(a, b)
    if p < (1 << 31):
        return (a * b) % np.uint64(p)
    raise ValueError(f"unsupported modulus {p}")


def _limb_count(p: int) -> int:
    """21-bit limbs per entry: entries below 2^31 leave the third limb zero."""
    if p == MERSENNE61:
        return 3
    if 1 < p < (1 << 31):
        return 2
    raise ValueError(f"unsupported modulus {p}")


def _limbs_f64(a, count: int):
    """Split uint64 entries (< 2^63) into `count` 21-bit limbs as float64."""
    out = np.empty((count,) + a.shape)
    limb = np.empty(a.shape, dtype=np.uint64)
    for i in range(count):
        np.right_shift(a, np.uint64(_LIMB_BITS * i), out=limb)
        if i + 1 < count:
            limb &= np.uint64(_LIMB_MASK)
        out[i] = limb
    return out


def _fold_limbs(partial, shape, count, p):
    """Exact sum_(i,j) P_ij 2^(21 (i + j)) mod p, as a uint64 array of shape.

    partial(i, j, out) writes the limb partial P_ij, a float64 array of
    exact integers below 2^53, into out.  Each partial is added, as
    uint64, into the group of its shift 21 (i + j).  At most three
    partials share a group, so every group sum stays below 2^55.  Each
    group is folded into the result as soon as it is complete, highest
    shift first, so four buffers of shape are live at a time.
    """
    part = np.empty(shape)
    group = np.empty(shape, dtype=np.uint64)
    tmp = np.empty(shape, dtype=np.uint64)
    acc = np.zeros(shape, dtype=np.uint64)
    m = np.uint64(MERSENNE61)
    for s in range(2 * count - 2, -1, -1):
        first = max(0, s - count + 1)
        for i in range(first, min(s, count - 1) + 1):
            partial(i, s - i, part)
            if i == first:
                np.copyto(group, part, casting="unsafe")
            else:
                np.copyto(tmp, part, casting="unsafe")
                group += tmp
        if p == MERSENNE61:
            # times 2^(21 s) mod 2^61 - 1 is a 61-bit rotation left; the
            # five rotated groups, each below 2^61, sum below 2^64
            r = _LIMB_BITS * s % 61
            np.left_shift(group, np.uint64(r), out=tmp)
            tmp &= m
            group >>= np.uint64(61 - r)
            tmp |= group
            acc += tmp
        else:                                   # Horner's rule, below 2^56
            acc <<= np.uint64(_LIMB_BITS)
            acc += group
            acc %= np.uint64(p)
    if p == MERSENNE61:
        for _ in range(2):
            np.right_shift(acc, np.uint64(61), out=tmp)
            acc &= m
            acc += tmp
        np.add(acc, np.uint64(1), out=tmp)      # acc <= p now; map p to 0
        tmp >>= np.uint64(61)
        acc += tmp
        acc &= m
    return acc


def _mat_mul_limbs(af, bf, p):
    """Exact (A @ B) mod p from limb stacks (L, ..., n, K) and (L, ..., K, m).

    K <= 2048, and leading axes broadcast as in np.matmul.
    """
    lead = np.broadcast_shapes(af.shape[1:-2], bf.shape[1:-2])
    shape = lead + (af.shape[-2], bf.shape[-1])
    return _fold_limbs(
        lambda i, j, out: np.matmul(af[i], bf[j], out=out), shape, af.shape[0], p
    )


def _mat_mul_chunked(af, bf, p):
    """_mat_mul_limbs over any contraction length, in chunks of 2048."""
    k = af.shape[-1]
    if k == 0:
        lead = np.broadcast_shapes(af.shape[1:-2], bf.shape[1:-2])
        return np.zeros(lead + (af.shape[-2], bf.shape[-1]), dtype=np.uint64)
    out = None
    for lo in range(0, k, _CHUNK):
        hi = lo + _CHUNK
        part = _mat_mul_limbs(af[..., lo:hi], bf[..., lo:hi, :], p)
        out = part if out is None else add_mod(out, part, p)
    return out


def _toeplitz(b):
    """The Toeplitz form of b's polynomials, as a strided view.

    b: (..., D+1) -> (..., D+1, D+1), where entry [s, d] is the
    coefficient of degree d - s, zero when d < s: a row vector of
    coefficients times it is the truncated product with b.
    """
    dp1 = b.shape[-1]
    pad = np.zeros(b.shape[:-1] + (2 * dp1 - 1,), dtype=np.uint64)
    pad[..., dp1 - 1 :] = b                     # pad[..., D + t] = b[..., t]
    win = sliding_window_view(pad, dp1, axis=-1)
    return win[..., ::-1, :]                    # [s, d] = pad[..., D - s + d]


def mat_mul_mod(a, b, p, a_limbs=None):
    """Exact (a @ b) mod p for 2-D uint64 arrays with entries < p.

    a_limbs, when given, is a's limb stack from _limbs_f64, split once
    by a caller that multiplies a by several matrices.
    """
    count = _limb_count(p)
    if a_limbs is None:
        a_limbs = _limbs_f64(a, count)
    return _mat_mul_chunked(a_limbs, _limbs_f64(b, count), p)


def mat_powers(r, k, p):
    """r^0, ..., r^k mod p for a square uint64 r and k >= 1, stacked along a
    last axis.

    k - 1 chained products r r^(i-1); r is split into limbs once for all.
    """
    n = r.shape[0]
    out = np.zeros((n, n, k + 1), dtype=np.uint64)
    out[np.arange(n), np.arange(n), 0] = 1
    r_limbs = _limbs_f64(r, _limb_count(p))
    power = out[:, :, 1] = r
    for i in range(2, k + 1):
        power = out[:, :, i] = mat_mul_mod(r, power, p, r_limbs)
    return out


def conv_trunc(a, b, p):
    """Truncated convolution along the last axis (broadcasting leads)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if b.shape[-1] != a.shape[-1]:
        raise ValueError("degree bounds differ")
    count = _limb_count(p)
    row = _limbs_f64(a, count)[..., None, :]    # (L, ..., 1, D+1)
    return _mat_mul_chunked(row, _limbs_f64(_toeplitz(b), count), p)[..., 0, :]


def _fits_one_block(n, k, m, dp1):
    """Whether poly_mat_mul of (n, k, dp1) by (k, m, dp1) is one Toeplitz block.

    After the transpose that makes n >= m, a block of outer entries
    keeps its Toeplitz rows and its n output rows, each times its D+1
    columns, within _EXPAND_BUDGET entries; one outer entry always fits.
    """
    n, m = max(n, m), min(n, m)
    return m <= max(1, _EXPAND_BUDGET // (max(k * dp1, n) * dp1))


def poly_mat_mul(a, b, p):
    """Truncated-polynomial matrix product.

    a: (n, K, D+1), b: (K, m, D+1) -> (n, m, D+1), where
    out[x, y, d] = sum_k sum_(t <= d) a[x, k, t] * b[k, y, d - t].
    A product that fits in one Toeplitz block (_fits_one_block) is one
    mat_mul_mod of a, flattened to columns (k, s), against b in
    block-Toeplitz form, or of b's transpose against a's when n < m.
    A larger one is contracted degree by degree (_poly_mat_mul_by_degree),
    with no Toeplitz zeros.
    """
    n, k, dp1 = a.shape
    m = b.shape[1]
    if b.shape[0] != k or b.shape[2] != dp1:
        raise ValueError("shape mismatch")
    if n < m:
        # the ring is commutative, so a b = (b^T a^T)^T: expand a instead
        out = poly_mat_mul(b.transpose(1, 0, 2), a.transpose(1, 0, 2), p)
        return np.ascontiguousarray(out.transpose(1, 0, 2))
    if m == 0:
        return np.empty((n, m, dp1), dtype=np.uint64)
    if not _fits_one_block(n, k, m, dp1):
        return _poly_mat_mul_by_degree(a, b, p)
    block = _toeplitz(b).transpose(0, 2, 1, 3).reshape(k * dp1, m * dp1)  # (k, s) x (y, d)
    return mat_mul_mod(a.reshape(n, k * dp1), block, p).reshape(n, m, dp1)


def _poly_mat_mul_by_degree(a, b, p):
    """poly_mat_mul as one contraction per output degree, for n >= m >= 1.

    a's limbs have columns (t, k), degree first, and b's limbs rows
    (D - t, k), degrees reversed, so output degree d is a column prefix
    of a, of length (d + 1) K, against a row suffix of b: slices, with
    no copy and no Toeplitz zero.  The limb partials are folded over
    blocks of whole output degrees, g n m <= max(_EXPAND_BUDGET, n m)
    entries each; a contraction longer than _CHUNK is folded in chunks.
    """
    n, k, dp1 = a.shape
    m = b.shape[1]
    count = _limb_count(p)
    af = _limbs_f64(a.transpose(0, 2, 1), count).reshape(count, n, dp1 * k)
    bf = _limbs_f64(b[:, :, ::-1].transpose(2, 0, 1), count).reshape(count, dp1 * k, m)
    out = np.zeros((n, m, dp1), dtype=np.uint64)
    g = max(1, _EXPAND_BUDGET // (n * m))               # output degrees per fold
    for lo_d in range(0, dp1, g):
        hi_d = min(lo_d + g, dp1)
        for lo in range(0, hi_d * k, _CHUNK):
            first = max(lo_d, lo // k)                  # degrees whose contraction passes lo

            def partial(i, j, part):
                for slot, d in enumerate(range(first, hi_d)):
                    hi = min(lo + _CHUNK, (d + 1) * k)
                    off = (dp1 - 1 - d) * k             # b's degree d - t sits at row off + (t, k)
                    np.matmul(af[i, :, lo:hi], bf[j, off + lo : off + hi], out=part[slot])

            acc = _fold_limbs(partial, (hi_d - first, n, m), count, p).transpose(1, 2, 0)
            if lo:
                acc = add_mod(out[:, :, first:hi_d], acc, p)
            out[:, :, first:hi_d] = acc
    return out


def min_degree_arr(a):
    """Least nonzero coefficient index along the last axis; D+1 if zero."""
    a = np.asarray(a)
    nz = a != 0
    first = np.argmax(nz, axis=-1).astype(np.int64)
    return np.where(nz.any(axis=-1), first, a.shape[-1])


# ---- deterministic seed splitting -----------------------------------------

_SM64_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _SM64_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _SM64_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _SM64_MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Counter-based seed splitting: fold indices into a 64-bit stream key."""
    x = seed & _SM64_MASK
    for idx in indices:
        x = splitmix64(x ^ (idx & _SM64_MASK))
    return x


def rand_unit(p: int, seed: int, *indices: int) -> int:
    """Deterministic nonzero field element keyed by (seed, indices)."""
    x = derive_seed(seed, *indices)
    # rejection-free enough: bias from the modulo is negligible for our p,
    # but re-hash until nonzero so edge coefficients never vanish
    while True:
        v = x % p
        if v != 0:
            return v
        x = splitmix64(x)
