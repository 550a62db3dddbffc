"""Vectorized modular arithmetic on numpy uint64 arrays.

Everything in this file operates on arrays whose entries are already
reduced modulo a prime p.  Two primes are supported:

* the default Mersenne prime 2^61 - 1, where products are reduced with
  shift/mask folding (2^61 = 1 mod p), and
* any prime below 2^31, where a 64-bit product cannot overflow and a
  plain ``%`` suffices.

Exact matrix products run on float64 BLAS.  Each entry is split into
21-bit limbs: three for 2^61 - 1, the top one below 2^19 since entries
are below p, and two for primes below 2^31, the second below 2^10.

Karatsuba limb products.  With X = 2^21, a = a0 + a1 X + a2 X^2 and
likewise b, the product A B is sum_(i,j) P_ij X^(i+j) over the limb
products P_ij = A_i B_j.  Karatsuba and Ofman's trick takes six float
matmuls instead of nine: P00, P11, P22 and Q_ij = (A_i + A_j)(B_i + B_j)
for the pairs 01, 02 and 12, as P_ij + P_ji = Q_ij - P_ii - P_jj.
Since X^3 = 2^63 = 4 and X^4 = 4 X mod 2^61 - 1, three groups remain,
computed in float in this order:

    G0 = P00 + 4 (Q12 - P22 - P11),
    G1 = 4 P22 - P00 - P11 + Q01,
    G2 = Q02 - P22 - P00 + P11,

and the product is G0 + G1 X + G2 X^2 mod p.  Below 2^31 the three
products P00, P11 and Q01 give P00, P01 + P10 = Q01 - P00 - P11 and
P11, each below K 2^43, combined by Horner's rule with ``%``.

Bounds.  A limb sum is below 2^22, so every product term is below 2^44.
A contraction of K <= _CHUNK = 341 terms keeps every float sum below
K 2^44 < 2^53, so each product is exact; longer contractions are
chunked and the chunks added mod p.  As the top limb is below 2^19,
G0 < 3 K 2^42, G1 < K (2^43 + 2^40) and G2 < K (2^42 + 2^41), so every
group is below 1023 * 2^42 < 2^52, and every value met on the way is
an integer below 2^53 in magnitude, so exact.  A group plus 2^52 holds
the group in its 52 mantissa bits, which makes the conversion to
uint64 one vector add and one mask, where a float-to-integer cast is a
scalar loop.  For 2^61 - 1, multiplying a value below 2^61 by 2^r is a
rotation of its 61 bits left by r, so G0 + rot21(G1) + rot42(G2) is
below 2^52 + 2p; one fold of the bits above 2^61 leaves it below 2p,
and one conditional subtraction of p leaves the canonical residue.

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
no Toeplitz zero is multiplied.  The limb products are folded over
blocks of whole output degrees; each block re-forms the limb sums over
the columns of a and rows of b that it reads, in the one sum slot of
each operand.  A contraction longer than _CHUNK is folded chunk by
chunk and the chunks added mod p.

Entry budget.  A Toeplitz block of g outer entries has K (D+1) rows
and g (D+1) columns, and its output n g (D+1) entries; b fits in one
block when both stay within _EXPAND_BUDGET entries for g = m, or when
m = 1.  The degree-major path keeps the limbs of both operands and one
sum slot each, four times their size, and folds g output degrees at a
time, with g n m <= max(_EXPAND_BUDGET, n m) entries in each of its six
fold buffers (five float slots and the result), allocated once per
call.  So the extra memory of one call is a few times the operands and
the output, and does not grow with a Toeplitz expansion.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MERSENNE61 = (1 << 61) - 1

_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_CHUNK = 341  # max contraction length: keeps every limb group below 2^52
_TWO52 = float(1 << 52)
_LOW52 = np.uint64((1 << 52) - 1)
_ROT_LEFT = np.array([_LIMB_BITS, 2 * _LIMB_BITS], dtype=np.uint64)
_ROT_RIGHT = np.uint64(61) - _ROT_LEFT
_EXPAND_BUDGET = 1 << 14  # entries of one Toeplitz block, or of one degree-major fold


def supported_prime(p: int) -> bool:
    return p == MERSENNE61 or 1 < p < (1 << 31)


def add_mod(a, b, p):
    s = np.add(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    return np.minimum(s, s - np.uint64(p))      # s - p wraps above s when s < p


def sub_mod(a, b, p):
    d = np.subtract(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    return np.minimum(d, d + np.uint64(p))      # d + p wraps below d when a < b


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
    """Split uint64 entries (< p) into `count` 21-bit limbs as float64.

    Returns (count + 1,) + a.shape: the limbs, then one slot for limb
    sums.  With two limbs the slot holds a0 + a1; with three it is
    scratch, which _fold fills with one pair's sum at a time.
    """
    out = np.empty((count + 1,) + a.shape)
    limb = out[count].view(np.uint64)           # the sum slot, until the sums
    for i in range(count):
        np.right_shift(a, np.uint64(_LIMB_BITS * i), out=limb)
        if i + 1 < count:
            limb &= np.uint64(_LIMB_MASK)
        out[i] = limb
    if count == 2:
        np.add(out[0], out[1], out=out[2])
    return out


def _as_uint64(x):
    """float64 integers in [0, 2^52) as uint64, in place.

    x + 2^52 lies in [2^52, 2^53), where float64 steps by 1, so it is
    exact and its 52 mantissa bits are x: two vector passes, where a
    float-to-integer cast is a scalar loop.
    """
    x += _TWO52
    out = x.view(np.uint64)
    out &= _LOW52
    return out


def _fold_buffers(shape, count):
    """_fold's float slots and its uint64 result, for outputs of shape."""
    return np.empty((3 if count == 2 else 5,) + shape), np.empty(shape, dtype=np.uint64)


def _fold(mul, add_sums, part, acc, p):
    """Exact sum_(i,j) a_i b_j 2^(21 (i + j)) mod p, written into acc.

    part and acc come from _fold_buffers (or are views of the same
    leading entries of them).  mul(s, out) writes the float64 products
    of the operands' limb slots s (an index or a slice of their stacks)
    into out; add_sums(i, j) fills both operands' sum slot with limbs
    i + j.  Two limbs take the products P00, P11 and
    Q01 = (a0 + a1)(b0 + b1), combined by Horner's rule.  Three limbs
    take P00, P11, P22 and the Q of each pair, wrapped into the groups
    G0, G1, G2 of shifts 0, 21 and 42 in float, then converted, rotated
    and folded once (see the module docstring).
    """
    if len(part) == 3:
        mul(slice(0, 3), part)
        part[2] -= part[0]
        part[2] -= part[1]                      # P01 + P10
        limbs = _as_uint64(part)
        q = np.uint64(p)
        np.remainder(limbs[1], q, out=acc)
        for i in (2, 0):                        # Horner's rule, below 2^53
            acc <<= np.uint64(_LIMB_BITS)
            acc += limbs[i]
            acc %= q
        return
    # slots: P00, P11, P22, then G0 and G2; slot 2 becomes G1, so the
    # groups end as the stack [G1, G0, G2] of shifts 21, 0 and 42
    mul(slice(0, 3), part[:3])
    for slot, (i, j) in ((3, (1, 2)), (4, (0, 2))):
        add_sums(i, j)
        mul(3, part[slot])                      # Q12, then Q02
    part[3:] -= part[2]
    part[3] -= part[1]
    part[3] *= 4
    part[3] += part[0]                          # G0 = P00 + 4 (P12 + P21)
    part[4] -= part[0]
    part[4] += part[1]                          # G2 = P02 + P20 + P11
    part[2] *= 4
    part[2] -= part[0]
    part[2] -= part[1]
    add_sums(0, 1)
    mul(3, part[0])                             # Q01
    part[2] += part[0]                          # G1 = P01 + P10 + 4 P22
    groups = _as_uint64(part[2:])
    m = np.uint64(MERSENNE61)
    # times 2^21 and 2^42 mod 2^61 - 1: rotations of 61 bits left
    rot = groups[::2]
    tmp = part[:2].view(np.uint64)
    axes = (2,) + (1,) * (part.ndim - 1)
    np.left_shift(rot, _ROT_LEFT.reshape(axes), out=tmp)
    tmp &= m
    rot >>= _ROT_RIGHT.reshape(axes)
    tmp |= rot
    np.add(groups[1], tmp[0], out=acc)
    acc += tmp[1]                               # below 2^52 + 2 p
    tmp = tmp[0]
    np.right_shift(acc, np.uint64(61), out=tmp)
    acc &= m
    acc += tmp                                  # below 2 p
    np.add(acc, np.uint64(1), out=tmp)          # acc - p when acc >= p
    tmp >>= np.uint64(61)
    acc += tmp
    acc &= m


def _add_mod_into(x, y, p):
    """x <- (x + y) mod p in place; y is overwritten."""
    x += y
    np.subtract(x, np.uint64(p), out=y)
    np.minimum(x, y, out=x)


def _mat_mul_chunked(af, bf, p):
    """Exact (A @ B) mod p from limb stacks (L + 1, ..., n, K) and
    (L + 1, ..., K, m), in contraction chunks of _CHUNK.

    Leading axes broadcast as in np.matmul.  With three limbs, both
    stacks' sum slots are overwritten.
    """
    lead = np.broadcast_shapes(af.shape[1:-2], bf.shape[1:-2])
    shape = lead + (af.shape[-2], bf.shape[-1])
    k = af.shape[-1]
    if k == 0:
        return np.zeros(shape, dtype=np.uint64)
    part, out = _fold_buffers(shape, af.shape[0] - 1)
    chunk = np.empty_like(out) if k > _CHUNK else None
    for lo in range(0, k, _CHUNK):
        a, b = af[..., lo : lo + _CHUNK], bf[..., lo : lo + _CHUNK, :]

        def add_sums(i, j):
            np.add(a[i], a[j], out=a[-1])
            np.add(b[i], b[j], out=b[-1])

        def mul(s, o):
            np.matmul(a[s], b[s], out=o)

        _fold(mul, add_sums, part, chunk if lo else out, p)
        if lo:
            _add_mod_into(out, chunk, p)
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
    af = _limbs_f64(a.transpose(0, 2, 1), count).reshape(count + 1, n, dp1 * k)
    bf = _limbs_f64(b[:, :, ::-1].transpose(2, 0, 1), count).reshape(count + 1, dp1 * k, m)
    out = np.zeros((n, m, dp1), dtype=np.uint64)
    g = max(1, _EXPAND_BUDGET // (n * m))               # output degrees per fold
    part, acc = _fold_buffers((min(g, dp1), n, m), count)
    for lo_d in range(0, dp1, g):
        hi_d = min(lo_d + g, dp1)
        for lo in range(0, hi_d * k, _CHUNK):
            first = max(lo_d, lo // k)                  # degrees whose contraction passes lo
            # the columns of a, and the rows of b, that these degrees read
            a_cols = slice(lo, min(lo + _CHUNK, hi_d * k))
            b_rows = slice((dp1 - hi_d) * k + lo, min((dp1 - 1 - first) * k + lo + _CHUNK, dp1 * k))

            def mul(s, o):
                for slot, d in enumerate(range(first, hi_d)):
                    hi = min(lo + _CHUNK, (d + 1) * k)
                    off = (dp1 - 1 - d) * k             # b's degree d - t sits at row off + (t, k)
                    np.matmul(af[s, :, lo:hi], bf[s, off + lo : off + hi], out=o[..., slot, :, :])

            def add_sums(i, j):
                np.add(af[i, :, a_cols], af[j, :, a_cols], out=af[-1, :, a_cols])
                np.add(bf[i, b_rows], bf[j, b_rows], out=bf[-1, b_rows])

            size = hi_d - first
            _fold(mul, add_sums, part[:, :size], acc[:size], p)
            degrees = acc[:size].transpose(1, 2, 0)
            if lo:
                _add_mod_into(out[:, :, first:hi_d], degrees, p)
            else:
                out[:, :, first:hi_d] = degrees
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
