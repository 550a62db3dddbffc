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
row vector of a's coefficients times it is a b mod u^(D+1).  It is one
gather from b padded with D zeros, through an index cached per D.  So
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
inverse's reset T(I+N), the exact APSP's H x H read) is contracted
degree by degree.  a's limbs are laid out with rows (t, k), degree
first, and b's with rows (D - t, k), degrees reversed, each split once
per call.  Output degree d is then a row prefix of a, of length
(d + 1) K and multiplied transposed, against a row suffix of b:
contiguous slices, so nothing is copied and no Toeplitz zero is
multiplied.  The limb products are folded over blocks of whole output
degrees; each block re-forms the limb sums over the rows of a and b
that it reads, in the one sum slot of each operand.  A contraction
longer than _CHUNK is folded chunk by chunk and the chunks added mod p.

Accumulating form.  poly_mat_mul_add(c, a, b, p) sets c <- c + a b mod
p in place, and poly_mat_mul is that form on zeros.  c may be a strided
view, so the inverse adds its reset into T itself and its reads into
the block of T it gathers.  Each fold block is added into c as soon as
it is folded, so no array of c's size is ever allocated.

Scratch.  The limb stacks, the fold's float slots and the folded block
live in per-thread buffers (_Scratch) that grow to the largest call and
are reused by every later one.  Allocated per call, they cost more
than their size: glibc serves blocks this large with mmap unless a
larger block was freed before, and with the reset in place no T-sized
array is ever freed, so every call mapped them afresh and faulted its
pages in (314 minor faults per apsp-ring update on average, against 5
with the scratch kept).

Entry budget.  A Toeplitz block of g outer entries has K (D+1) rows
and g (D+1) columns, and its output n g (D+1) entries; b fits in one
block when both stay within _EXPAND_BUDGET entries for g = m, or when
m = 1.  The degree-major path keeps the limbs of both operands and one
sum slot each, four times their size, and folds g output degrees at a
time, with g n m <= max(_EXPAND_BUDGET, n m) entries in each of its six
fold buffers (five float slots and the folded block).  So the scratch
one call needs is a few times the operands plus one fold block, and
does not grow with c or with a Toeplitz expansion.
"""
from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

MERSENNE61 = (1 << 61) - 1

_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_CHUNK = 341  # max contraction length: keeps every limb group below 2^52
_TWO52 = float(1 << 52)
_LOW52 = np.uint64((1 << 52) - 1)
_ROT_LEFT = np.array([_LIMB_BITS, 2 * _LIMB_BITS], dtype=np.uint64)
_ROT_RIGHT = np.uint64(61) - _ROT_LEFT
_EXPAND_BUDGET = 1 << 14  # entries of one Toeplitz block, or of one degree-major fold


class _Scratch(threading.local):
    """The products' working buffers, one per role, kept from call to call
    in each thread.

    take(role, shape) returns the leading entries of the role's buffer in
    that shape, growing it first when it is too small; it never shrinks.
    Each product takes a role at most once, overwrites what it takes
    before reading it and returns nothing that lies in it, so no value
    passes from one call to the next.  The roles are "a" and "b" for the
    operands' limb stacks, "part" for the fold's float slots, and "acc",
    "chunk" and "flip" (uint64) for folded results that are added
    elsewhere.
    """

    def __init__(self) -> None:
        self.bufs: dict[str, np.ndarray] = {}

    def take(self, role: str, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        if role not in self.bufs or self.bufs[role].size < size:
            self.bufs.pop(role, None)           # free the old buffer before the new one
            self.bufs[role] = np.empty(size, dtype)
        return self.bufs[role][:size].reshape(shape)


_scratch = _Scratch()


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


def _limbs_f64(a, count: int, role: str):
    """Split uint64 entries (< p) into `count` 21-bit limbs as float64.

    Returns (count + 1,) + a.shape in the scratch role's buffer: the
    limbs, then one slot for limb sums.  With two limbs the slot holds
    a0 + a1; with three it is scratch, which _fold fills with one pair's
    sum at a time.  a may be any strided view; the stack is contiguous.
    """
    out = _scratch.take(role, (count + 1,) + a.shape)
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


def _fold_part(shape, count):
    """_fold's float slots for outputs of shape, from the scratch."""
    return _scratch.take("part", (3 if count == 2 else 5,) + shape)


def _fold(mul, add_sums, part, acc, p):
    """Exact sum_(i,j) a_i b_j 2^(21 (i + j)) mod p, written into acc.

    part comes from _fold_part (or is a view of the same leading entries
    of it), and acc has the output's shape; any strided view will do.
    mul(s, out) writes the float64 products of the operands' limb slots
    s (an index or a slice of their stacks) into out; add_sums(i, j)
    fills both operands' sum slot with limbs i + j.  Two limbs take the products P00, P11 and
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


def _mat_mul_chunked(af, bf, p, out=None):
    """Exact (A @ B) mod p from limb stacks (L + 1, ..., n, K) and
    (L + 1, ..., K, m), in contraction chunks of _CHUNK.

    Leading axes broadcast as in np.matmul.  The result is written into
    out, a new array when None.  With three limbs, both stacks' sum
    slots are overwritten.
    """
    lead = np.broadcast_shapes(af.shape[1:-2], bf.shape[1:-2])
    shape = lead + (af.shape[-2], bf.shape[-1])
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    k = af.shape[-1]
    if k == 0:
        out[...] = 0
        return out
    part = _fold_part(shape, af.shape[0] - 1)
    chunk = _scratch.take("chunk", shape, np.uint64) if k > _CHUNK else None
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


@lru_cache(maxsize=32)
def _toeplitz_index(dp1):
    """idx[s, d] = D - s + d, read-only: the gather index of _toeplitz."""
    s = np.arange(dp1)
    idx = (dp1 - 1) - s[:, None] + s
    idx.flags.writeable = False
    return idx


def _toeplitz(b):
    """The Toeplitz form of b's polynomials.

    b: (..., D+1) -> (..., D+1, D+1), where entry [s, d] is the
    coefficient of degree d - s, zero when d < s: a row vector of
    coefficients times it is the truncated product with b.  One gather
    from b padded with D zeros in front.
    """
    dp1 = b.shape[-1]
    pad = np.zeros(b.shape[:-1] + (2 * dp1 - 1,), dtype=np.uint64)
    pad[..., dp1 - 1 :] = b                     # pad[..., D + t] = b[..., t]
    return pad[..., _toeplitz_index(dp1)]


def mat_mul_mod(a, b, p, a_limbs=None, out=None):
    """Exact (a @ b) mod p for 2-D uint64 arrays with entries < p.

    a_limbs, when given, is a's limb stack from _limbs_f64, split once
    by a caller that multiplies a by several matrices.  out, when given,
    receives the product and may be any strided view; else it is new.
    """
    count = _limb_count(p)
    if a_limbs is None:
        a_limbs = _limbs_f64(a, count, "a")
    return _mat_mul_chunked(a_limbs, _limbs_f64(b, count, "b"), p, out)


def mat_powers(r, k, p):
    """r^0, ..., r^k mod p for a square uint64 r and k >= 1, stacked along a
    last axis.

    k - 1 chained products r r^(i-1), each folded straight into its slot
    of the result; r is split into limbs once for all.
    """
    n = r.shape[0]
    count = _limb_count(p)
    out = np.zeros((n, n, k + 1), dtype=np.uint64)
    out[np.arange(n), np.arange(n), 0] = 1
    out[:, :, 1] = r
    r_limbs = _limbs_f64(r, count, "a")
    for i in range(2, k + 1):
        mat_mul_mod(r, out[:, :, i - 1], p, r_limbs, out[:, :, i])
    return out


def conv_trunc(a, b, p):
    """Truncated convolution along the last axis (broadcasting leads)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if b.shape[-1] != a.shape[-1]:
        raise ValueError("degree bounds differ")
    count = _limb_count(p)
    row = _limbs_f64(a, count, "a")[..., None, :]    # (L, ..., 1, D+1)
    return _mat_mul_chunked(row, _limbs_f64(_toeplitz(b), count, "b"), p)[..., 0, :]


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
    out[x, y, d] = sum_k sum_(t <= d) a[x, k, t] * b[k, y, d - t]:
    poly_mat_mul_add into zeros.
    """
    out = np.zeros((a.shape[0], b.shape[1], a.shape[2]), dtype=np.uint64)
    return poly_mat_mul_add(out, a, b, p)


def poly_mat_mul_add(c, a, b, p):
    """c <- (c + a b) mod p in place, for a: (n, K, D+1), b: (K, m, D+1) and
    c: (n, m, D+1), all with entries < p; returns c.

    c may be any strided view, and must share no memory with a or b.  A
    product that fits in one Toeplitz block (_fits_one_block) is one
    modular matmul (_poly_mat_mul_one_block); a larger one is contracted
    degree by degree (_poly_mat_mul_by_degree), with no Toeplitz zeros.
    Either way the folded result is added into c block by block, so no
    array of c's size is allocated.
    """
    n, k, dp1 = a.shape
    m = b.shape[1]
    if b.shape[0] != k or b.shape[2] != dp1 or c.shape != (n, m, dp1):
        raise ValueError("shape mismatch")
    if n and m and k:
        if _fits_one_block(n, k, m, dp1):
            _poly_mat_mul_one_block(c, a, b, p)
        else:
            _poly_mat_mul_by_degree(c, a, b, p)
    return c


def _poly_mat_mul_one_block(c, a, b, p):
    """c <- c + a b as one modular matmul of a, flattened to columns
    (k, s), against b in block-Toeplitz form, or of b's transpose against
    a's when n < m, so that the operand with fewer outer entries is the
    one expanded."""
    n, k, dp1 = a.shape
    m = b.shape[1]
    flip = n < m
    if flip:
        # the ring is commutative, so a b = (b^T a^T)^T: expand a instead
        a, b, n, m = b.transpose(1, 0, 2), a.transpose(1, 0, 2), m, n
    block = _toeplitz(b).transpose(0, 2, 1, 3).reshape(k * dp1, m * dp1)  # (k, s) x (y, d)
    acc = _scratch.take("acc", (n, m * dp1), np.uint64)
    mat_mul_mod(a.reshape(n, k * dp1), block, p, out=acc)
    acc = acc.reshape(n, m, dp1)
    if flip:
        # one copy into c's order: numpy buffers every pass over mixed layouts
        flipped = _scratch.take("flip", (m, n, dp1), np.uint64)
        np.copyto(flipped, acc.transpose(1, 0, 2))
        acc = flipped
    _add_mod_into(c, acc, p)


def _poly_mat_mul_by_degree(c, a, b, p):
    """c <- c + a b as one contraction per output degree, for n, m >= 1.

    a's limbs have rows (t, k), degree first, and b's limbs rows
    (D - t, k), degrees reversed, so output degree d is a row prefix of
    a, of length (d + 1) K and multiplied transposed, against a row
    suffix of b: contiguous slices, with no copy and no Toeplitz zero.
    The limb partials are folded over blocks of whole output degrees,
    g n m <= max(_EXPAND_BUDGET, n m) entries each, and each block is
    added into c's degrees at once; a contraction longer than _CHUNK is
    folded in chunks.
    """
    n, k, dp1 = a.shape
    m = b.shape[1]
    count = _limb_count(p)
    af = _limbs_f64(a.transpose(2, 1, 0), count, "a").reshape(count + 1, dp1 * k, n)
    bf = _limbs_f64(b[:, :, ::-1].transpose(2, 0, 1), count, "b").reshape(count + 1, dp1 * k, m)
    g = min(dp1, max(1, _EXPAND_BUDGET // (n * m)))     # output degrees per fold
    part = _fold_part((g, n, m), count)
    acc = _scratch.take("acc", (g, n, m), np.uint64)
    for lo_d in range(0, dp1, g):
        hi_d = min(lo_d + g, dp1)
        for lo in range(0, hi_d * k, _CHUNK):
            first = max(lo_d, lo // k)                  # degrees whose contraction passes lo
            # the rows of a, and of b, that these degrees read
            a_rows = slice(lo, min(lo + _CHUNK, hi_d * k))
            b_rows = slice((dp1 - hi_d) * k + lo, min((dp1 - 1 - first) * k + lo + _CHUNK, dp1 * k))

            def mul(s, o):
                for slot, d in enumerate(range(first, hi_d)):
                    hi = min(lo + _CHUNK, (d + 1) * k)
                    off = (dp1 - 1 - d) * k             # b's degree d - t sits at row off + (t, k)
                    a_t = af[s, lo:hi].swapaxes(-1, -2)
                    np.matmul(a_t, bf[s, off + lo : off + hi], out=o[..., slot, :, :])

            def add_sums(i, j):
                np.add(af[i, a_rows], af[j, a_rows], out=af[-1, a_rows])
                np.add(bf[i, b_rows], bf[j, b_rows], out=bf[-1, b_rows])

            size = hi_d - first
            _fold(mul, add_sums, part[:, :size], acc[:size], p)
            # degree-major on both sides: mixed layouts would make numpy buffer
            _add_mod_into(c[:, :, first:hi_d].transpose(2, 0, 1), acc[:size], p)


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
