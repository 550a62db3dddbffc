"""Arithmetic in F_p and the truncated polynomial ring F_p[u]/<u^(D+1)>.

A TruncPoly is a dense coefficient vector of length D+1; the degree of
its lowest nonzero term is what the rest of the library cares about,
because that degree encodes a hop distance.  Values are immutable.
Products and inverses of single elements run on exact Python ints: at
these lengths a BLAS limb product is all call overhead.

The default modulus is the Mersenne prime 2^61 - 1.  Small primes
(below 2^31) are accepted for stress tests; other moduli are rejected
because the vectorized kernels cannot reduce their products exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import (
    MERSENNE61,
    add_mod,
    mul_mod,
    neg_mod,
    sub_mod,
    supported_prime,
)

DEFAULT_PRIME = MERSENNE61


class ParamMismatch(ValueError):
    """Operands disagree on modulus or degree bound."""


class NonUnit(ValueError):
    """Inversion of an element with zero constant coefficient."""


def _is_prime(m: int) -> bool:
    # deterministic Miller-Rabin, valid for all 64-bit integers
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Prime modulus plus the master seed all randomness derives from."""

    p: int = DEFAULT_PRIME
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not supported_prime(self.p):
            raise ValueError(
                f"modulus {self.p} not supported (need 2^61-1 or a prime < 2^31)"
            )
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


class TruncPoly:
    """Element of F_p[u]/<u^(D+1)>; coeffs[d] is the coefficient of u^d."""

    __slots__ = ("p", "_c")

    def __init__(self, p: int, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=np.uint64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient vector must be 1-D and nonempty")
        self.p = p
        self._c = arr % np.uint64(p)
        self._c.flags.writeable = False

    @classmethod
    def constant(cls, p: int, value: int, D: int) -> "TruncPoly":
        c = np.zeros(D + 1, dtype=np.uint64)
        c[0] = value % p
        return cls(p, c)

    @classmethod
    def zero(cls, p: int, D: int) -> "TruncPoly":
        return cls(p, np.zeros(D + 1, dtype=np.uint64))

    @property
    def D(self) -> int:
        return self._c.size - 1

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self.p == other.p and np.array_equal(self._c, other._c)

    def __hash__(self) -> int:
        return hash((self.p, self._c.tobytes()))

    def __repr__(self) -> str:
        terms = [f"{int(c)}*u^{d}" for d, c in enumerate(self._c) if c]
        return f"TruncPoly({' + '.join(terms) or '0'} mod u^{self.D + 1}, p={self.p})"

    def is_zero(self) -> bool:
        return not self._c.any()

    # operator sugar over the module-level functions
    def __add__(self, other):
        return poly_add(self, other)

    def __sub__(self, other):
        return poly_sub(self, other)

    def __mul__(self, other):
        if isinstance(other, int):
            return poly_scale(other, self)
        return poly_mul(self, other)

    __rmul__ = __mul__


def _check(a: TruncPoly, b: TruncPoly) -> None:
    if a.p != b.p or a.D != b.D:
        raise ParamMismatch(f"(p={a.p}, D={a.D}) vs (p={b.p}, D={b.D})")


def poly_add(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    _check(a, b)
    return TruncPoly(a.p, add_mod(a.coeffs, b.coeffs, a.p))


def poly_sub(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    _check(a, b)
    return TruncPoly(a.p, sub_mod(a.coeffs, b.coeffs, a.p))


def poly_scale(s: int, a: TruncPoly) -> TruncPoly:
    return TruncPoly(a.p, mul_mod(a.coeffs, np.uint64(s % a.p), a.p))


def poly_neg(a: TruncPoly) -> TruncPoly:
    return TruncPoly(a.p, neg_mod(a.coeffs, a.p))


def poly_mul(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """Schoolbook truncated product on exact Python ints."""
    _check(a, b)
    p, x, y = a.p, a.coeffs.tolist(), b.coeffs.tolist()
    out = [0] * len(x)
    for s, xs in enumerate(x):
        if xs:
            for t in range(len(x) - s):
                out[s + t] += xs * y[t]
    return TruncPoly(p, [c % p for c in out])


def poly_inv(a: TruncPoly) -> TruncPoly:
    """Multiplicative inverse on exact Python ints, degree by degree.

    From a x = 1: x_0 = a_0^-1 and x_d = -a_0^-1 sum_(t=1..d) a_t x_(d-t).
    """
    p, c = a.p, a.coeffs.tolist()
    if c[0] == 0:
        raise NonUnit("constant coefficient is zero")
    inv0 = pow(c[0], p - 2, p)
    x = [inv0]
    for d in range(1, len(c)):
        x.append(-sum(c[t] * x[d - t] for t in range(1, d + 1)) * inv0 % p)
    return TruncPoly(p, x)

