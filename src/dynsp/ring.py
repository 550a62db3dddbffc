"""The field F_p, and the inverse of a small matrix over F_p[u]/<u^(D+1)>.

A truncated polynomial is a coefficient array whose last axis holds
the D+1 coefficients; the degree of an entry's lowest nonzero term is
what the rest of the library cares about, because that degree encodes
a hop distance.  poly_inv inverts the k x k capacitance matrix of a
rank-k update (k = 1 or 2) as one matrix power series on exact Python
ints: at these sizes a BLAS limb product is all call overhead.

The default modulus is the Mersenne prime 2^61 - 1.  Small primes
(below 2^31) are accepted for stress tests; other moduli are rejected
because the vectorized kernels cannot reduce their products exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from ._kernels import MERSENNE61, supported_prime

DEFAULT_PRIME = MERSENNE61


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


def poly_inv(C: np.ndarray, p: int) -> np.ndarray:
    """C^-1 for a (k, k, D+1) coefficient array whose constant term is I.

    From C X = I, degree by degree: X_0 = I and
    X_d = -sum_(t=1..d) C_t X_(d-t).  Each row of each X_s is packed
    into one exact Python int, w bits per entry, wide enough for a sum
    of k D products below p^2; so row i of the sum is one dot product
    over (t, l) of the scalars C_t[i, l] with the packed rows X_(d-t)[l].
    """
    k, _, dp1 = C.shape
    D = dp1 - 1
    if C[:, :, 0].tolist() != np.eye(k, dtype=int).tolist():
        raise ValueError("the constant term of C must be the identity")
    w = 2 * p.bit_length() + (k * D).bit_length()
    mask = (1 << w) - 1
    # down[i] lists C_t[i, l] for t = D down to 1, and l = 0..k-1 within each t
    down = C[:, :, :0:-1].transpose(0, 2, 1).reshape(k, -1).tolist()
    packed = [1 << (w * l) for l in range(k)]  # rows of X_0, X_1, ... in order
    x = [[[int(i == j)] for j in range(k)] for i in range(k)]
    for d in range(1, dp1):
        # the slice starts at t = d and pairs C_t[i, l] with row l of X_(d-t)
        sums = [sum(map(mul, c[k * (D - d):], packed)) for c in down]
        for i, acc in enumerate(sums):
            row = 0
            for j in range(k):
                x[i][j].append(-(acc >> (w * j) & mask) % p)
                row |= x[i][j][d] << (w * j)
            packed.append(row)
    return np.array(x, dtype=np.uint64)
