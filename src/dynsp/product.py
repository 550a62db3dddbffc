"""Product maintenance E * M^-1 = V(I + N) alongside the dynamic inverse.

A ProductState shares T and N with its host InverseState by reference.
Between host resets an A-update needs no V change (N absorbs it); at a
reset the host calls the hook for every registered product so V folds
N in BEFORE T moves and N clears.  That ordering is a checked runtime
contract: hooks fired out of sequence raise HookOrderViolation.

E itself may be updated entrywise at any time; V picks up the change
against the current T.
"""
from __future__ import annotations

import numpy as np

from ._kernels import add_mod, conv_trunc, poly_mat_mul, sub_mod
from .inverse import InverseState
from .ring import TruncPoly


class HookOrderViolation(RuntimeError):
    pass


class ProductState:
    __slots__ = ("host", "E", "V", "_seen_serial", "_reset_folded")

    def __init__(self, host: InverseState, E: np.ndarray | None = None) -> None:
        self.host = host
        dp1 = host.D + 1
        if E is None:
            E = np.zeros((host.n, host.n, dp1), dtype=np.uint64)
        self.E = np.asarray(E, dtype=np.uint64).copy()
        # V = E*T satisfies E*M^-1 = V(I+N) whatever N currently is
        self.V = poly_mat_mul(self.E, host.T, host.p)
        self._seen_serial = host.update_serial
        self._reset_folded = False
        host.register_product(self)

    # ---- hook fired by the host -------------------------------------------

    def prod_on_A_update(self) -> None:
        host = self.host
        if host._in_reset:
            # reset leg: V <- V(I+N), before the host touches T or N
            if self._seen_serial != host.update_serial:
                raise HookOrderViolation("reset hook before the update hook")
            if host.nrows:
                extra = poly_mat_mul(
                    self.V[:, host.nrows], host.N[host.nrows], host.p
                )
                self.V = add_mod(self.V, extra, host.p)
            return
        if self._seen_serial != host.update_serial - 1:
            raise HookOrderViolation(
                f"hook at serial {host.update_serial}, last seen {self._seen_serial}"
            )
        self._seen_serial = host.update_serial
        # between resets nothing to do: N absorbs the A change

    # ---- E updates and queries --------------------------------------------

    def prod_update_E(self, i: int, j: int, v: TruncPoly | np.ndarray) -> None:
        coeffs = v.coeffs if isinstance(v, TruncPoly) else np.asarray(v, np.uint64)
        host = self.host
        delta = sub_mod(coeffs, self.E[i, j], host.p)
        self.E[i, j] = coeffs
        self.V[i] = add_mod(
            self.V[i], conv_trunc(delta[None, :], host.T[j], host.p), host.p
        )

    def prod_query(self, i: int, j: int) -> TruncPoly:
        host = self.host
        out = self.V[i, j].copy()
        if host.nrows:
            extra = poly_mat_mul(
                self.V[i, host.nrows][None], host.N[host.nrows, j][:, None], host.p
            )
            out = add_mod(out, extra[0, 0], host.p)
        return TruncPoly(host.p, out)
