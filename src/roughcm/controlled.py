"""Controlled rough paths and the D^{2 gamma}_W norm.

A controlled path stores node samples Y (n+1, m) together with the Gubinelli
derivative Yp (n+1, m, d), where d is the noise dimension of the reference
rough path.  The derivative is always supplied explicitly, never inferred.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .roughpath import RoughPath, _pair_table

__all__ = ["ControlledPath", "D2GNorm", "d2g_terms", "norm_d2g"]


@dataclass
class D2GNorm:
    sup_Y: float
    sup_Yp: float
    holder_Yp: float
    holder_remainder: float

    @property
    def total(self) -> float:
        return self.sup_Y + self.sup_Yp + self.holder_Yp + self.holder_remainder


class ControlledPath:
    """Pair (Y, Y') controlled by a reference rough path."""

    def __init__(self, ref: RoughPath, Y: np.ndarray, Yp: np.ndarray | None = None):
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.shape[0] != ref.n + 1:
            raise ValueError("Y must be sampled on the reference grid nodes")
        m = Y.shape[1]
        if Yp is None:
            Yp = np.zeros((ref.n + 1, m, ref.d))
        Yp = np.asarray(Yp, dtype=float)
        if Yp.shape != (ref.n + 1, m, ref.d):
            raise ValueError("Yp must have shape (n+1, m, d)")
        self.ref = ref
        self.Y = Y
        self.Yp = Yp


def norm_d2g(cp: ControlledPath) -> D2GNorm:
    """The four summands of the equivalent D^{2 gamma}_W norm, grid version."""
    g = cp.ref.gamma
    ii, jj, dt = _pair_table(cp.ref.grid)
    return D2GNorm(*map(float, d2g_terms(cp.Y, cp.Yp, cp.ref.W[jj] - cp.ref.W[ii],
                                         (ii, jj, dt**g, dt ** (2 * g)))))


def d2g_terms(Y: np.ndarray, Yp: np.ndarray, dW: np.ndarray,
              pairs: tuple) -> tuple[np.ndarray, ...]:
    """The four summands of `norm_d2g` for Y (..., n+1, m) and Y' (..., n+1,
    m, d): pairs = (ii, jj, dt**gamma, dt**(2 gamma)) over node pairs i < j,
    dW (..., pairs, d) their W_j - W_i.  Sum with `D2GNorm(*terms).total`.

    Works on one (..., pairs) array per component and channel: the
    remainder is R_c = (Y_c[j] - Y_c[i]) - sum_a Y'_ca[i] dW_a, and each
    norm is the root of the squares added over the entries left to right.
    numpy adds fewer than 8 entries in that order, and einsum adds fewer
    than 8 channels as the even ones plus the odd ones, so the terms equal
    those of a stacked (..., pairs, m, d) computation to the bit.
    """
    ii, jj, dt_g, dt_2g = pairs
    sq = [None] * 4                     # |Y|^2, |Y'|^2, |dY'|^2, |R|^2

    def add(k, term):
        sq[k] = term if sq[k] is None else np.add(sq[k], term, out=sq[k])

    for c in range(Y.shape[-1]):
        y = Y[..., c]
        add(0, y * y)
        R = np.take(y, jj, axis=-1) - np.take(y, ii, axis=-1)
        lanes = [None, None]            # einsum's even and odd channels
        for a in range(Yp.shape[-1]):
            yp = Yp[..., c, a]
            yp_i = np.take(yp, ii, axis=-1)
            dyp = np.take(yp, jj, axis=-1) - yp_i
            add(1, yp * yp)
            add(2, np.multiply(dyp, dyp, out=dyp))
            term = yp_i * dW[..., a]
            lanes[a % 2] = term if a < 2 else lanes[a % 2] + term
        R = R - (lanes[0] if lanes[1] is None else lanes[0] + lanes[1])
        add(3, np.multiply(R, R, out=R))
    for x in sq:
        np.sqrt(x, out=x)
    return (np.max(sq[0], axis=-1), np.max(sq[1], axis=-1),
            np.max(sq[2] / dt_g, axis=-1), np.max(sq[3] / dt_2g, axis=-1))
