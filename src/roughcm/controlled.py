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
    dW (..., pairs, d) their W_j - W_i.  Sum with `D2GNorm(*terms).total`."""
    ii, jj, dt_g, dt_2g = pairs
    yp_flat = Yp.reshape(Yp.shape[:-2] + (Yp.shape[-2] * Yp.shape[-1],))
    dYp = np.linalg.norm(yp_flat[..., jj, :] - yp_flat[..., ii, :], axis=-1)
    R = (Y[..., jj, :] - Y[..., ii, :]
         - np.einsum("...kma,...ka->...km", Yp[..., ii, :, :], dW))
    return (np.max(np.linalg.norm(Y, axis=-1), axis=-1),
            np.max(np.linalg.norm(yp_flat, axis=-1), axis=-1),
            np.max(dYp / dt_g, axis=-1),
            np.max(np.linalg.norm(R, axis=-1) / dt_2g, axis=-1))
