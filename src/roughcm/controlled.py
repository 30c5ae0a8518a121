"""Controlled rough paths: remainders, the D^{2 gamma}_W norm, and algebra.

A controlled path stores node samples Y (n+1, m) together with the Gubinelli
derivative Yp (n+1, m, d), where d is the noise dimension of the reference
rough path.  The derivative is always supplied explicitly, never inferred.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .roughpath import RoughPath, _pair_table

__all__ = ["ControlledPath", "D2GNorm", "SmoothMap", "remainder", "norm_d2g",
           "add_scale", "mul", "compose"]


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
        if Yp.ndim == 2 and m == 1:
            Yp = Yp[:, None, :] if Yp.shape[1] == ref.d else Yp[:, :, None]
        if Yp.shape != (ref.n + 1, m, ref.d):
            raise ValueError("Yp must have shape (n+1, m, d)")
        self.ref = ref
        self.Y = Y
        self.Yp = Yp

    @property
    def m(self) -> int:
        return self.Y.shape[1]

    @classmethod
    def constant(cls, ref: RoughPath, value) -> "ControlledPath":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(ref, np.tile(value, (ref.n + 1, 1)))

    @classmethod
    def of_reference(cls, ref: RoughPath) -> "ControlledPath":
        """The path controlled by itself: Y = W, Y' = Id."""
        Yp = np.tile(np.eye(ref.d), (ref.n + 1, 1, 1))
        return cls(ref, ref.W.copy(), Yp)


def remainder(cp: ControlledPath, i: int, j: int) -> np.ndarray:
    """R^Y_{s,t} = Y_t - Y_s - Y'_s W_{s,t} at node indices s = t_i, t = t_j."""
    if not 0 <= i < j <= cp.ref.n:
        raise ValueError("node indices out of range")
    return cp.Y[j] - cp.Y[i] - cp.Yp[i] @ cp.ref.increment(i, j)


def norm_d2g(cp: ControlledPath) -> D2GNorm:
    """The four summands of the equivalent D^{2 gamma}_W norm, grid version."""
    g = cp.ref.gamma
    ii, jj, dt = _pair_table(cp.ref.grid)
    sup_Y = float(np.max(np.linalg.norm(cp.Y, axis=1)))
    yp_flat = cp.Yp.reshape(cp.Yp.shape[0], -1)
    sup_Yp = float(np.max(np.linalg.norm(yp_flat, axis=1)))
    dYp = np.linalg.norm(yp_flat[jj] - yp_flat[ii], axis=1)
    holder_Yp = float(np.max(dYp / dt**g))
    dW = cp.ref.W[jj] - cp.ref.W[ii]
    R = cp.Y[jj] - cp.Y[ii] - np.einsum("kma,ka->km", cp.Yp[ii], dW)
    holder_R = float(np.max(np.linalg.norm(R, axis=1) / dt ** (2 * g)))
    return D2GNorm(sup_Y, sup_Yp, holder_Yp, holder_R)


def add_scale(a: float, cp1: ControlledPath, b: float, cp2: ControlledPath) -> ControlledPath:
    """a * cp1 + b * cp2 with the same reference path."""
    if cp1.ref is not cp2.ref and cp1.ref.grid != cp2.ref.grid:
        raise ValueError("controlled paths must share the reference path")
    if cp1.m != cp2.m:
        raise ValueError("dimension mismatch")
    return ControlledPath(cp1.ref, a * cp1.Y + b * cp2.Y, a * cp1.Yp + b * cp2.Yp)


def mul(cp1: ControlledPath, cp2: ControlledPath) -> ControlledPath:
    """Product of scalar-valued controlled paths: (Y Z, Y' Z + Y Z')."""
    if cp1.m != 1 or cp2.m != 1:
        raise ValueError("mul is defined for scalar-valued factors")
    if cp1.ref is not cp2.ref and cp1.ref.grid != cp2.ref.grid:
        raise ValueError("controlled paths must share the reference path")
    Y = cp1.Y * cp2.Y
    Yp = cp1.Yp * cp2.Y[:, :, None] + cp2.Yp * cp1.Y[:, :, None]
    return ControlledPath(cp1.ref, Y, Yp)


@dataclass
class SmoothMap:
    """A C^2 map with evaluable value and derivative (and optional Hessian)."""
    f: callable
    df: callable
    d2f: callable | None = None


def compose(G: SmoothMap, cp: ControlledPath) -> ControlledPath:
    """(G(Y), DG(Y) Y'): composition of a smooth map with a controlled path.

    G.f maps R^m -> R^p and G.df maps R^m -> R^{p x m}.
    """
    n = cp.ref.n
    vals = [np.atleast_1d(np.asarray(G.f(cp.Y[k]), dtype=float)) for k in range(n + 1)]
    Y = np.stack(vals)
    Yp = np.empty((n + 1, Y.shape[1], cp.ref.d))
    for k in range(n + 1):
        D = np.atleast_2d(np.asarray(G.df(cp.Y[k]), dtype=float))
        Yp[k] = D @ cp.Yp[k]
    return ControlledPath(cp.ref, Y, Yp)
