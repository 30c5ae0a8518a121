"""Rough integration and semigroup convolutions on fixed grids.

Integrals are compound sums over grid cells, frozen at the left node:

    int_s^t Y dW  ~  sum over cells [u, v] of  Y_u W_{u,v} + Y'_u WW_{u,v}.

Scalar-valued integrands with d noise channels are controlled paths with
m == d: component Y[:, b] multiplies dW^b and Yp[:, b, a] is its derivative
along W^a, so the second-level term is sum_ab Yp[u, b, a] WW_{u,v}[a, b].
"""
from __future__ import annotations

import numpy as np

from .controlled import ControlledPath
from .roughpath import Grid

__all__ = ["rough_integral", "convolve_drift", "convolve_diffusion",
           "cell_terms", "semigroup_step"]


def cell_terms(cp: ControlledPath) -> np.ndarray:
    """Per-cell compound-sum terms of the scalar rough integral, shape (n,)."""
    if cp.m != cp.ref.d:
        raise ValueError("scalar rough integral needs one integrand component "
                         "per noise channel (m == d)")
    dW = np.diff(cp.ref.W, axis=0)
    first = np.einsum("kb,kb->k", cp.Y[:-1], dW)
    second = np.einsum("kba,kab->k", cp.Yp[:-1], cp.ref.WW)
    return first + second


def rough_integral(cp: ControlledPath, i: int = 0, j: int | None = None) -> float:
    """Scalar rough integral of cp against its reference path over [t_i, t_j]."""
    j = cp.ref.n if j is None else j
    if not 0 <= i <= j <= cp.ref.n:
        raise ValueError("node range invalid")
    return float(np.sum(cell_terms(cp)[i:j]))


def semigroup_step(a: float, h: float):
    """(e^{a h}, int_0^h e^{a s} ds) for scalar a."""
    a = float(a)
    E = np.exp(a * h)
    Phi = h if a == 0.0 else np.expm1(a * h) / a
    return E, Phi


def convolve_drift(A, f: np.ndarray, grid: Grid) -> np.ndarray:
    """t -> int_0^t e^{A (t - r)} f_r dr on the grid nodes, for scalar A.

    Each cell uses the midpoint value (f_k + f_{k+1}) / 2 as a piecewise
    constant and integrates the semigroup factor exactly.  Returned as a node
    array; as a controlled path this has zero Gubinelli derivative.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n + 1,):
        raise ValueError("f must be sampled on the grid nodes")
    E, Phi = semigroup_step(A, grid.h)
    out = np.zeros_like(f)
    mid = 0.5 * (f[:-1] + f[1:])
    for k in range(grid.n):
        out[k + 1] = E * out[k] + Phi * mid[k]
    return out


def convolve_diffusion(A, cp: ControlledPath, t_node: int | None = None):
    """int_0^t e^{A (t - r)} G_r dW_r for a scalar-integral integrand.

    The semigroup factor is frozen at the left node of each cell, matching
    the compound-sum order of the rough integral.  A must be scalar.  With
    t_node given, returns the value at that node; otherwise the full node
    array over the grid.
    """
    a = float(np.asarray(A))
    h = cp.ref.grid.h
    terms = cell_terms(cp)
    E = np.exp(a * h)
    out = np.zeros(cp.ref.n + 1)
    for k in range(cp.ref.n):
        out[k + 1] = E * (out[k] + terms[k])
    if t_node is not None:
        return float(out[t_node])
    return out
