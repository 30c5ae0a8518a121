"""Rough integration and semigroup convolutions on fixed grids.

Integrals are compound sums over grid cells, frozen at the left node:

    int_s^t Y dW  ~  sum over cells [u, v] of  Y_u W_{u,v} + Y'_u WW_{u,v}.

Scalar-valued integrands with d noise channels are controlled paths with
m == d: component Y[:, b] multiplies dW^b and Yp[:, b, a] is its derivative
along W^a, so the second-level term is sum_ab Yp[u, b, a] WW_{u,v}[a, b].
"""
from __future__ import annotations

import numpy as np

from .roughpath import Grid

__all__ = ["convolve_drift", "convolve_diffusion", "cell_terms",
           "semigroup_step"]


def cell_terms(Y: np.ndarray, Yp: np.ndarray, ref) -> np.ndarray:
    """Per-cell compound-sum terms of the scalar rough integral, (..., n).

    ref is a rough path, or a stack of paths on one `grid` with W (..., n+1,
    d) and WW (..., n, d, d); Y (..., n+1, d) and Yp (..., n+1, d, d) sample
    the integrand on its nodes, with leading axes that the path's broadcast
    to.  These are merged into the cell axis, so each cell sums as for a
    single path, to the bit.
    """
    d = ref.W.shape[-1]
    if Y.shape[-1] != d:
        raise ValueError("scalar rough integral needs one integrand component "
                         "per noise channel (m == d)")
    Y, Yp = Y[..., :-1, :], Yp[..., :-1, :, :]
    dW = np.broadcast_to(np.diff(ref.W, axis=-2), Y.shape).reshape(-1, d)
    WW = np.broadcast_to(ref.WW, Yp.shape).reshape(-1, d, d)
    first = np.einsum("kb,kb->k", Y.reshape(-1, d), dW)
    second = np.einsum("kba,kab->k", Yp.reshape(-1, d, d), WW)
    return (first + second).reshape(Y.shape[:-2] + (-1,))


def semigroup_step(a: float, h: float):
    """(e^{a h}, int_0^h e^{a s} ds) for scalar a."""
    a = float(a)
    E = np.exp(a * h)
    Phi = h if a == 0.0 else np.expm1(a * h) / a
    return E, Phi


def convolve_drift(A, f: np.ndarray, grid: Grid) -> np.ndarray:
    """t -> int_0^t e^{A (t - r)} f_r dr on the grid nodes.

    Each cell uses the midpoint value (f_k + f_{k+1}) / 2 as a piecewise
    constant and integrates the semigroup factor exactly.  f is (..., n+1)
    with leading batch axes, and so is the result; as a controlled path it
    has zero Gubinelli derivative.  A is a scalar or an array that
    broadcasts to the batch axes, one rate per row.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.n + 1,):
        raise ValueError("f must be sampled on the grid nodes")
    E, Phi = _steps(A, f.shape[:-1], grid.h)
    P = Phi * _nodes_first(0.5 * (f[..., :-1] + f[..., 1:]))
    out = np.zeros((grid.n + 1,) + P.shape[1:])
    for k in range(grid.n):
        out[k + 1] = E * out[k] + P[k]
    return np.moveaxis(out, 0, -1).reshape(f.shape)


def convolve_diffusion(A, Y: np.ndarray, Yp: np.ndarray, ref) -> np.ndarray:
    """t -> int_0^t e^{A (t - r)} G_r dW_r on the nodes of ref.

    (G, G') = (Y, Yp) and ref are as in `cell_terms`, batch axes included,
    and A is as in `convolve_drift`.  The semigroup factor is frozen at the
    left node of each cell, matching the compound-sum order of the rough
    integral.
    """
    terms = cell_terms(Y, Yp, ref)
    E, _ = _steps(A, terms.shape[:-1], ref.grid.h)
    terms = _nodes_first(terms)
    out = np.zeros((ref.grid.n + 1,) + terms.shape[1:])
    for k in range(ref.grid.n):
        out[k + 1] = E * (out[k] + terms[k])
    return np.moveaxis(out, 0, -1).reshape(Y.shape[:-2] + (-1,))


def _steps(A, batch: tuple, h: float):
    """`semigroup_step` of each entry of A: a pair of scalars for a scalar A,
    else of flat rows matching `_nodes_first` of a (*batch, .) array."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        return semigroup_step(A, h)
    steps = np.array([semigroup_step(a, h) for a in A.ravel()]).reshape(A.shape + (2,))
    try:
        steps = np.broadcast_to(steps, batch + (2,))
    except ValueError:
        raise ValueError(f"A of shape {A.shape} does not broadcast to the "
                         f"batch axes {batch}") from None
    return steps[..., 0].ravel(), steps[..., 1].ravel()


def _nodes_first(a: np.ndarray) -> np.ndarray:
    """(..., m) as (m, batch): the node axis first and the batch axes merged,
    so that a recursion over the nodes steps through flat rows, or through
    scalars for a single path."""
    return np.moveaxis(a, -1, 0).reshape(a.shape[-1:] + ((-1,) if a.ndim > 1 else ()))
