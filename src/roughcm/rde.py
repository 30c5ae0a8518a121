"""RDE solvers: an explicit level-2 step and an affine variation-of-constants.

The explicit scheme advances per cell [u, v] by

    Y_v = Y_u + (A Y_u + F(Y_u)) h + G(Y_u) W_{u,v} + (DG(Y_u) G(Y_u)) WW_{u,v},

and outputs the Gubinelli derivative Y' = G(Y).
"""
from __future__ import annotations

import numpy as np

from .controlled import ControlledPath
from .gubinelli import convolve_diffusion, convolve_drift
from .roughpath import RoughPath

__all__ = ["BlowUpError", "solve_rde", "solve_affine"]


class BlowUpError(RuntimeError):
    def __init__(self, node: int, value: float):
        super().__init__(f"solution exceeded the blow-up guard at node {node} "
                         f"(|Y| = {value:.3e})")
        self.node = node


def solve_rde(A, F, G, DG, rp: RoughPath, y0, bound: float = 1e6) -> ControlledPath:
    """Solve dY = (A Y + F(Y)) dt + G(Y) dW along rp.

    F: y -> R^m, G: y -> R^{m x d}, DG: y -> R^{m x d x m} with
    DG[i, b, j] = d G[i, b] / d y_j.  A is scalar or (m, m).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    m, d, n, h = y0.shape[0], rp.d, rp.n, rp.grid.h
    A = np.asarray(A, dtype=float)
    Amat = A * np.eye(m) if A.ndim == 0 else A
    Y = np.empty((n + 1, m))
    Yp = np.empty((n + 1, m, d))
    Y[0] = y0
    dW = np.diff(rp.W, axis=0)
    for k in range(n):
        y = Y[k]
        g = np.asarray(G(y), dtype=float).reshape(m, d)
        Yp[k] = g
        dg = np.asarray(DG(y), dtype=float).reshape(m, d, m)
        second = np.einsum("ibj,ja,ab->i", dg, g, rp.WW[k])
        Y[k + 1] = (y + (Amat @ y + np.asarray(F(y), dtype=float)) * h
                    + g @ dW[k] + second)
        val = float(np.max(np.abs(Y[k + 1])))
        if val > bound:
            raise BlowUpError(k + 1, val)
    Yp[n] = np.asarray(G(Y[n]), dtype=float).reshape(m, d)
    return ControlledPath(rp, Y, Yp)


def solve_affine(A, f: np.ndarray | None, g: ControlledPath | None,
                 rp: RoughPath, y0: float) -> ControlledPath:
    """Solve the scalar affine RDE dY = (A Y + f_t) dt + g_t dW in mild form:

        Y_t = e^{A t} y0 + int_0^t e^{A (t-r)} f_r dr + int_0^t e^{A (t-r)} g_r dW_r.

    g is a scalar-integral controlled path (one component per noise channel)
    or None; its values become the Gubinelli derivative of the solution.
    """
    a = float(np.asarray(A))
    n = rp.n
    t = rp.grid.nodes - rp.grid.t0
    Y = np.exp(a * t) * float(y0)
    if f is not None:
        Y = Y + convolve_drift(a, np.asarray(f, dtype=float), rp.grid)
    if g is not None:
        Y = Y + convolve_diffusion(a, g.Y, g.Yp, g.ref)
        Yp = g.Y[:, None, :]
    else:
        Yp = np.zeros((n + 1, 1, rp.d))
    return ControlledPath(rp, Y[:, None], Yp)
