"""The scalar affine RDE solver of the stationary coefficient paths, in
mild (variation-of-constants) form over the convolutions of
`roughcm.gubinelli`."""
from __future__ import annotations

import numpy as np

from .controlled import ControlledPath
from .gubinelli import convolve_diffusion, convolve_drift
from .roughpath import RoughPath

__all__ = ["solve_affine"]


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
