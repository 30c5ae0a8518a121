"""Test oracles that derive and verify never call: the stationary
Ornstein-Uhlenbeck process and the random-fixed-point defect of a
coefficient path."""
import numpy as np

from roughcm import (ControlledPath, RoughPath, convolve_diffusion, restrict,
                     solve_affine)
from roughcm.stationary import StationaryPath


def ou_stationary(rp: RoughPath) -> StationaryPath:
    """Stationary Ornstein-Uhlenbeck value z_t = int_{-T}^t e^{-(t-s)} dW_s.

    rp lives on [-T, 0] with T >= 5 so the discarded tail is at most e^{-5}
    times the path scale.  Returns one component per noise channel; the
    Gubinelli derivative of z is the identity.
    """
    T = -rp.grid.t0
    if T < 5:
        raise ValueError("horizon too short: need T >= 5 for a negligible tail")
    n, d = rp.n, rp.d
    Y = np.empty((n + 1, d))
    for b, e_b in enumerate(np.eye(d)):    # component b integrates dW^b
        Y[:, b] = convolve_diffusion(-1.0, np.tile(e_b, (n + 1, 1)),
                                     np.zeros((n + 1, d, d)), rp)
    Yp = np.tile(np.eye(d), (n + 1, 1, 1))
    scale = 1.0 + float(np.max(np.abs(rp.W)))
    return StationaryPath(ControlledPath(rp, Y, Yp), tail_bound=np.exp(-T) * scale)


def stationarity_check(alpha_cp: ControlledPath, A, f: np.ndarray | None,
                       g: ControlledPath | None, rp: RoughPath,
                       horizon: float) -> float:
    """Random-fixed-point defect: evolve alpha(-s) forward to 0 and compare.

    The forward evolution uses the affine mild-form solver on the restricted
    window [-s, 0]; the defect is |result(0) - alpha(0)|.
    """
    s = float(horizon)
    i0 = rp.grid.index(-s)
    window = restrict(rp, -s, rp.grid.t1)
    f_win = None if f is None else np.asarray(f)[i0:]
    g_win = None
    if g is not None:
        g_win = ControlledPath(window, g.Y[i0:], g.Yp[i0:])
    y0 = float(alpha_cp.Y[i0, 0])
    evolved = solve_affine(float(np.asarray(A)), f_win, g_win, window, y0)
    return float(abs(evolved.Y[-1, 0] - alpha_cp.Y[-1, 0]))
