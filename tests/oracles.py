"""Test oracles that derive and verify never call: the stationary
Ornstein-Uhlenbeck process, the random-fixed-point defect of a
coefficient path and the fBm lift on a dense covariance."""
import numpy as np

from roughcm import (ControlledPath, Grid, RoughPath, coarsen,
                     convolve_diffusion, restrict, solve_affine)
from roughcm.roughpath import _piecewise_linear_lift
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


def dense_fbm_lift(seed: int, hurst: float, grid: Grid, dyadic_level: int = 3) -> RoughPath:
    """lift_fbm with the full covariance built from two m x m meshgrids.

    The same draw and the same float operations as lift_fbm, with every
    entry of the covariance computed, so the two must agree to the bit.
    """
    gamma = max(hurst - 0.03 if hurst < 0.37 else hurst, 1 / 3 + 1e-6)
    refinement = 2**dyadic_level
    m = grid.n * refinement
    t = (grid.nodes[-1] - grid.t0) * np.arange(1, m + 1) / m
    tt, ss = np.meshgrid(t, t, indexing="ij")
    cov = 0.5 * (tt ** (2 * hurst) + ss ** (2 * hurst) - np.abs(tt - ss) ** (2 * hurst))
    L = np.linalg.cholesky(cov)
    z = np.random.default_rng(seed).standard_normal(m)
    W = np.concatenate([[0.0], L @ z])[:, None]
    return coarsen(_piecewise_linear_lift(W, grid, gamma), refinement)
