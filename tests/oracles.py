"""Test oracles that derive and verify never call: the node index of a
grid-aligned time, the time shift and the window restriction of a rough
path, the rough integral, constant and self-controlled paths, the explicit
level-2 RDE scheme, smooth lifts, the cutoff factor of one block, the
stationary Ornstein-Uhlenbeck process, the random-fixed-point defect of a
coefficient path, the fBm lift on a dense covariance, the D^{2 gamma}
terms on gathered (pairs, m, d) arrays, the scalar-rate convolution loops
and the Picard iteration on exact distances."""
from dataclasses import dataclass

import numpy as np

from roughcm import (ControlledPath, Grid, RoughPath, cell_terms, coarsen,
                     convolve_diffusion, manifold, norm_d2g, semigroup_step,
                     smoothstep, solve_affine)
from roughcm.gubinelli import _nodes_first
from roughcm.manifold import LPResult, NonContractionError, NonConvergenceError
from roughcm.roughpath import _piecewise_linear_lift


def grid_index(grid: Grid, t: float) -> int:
    """Node index of a grid-aligned time t."""
    k = (t - grid.t0) / grid.h
    ki = round(k)
    if not (0 <= ki <= grid.n) or abs(k - ki) > 1e-9 * max(1, abs(k)) + 1e-9:
        raise ValueError(f"time {t} is not a node of the grid")
    return ki


def shift(rp: RoughPath, tau: float) -> RoughPath:
    """Time shift: (Theta_tau W)_t = W_{t + tau} - W_tau on [t0-tau, t1-tau].

    The node samples are re-based so the path vanishes at its first node;
    all increments and second-level values agree with the shift definition.
    """
    if not (rp.grid.t0 <= tau <= rp.grid.t1):
        raise ValueError("tau must lie inside the stored window")
    grid_index(rp.grid, tau)  # raises unless tau is grid-aligned
    grid = Grid(rp.grid.t0 - tau, rp.grid.t1 - tau, rp.grid.n)
    return RoughPath(rp.gamma, grid, rp.W, rp.WW)


def restrict(rp: RoughPath, a: float, b: float) -> RoughPath:
    """Sub-path over the grid-aligned window [a, b], same time labels."""
    i, j = grid_index(rp.grid, a), grid_index(rp.grid, b)
    if i >= j:
        raise ValueError("window must contain at least one cell")
    grid = Grid(a, b, j - i)
    return RoughPath(rp.gamma, grid, rp.W[i:j + 1], rp.WW[i:j])


def constant_path(ref: RoughPath, value) -> ControlledPath:
    """The constant path `value` (one component per entry) with Y' = 0."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return ControlledPath(ref, np.tile(value, (ref.n + 1, 1)))


def reference_path(ref: RoughPath) -> ControlledPath:
    """The path controlled by itself: Y = W, Y' = Id."""
    Yp = np.tile(np.eye(ref.d), (ref.n + 1, 1, 1))
    return ControlledPath(ref, ref.W.copy(), Yp)


def rough_integral(cp: ControlledPath, i: int = 0, j: int | None = None) -> float:
    """Scalar rough integral of cp against its reference path over [t_i, t_j]."""
    j = cp.ref.n if j is None else j
    if not 0 <= i <= j <= cp.ref.n:
        raise ValueError("node range invalid")
    return float(np.sum(cell_terms(cp.Y, cp.Yp, cp.ref)[i:j]))


class BlowUpError(RuntimeError):
    def __init__(self, node: int, value: float):
        super().__init__(f"solution exceeded the blow-up guard at node {node} "
                         f"(|Y| = {value:.3e})")
        self.node = node


def solve_rde(A, F, G, DG, rp: RoughPath, y0, bound: float = 1e6) -> ControlledPath:
    """Solve dY = (A Y + F(Y)) dt + G(Y) dW along rp by the explicit
    level-2 (Davie) step per cell [u, v],

        Y_v = Y_u + (A Y_u + F(Y_u)) h + G(Y_u) W_{u,v} + (DG(Y_u) G(Y_u)) WW_{u,v},

    with Gubinelli derivative Y' = G(Y).  F: y -> R^m, G: y -> R^{m x d},
    DG: y -> R^{m x d x m} with DG[i, b, j] = d G[i, b] / d y_j.  A is
    scalar or (m, m).
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


def lift_smooth(samples: np.ndarray, target: Grid, gamma: float) -> RoughPath:
    """Lift fine node samples of a path in R^d to a geometric rough path.

    The iterated integral per target cell is the composite trapezoid sum over
    the fine samples, which equals the canonical lift of the piecewise-linear
    interpolant.  Requires at least 8 fine sub-nodes per target cell.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < samples.shape[1]:
        samples = samples.T
    m = samples.shape[0] - 1
    if m % target.n != 0 or m // target.n < 8:
        raise ValueError("samples must resolve at least 8 sub-nodes per target cell")
    fine = _piecewise_linear_lift(samples, target, gamma)
    return coarsen(fine, m // target.n)


def cutoff_scale(cp: ControlledPath, R: float) -> float:
    """The cutoff factor of a controlled path: the ramp of its norm against R."""
    return smoothstep(norm_d2g(cp).total / R)


def block_path(sweep, state: np.ndarray, i: int) -> ControlledPath:
    """Block i of one xi's (N, .) state of an LP sweep, as a controlled path
    on the block's unit-interval rough path."""
    bl = sweep.blocks
    ref = RoughPath(bl.gamma, bl.grid, bl.W[i], bl.WW[i])
    return ControlledPath(ref, sweep.values(state)[i].T,
                          sweep.derivs(state)[i].transpose(1, 0, 2))


@dataclass
class OuStationary:
    """The stationary OU path and the bound on the tail it discards."""
    path: ControlledPath
    tail_bound: float


def ou_stationary(rp: RoughPath) -> OuStationary:
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
    return OuStationary(ControlledPath(rp, Y, Yp), tail_bound=np.exp(-T) * scale)


def stationarity_check(alpha_cp: ControlledPath, A, f: np.ndarray | None,
                       g: ControlledPath | None, rp: RoughPath,
                       horizon: float) -> float:
    """Random-fixed-point defect: evolve alpha(-s) forward to 0 and compare.

    The forward evolution uses the affine mild-form solver on the restricted
    window [-s, 0]; the defect is |result(0) - alpha(0)|.
    """
    s = float(horizon)
    i0 = grid_index(rp.grid, -s)
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


def gathered_d2g_terms(Y: np.ndarray, Yp: np.ndarray, dW: np.ndarray,
                       pairs: tuple) -> tuple[np.ndarray, ...]:
    """`d2g_terms` on (..., pairs, m[, d]) gathers of Y and Y', with the
    channel sum in one einsum and each norm one np.linalg.norm."""
    ii, jj, dt_g, dt_2g = pairs
    yp_flat = Yp.reshape(Yp.shape[:-2] + (Yp.shape[-2] * Yp.shape[-1],))
    dYp = np.linalg.norm(yp_flat[..., jj, :] - yp_flat[..., ii, :], axis=-1)
    R = (Y[..., jj, :] - Y[..., ii, :]
         - np.einsum("...kma,...ka->...km", Yp[..., ii, :, :], dW))
    return (np.max(np.linalg.norm(Y, axis=-1), axis=-1),
            np.max(np.linalg.norm(yp_flat, axis=-1), axis=-1),
            np.max(dYp / dt_g, axis=-1),
            np.max(np.linalg.norm(R, axis=-1) / dt_2g, axis=-1))


def loop_convolve_drift(A, f: np.ndarray, grid: Grid) -> np.ndarray:
    """`convolve_drift` for a scalar A, with Phi times the cell midpoint
    taken inside the node loop."""
    f = np.asarray(f, dtype=float)
    E, Phi = semigroup_step(A, grid.h)
    mid = _nodes_first(0.5 * (f[..., :-1] + f[..., 1:]))
    out = np.zeros((grid.n + 1,) + mid.shape[1:])
    for k in range(grid.n):
        out[k + 1] = E * out[k] + Phi * mid[k]
    return np.moveaxis(out, 0, -1).reshape(f.shape)


def loop_convolve_diffusion(A, Y: np.ndarray, Yp: np.ndarray, ref) -> np.ndarray:
    """`convolve_diffusion` for a scalar A."""
    terms = _nodes_first(cell_terms(Y, Yp, ref))
    E = np.exp(float(np.asarray(A)) * ref.grid.h)
    out = np.zeros((ref.grid.n + 1,) + terms.shape[1:])
    for k in range(ref.grid.n):
        out[k + 1] = E * (out[k] + terms[k])
    return np.moveaxis(out, 0, -1).reshape(Y.shape[:-2] + (-1,))


def exact_picard(sweep) -> list:
    """The Picard iteration of `lyapunov_perron_sweep` on an LP sweep, with
    the exact distance of every step: each step's tests are decided on it,
    and every distance and rate recorded is exact."""
    state = sweep.zero_state()
    results = [LPResult(state=st) for st in state]
    running = np.arange(len(results))
    for it in range(1, manifold.MAX_ITERS + 1):
        if not len(running):
            break
        new, breach = sweep.apply(state[running], running)
        dist = sweep.distance(new, state[running])
        state[running] = new
        still = []
        for k, b, d in zip(running, breach, dist):
            res = results[k]
            res.iterations = it
            res.norm_breach = res.norm_breach or bool(b)
            res.distances.append(d)
            if not np.isfinite(d):
                res.error = NonConvergenceError(
                    f"not converged: fixed-point distance {d} is not finite at "
                    f"iteration {it}")
                continue
            if len(res.distances) > 1 and res.distances[-2] > 0:
                res.rates.append(d / res.distances[-2])
                if len(res.rates) >= 5 and all(r >= 1.0 for r in res.rates[-5:]):
                    res.error = NonContractionError(it, res.rates[-1])
                    continue
            if d >= sweep.lp.fp_tol:
                still.append(k)
        running = np.array(still, dtype=int)
    for res in (results[k] for k in running):
        res.error = NonConvergenceError(
            f"not converged: fixed-point distance {res.distances[-1]:.3g} after "
            f"{res.iterations} iteration(s), the iteration limit")
    for res in results:
        res.hc = float(sweep.values(res.state)[-1, 1, -1])
    return results
