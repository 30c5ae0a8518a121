"""Local manifold approximations and the fixed-point check.

The Taylor map phi(xi) = sum_i alpha_i xi^i built from the stationary
coefficients is validated against an independently computed reference: the
fixed point of a window-truncated Lyapunov-Perron iteration on sequences of
controlled rough paths over unit blocks of negative time.  A leading-order
closed form (the first Picard sweep with the linearized center flow) gives a
second, cheaper cross-check.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .controlled import ControlledPath, norm_d2g
from .gubinelli import convolve_diffusion, convolve_drift
from .invariance import NumericSystem
from .roughpath import RoughPath, unit_block

__all__ = ["ManifoldApproximation", "LPConfig", "LPResult",
           "NonContractionError", "NewtonConvergenceError", "evaluate_phi",
           "leading_order_happ", "lyapunov_perron_hc", "cutoff_scale",
           "smoothstep", "order_fit", "OrderFit"]


class NonContractionError(RuntimeError):
    def __init__(self, iteration: int, rate: float):
        super().__init__(
            f"fixed-point iteration stopped contracting at iteration "
            f"{iteration} (distance ratio {rate:.3f} >= 1 over 5 consecutive "
            "steps); shrink cutoff_R or |xi|")
        self.iteration = iteration
        self.rate = rate


class NewtonConvergenceError(RuntimeError):
    """The Newton-Krylov solve of the fixed-point equation did not converge."""


@dataclass
class ManifoldApproximation:
    """Taylor map of the stable graph: xi -> sum_{i>=2} alpha_i(0) xi^i."""
    q: int
    alpha0: dict[int, float]
    radius: float = 0.1

    def __post_init__(self):
        if self.alpha0.get(1, 0.0) != 0.0:
            raise ValueError("the graph is tangent to the center space: "
                             "alpha_1 must vanish")

    def __call__(self, xi: float) -> float:
        return evaluate_phi(self, xi)


def evaluate_phi(ma: ManifoldApproximation, xi: float) -> float:
    if abs(xi) > ma.radius:
        warnings.warn(f"|xi| = {abs(xi):.3g} exceeds the local radius "
                      f"{ma.radius:.3g}; the Taylor map is extrapolating",
                      stacklevel=2)
    return float(sum(ma.alpha0.get(i, 0.0) * xi**i for i in range(2, ma.q + 1)))


def smoothstep(u: float) -> float:
    """C^1 ramp: 1 on [0, 1/2], 0 on [1, inf), cubic in between."""
    if u <= 0.5:
        return 1.0
    if u >= 1.0:
        return 0.0
    v = 2.0 * u - 1.0
    return 1.0 - 3.0 * v**2 + 2.0 * v**3


def cutoff_scale(cp: ControlledPath, R: float) -> float:
    """The cutoff factor of a controlled path: the ramp of its norm against R."""
    if R <= 0:
        raise ValueError("cutoff radius must be positive")
    return smoothstep(norm_d2g(cp).total / R)


def leading_order_happ(sys: NumericSystem, l: int, xi: float,
                       rp: RoughPath) -> float:
    """First-sweep stable value driven by the linearized center flow.

    Sums, over unit blocks of the window [-N, 0], the stable-semigroup
    convolution of the degree-l parts of the fields evaluated along
    t -> e^{Ac t} xi, each block weighted by the decay to time 0.
    """
    if sys.As >= 0:
        raise ValueError(f"stable block {sys.As} is not exponentially stable")
    bl = _Blocks(rp, int(round(rp.grid.t1 - rp.grid.t0)))
    Fl, Gl = sys.Fs.leading(l), [g.leading(l) for g in sys.Gs]
    x = np.exp(sys.Ac * bl.times) * xi
    gY = np.stack([g(x, 0.0) for g in Gl], axis=-1)
    part = bl.convolve(sys.As, Fl(x, 0.0), gY, np.zeros(gY.shape + (rp.d,)))[:, -1]
    # cumsum adds the blocks' shares one after another, from the earliest
    return float(np.cumsum(np.exp(sys.As * (-1 - bl.times[:, 0])) * part)[-1])


class _Blocks:
    """The unit blocks [b, b+1], b = -N..-1, of a rough path on [-N, 0]:
    `paths[i]` is block i on [0, 1], and W, WW and the nodes' window
    `times` are stacked along a leading block axis."""

    def __init__(self, rp: RoughPath, N: int):
        if rp.grid.t0 != -float(N) or rp.grid.t1 != 0.0 or rp.grid.n % N:
            raise ValueError("rough path must cover [-N, 0] with whole unit blocks")
        self.paths = [unit_block(rp, b) for b in range(-N, 0)]
        self.grid = self.paths[0].grid
        self.times = np.arange(-N, 0)[:, None] + self.grid.nodes
        self.W = np.stack([p.W for p in self.paths])
        self.WW = np.stack([p.WW for p in self.paths])

    def convolve(self, A, f: np.ndarray, gY: np.ndarray, gYp: np.ndarray) -> np.ndarray:
        """Drift f and diffusion (gY, gYp) convolved over every block; a
        block where gY vanishes gets no diffusion part, not even from gYp."""
        out = convolve_drift(A, f, self.grid)
        noisy = np.any(gY, axis=(1, 2))[:, None]
        if np.any(noisy):
            return np.where(noisy, out + convolve_diffusion(A, gY, gYp, self), out)
        return out


@dataclass
class LPConfig:
    eta: float
    window: int = 12
    cutoff_R: float = 0.5
    max_iters: int = 200
    fp_tol: float = 1e-8

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must span at least 2 unit blocks")
        if not self.cutoff_R > 0:
            raise ValueError("cutoff radius must be positive")
        if not (math.isfinite(self.fp_tol) and self.fp_tol > 0):
            raise ValueError("fixed-point tolerance must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class LPResult:
    hc: float
    blocks: list[ControlledPath]
    iterations: int
    distances: list[float]
    rates: list[float]
    converged: bool
    norm_breach: bool


class _Sweep:
    """One application of the window-truncated graph-transform map.

    The state is one array with a row per unit block, holding the values
    (x, y) and then the Gubinelli derivatives (x', y'), all sampled on the
    block's unit grid; `values` and `derivs` are views of the two parts.
    """

    def __init__(self, sys: NumericSystem, xi: float, rp: RoughPath, lp: LPConfig):
        self.sys = sys
        self.xi = xi
        self.lp = lp
        self.N = lp.window
        self.blocks = _Blocks(rp, self.N)
        self.nu = self.blocks.grid.n
        self.d = rp.d
        self.tau = self.blocks.grid.nodes
        self.weights = np.exp(-lp.eta * (self.blocks.times[:, 0] + 1))
        # gaps of k = 1..nu cells, with the same time spans as norm_d2g's pairs
        self.gaps = np.arange(1, self.nu + 1)
        dt = self.gaps * self.blocks.grid.h
        self.dt_g = dt ** rp.gamma
        self.dt_2g = dt ** (2 * rp.gamma)
        _, self.gap_W = _gap_bounds(self.blocks.W, self.gaps)
        # per component: A, F and each channel's G with its partials in x, y
        self.fields = tuple(
            (A, F, [(g, g.partial(0), g.partial(1)) for g in Gf])
            for A, F, Gf in ((sys.Ac, sys.Fc, sys.Gc), (sys.As, sys.Fs, sys.Gs)))

    def zero_state(self) -> np.ndarray:
        return np.zeros((self.N, 2 * (self.nu + 1) * (1 + self.d)))

    def values(self, state: np.ndarray) -> np.ndarray:
        """(N, 2, nu+1) view of (x, y)."""
        return state[:, :2 * (self.nu + 1)].reshape(self.N, 2, self.nu + 1)

    def derivs(self, state: np.ndarray) -> np.ndarray:
        """(N, 2, nu+1, d) view of (x', y')."""
        return state[:, 2 * (self.nu + 1):].reshape(self.N, 2, self.nu + 1, self.d)

    def flow_state(self) -> np.ndarray:
        """Initial guess from a saturated backward sweep with the stable
        component slaved to its quasi-static balance y = -Fs(x, y)/As."""
        sys, N, nu = self.sys, self.N, self.nu
        cap = 0.5 * self.lp.cutoff_R
        h = 1.0 / nu
        M = N * nu
        xs = np.empty(M + 1)
        ys = np.empty(M + 1)
        xs[-1] = self.xi
        ys[-1] = -sys.Fs(self.xi, 0.0) / sys.As
        for k in range(M, 0, -1):
            x, y = xs[k], ys[k]
            x_prev = x - h * (sys.Ac * x + sys.Fc(x, y))
            x_prev = float(np.clip(x_prev, -cap, cap))
            xs[k - 1] = x_prev
            ys[k - 1] = -sys.Fs(x_prev, 0.0) / sys.As
        # adjacent blocks share their boundary node
        idx = nu * np.arange(N)[:, None] + np.arange(nu + 1)
        x, y = xs[idx], ys[idx]
        state = self.zero_state()
        V, D = self.values(state), self.derivs(state)
        V[:, 0], V[:, 1] = x, y
        for c, Gf in enumerate((sys.Gc, sys.Gs)):
            for ch, g in enumerate(Gf):
                D[:, c, :, ch] = g(x, y)
        return state

    def pack(self, state: np.ndarray, i: int) -> ControlledPath:
        return ControlledPath(self.blocks.paths[i], self.values(state)[i].T,
                              self.derivs(state)[i].transpose(1, 0, 2))

    def norm_bounds(self, state: np.ndarray) -> np.ndarray:
        """Upper bounds U_i >= norm_d2g(pack(state, i)).total for all blocks.

        O(N nu) against the O(N nu^2) exact norms: the sup terms are exact,
        and a pair of nodes k cells apart gets the gap bounds of
        `_gap_bounds` for Y, Y' and W, with |R| <= |dY| + sup|Y'| |dW|.  The
        relative margin covers the rounding of both computations.
        """
        N, nu = self.N, self.nu
        Y = self.values(state).transpose(0, 2, 1)
        Yp = self.derivs(state).transpose(0, 2, 1, 3).reshape(N, nu + 1, -1)
        sup_Y, gap_Y = _gap_bounds(Y, self.gaps)
        sup_Yp, gap_Yp = _gap_bounds(Yp, self.gaps)
        holder_Yp = np.max(gap_Yp / self.dt_g, axis=1)
        holder_R = np.max((gap_Y + sup_Yp[:, None] * self.gap_W) / self.dt_2g,
                          axis=1)
        return (sup_Y + sup_Yp + holder_Yp + holder_R) * (1.0 + 1e-9)

    def cutoff_factors(self, state: np.ndarray) -> np.ndarray:
        """cutoff_scale of every block.  The ramp is exactly 1 up to R/2, so
        only blocks whose norm bound exceeds R/2 need their exact norm."""
        R = self.lp.cutoff_R
        return np.array([1.0 if u / R <= 0.5 else cutoff_scale(self.pack(state, i), R)
                         for i, u in enumerate(self.norm_bounds(state))])

    def apply(self, state: np.ndarray) -> tuple[np.ndarray, bool]:
        """New state and whether any block norm breached the cutoff ramp."""
        sys, bl = self.sys, self.blocks
        N, nu, d = self.N, self.nu, self.d
        V, D = self.values(state), self.derivs(state)
        new = self.zero_state()
        nV, nD = self.values(new), self.derivs(new)
        C = np.empty((2, N, nu + 1))    # per-block convolutions
        s = self.cutoff_factors(state)[:, None, None]
        x, y = np.moveaxis(s * V, 1, 0)
        for c, (A, F, Gf) in enumerate(self.fields):
            gY = nD[:, c]
            gYp = np.zeros((N, nu + 1, d, d))
            for ch, (g, g_x, g_y) in enumerate(Gf):
                gY[..., ch] = g(x, y)
                gYp[..., ch, :] = (g_x(x, y)[..., None] * D[:, 0] +
                                   g_y(x, y)[..., None] * D[:, 1]) * s
            C[c] = bl.convolve(A, F(x, y), gY, gYp)
        x, y = nV[:, 0], nV[:, 1]
        x[:] = np.exp(sys.Ac * bl.times) * self.xi + C[0]
        y[:] = C[1]
        for k in range(N):    # the tails of earlier blocks, added in order
            end = bl.times[k, 0] + 1
            x[:k + 1] -= np.exp(sys.Ac * (bl.times[:k + 1] - end)) * C[0, k, -1]
            y[k + 1:] += np.exp(sys.As * (bl.times[k + 1:] - end)) * C[1, k, -1]
        return new, bool(np.any(s < 1.0))

    def distance(self, state_a: np.ndarray, state_b: np.ndarray) -> float:
        """Window-truncated exponentially weighted distance of sequences.

        The max over blocks of weighted exact norms, to the bit: blocks are
        visited in decreasing order of their weighted bounds, stopping once
        no remaining bound exceeds the largest exact value.  nan if a bound
        is not finite.
        """
        diff = state_a - state_b
        bounds = self.weights * self.norm_bounds(diff)
        if not np.all(np.isfinite(bounds)):
            return float("nan")
        best = -1.0    # below every norm, so the first block is evaluated
        for i in np.argsort(-bounds, kind="stable"):
            if best >= bounds[i]:
                break
            best = np.maximum(best, self.weights[i] *
                              norm_d2g(self.pack(diff, i)).total)
        return best


def _gap_bounds(Z: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup_t |Z_t| per block, and per gap of k cells a bound on |Z_t - Z_s|.

    Z is (blocks, nodes, components).  The bound is the smaller of k times
    the largest cell increment and twice the sup.
    """
    sup = np.max(np.linalg.norm(Z, axis=2), axis=1)
    step = np.max(np.linalg.norm(np.diff(Z, axis=1), axis=2), axis=1)
    return sup, np.minimum(k * step[:, None], 2 * sup[:, None])


def lyapunov_perron_hc(sys: NumericSystem, xi: float, rp: RoughPath,
                       lp: LPConfig, solver: str = "picard") -> LPResult:
    """Fixed point of the window-truncated graph-transform iteration.

    The window [-N, 0] is split into unit blocks; each sweep recomputes the
    sequence of controlled paths from the center boundary value xi and the
    cut-off fields, block convolutions reusing the same discretization as
    the stationary-coefficient solver.  The stable component at time 0 of
    the converged sequence is the reference manifold value h^c(xi, W).

    solver="picard" iterates the map directly and aborts when it stops
    contracting.  solver="newton" solves the same fixed-point equation by a
    Jacobian-free Newton-Krylov method, needed when |xi| is large enough
    that the backward center orbit grows and the plain iteration expands;
    it starts from a saturated backward-flow guess.
    """
    beta = -sys.As
    if beta <= 0:
        raise ValueError(f"stable block {sys.As} is not exponentially stable")
    if not -beta < lp.eta < 0:
        raise ValueError(f"eta must lie strictly in ({-beta}, 0)")
    if abs(xi) > lp.cutoff_R:
        raise ValueError("xi outside the cutoff radius")
    sweep = _Sweep(sys, xi, rp, lp)

    distances: list[float] = []
    rates: list[float] = []
    converged = False
    norm_breach = False
    it = 0
    if solver == "picard":
        state = sweep.zero_state()
        for it in range(1, lp.max_iters + 1):
            new_state, breach = sweep.apply(state)
            norm_breach = norm_breach or breach
            dist = sweep.distance(new_state, state)
            state = new_state
            distances.append(dist)
            if not np.isfinite(dist):
                break
            if len(distances) > 1 and distances[-2] > 0:
                rates.append(dist / distances[-2])
                if len(rates) >= 5 and all(r >= 1.0 for r in rates[-5:]):
                    raise NonContractionError(it, rates[-1])
            if dist < lp.fp_tol:
                converged = True
                break
    elif solver == "newton":
        from scipy.optimize import NoConvergence, newton_krylov

        def residual(u):
            new_state, _ = sweep.apply(u.reshape(sweep.N, -1))
            return u - new_state.ravel()

        # the weighted sequence distance amplifies pointwise residuals by the
        # fine-scale Hölder factor, so solve a bit below the requested tol
        f_tol = max(lp.fp_tol / (sweep.nu ** (2 * rp.gamma)), 1e-14)
        u0 = sweep.flow_state().ravel()
        try:
            u = newton_krylov(residual, u0, method="lgmres", f_tol=f_tol,
                              maxiter=lp.max_iters)
        except NoConvergence as exc:
            raise NewtonConvergenceError(
                f"Newton-Krylov solve did not converge in {lp.max_iters} "
                "iterations; raise max_iters or shrink |xi|") from exc
        state = u.reshape(sweep.N, -1)
        new_state, norm_breach = sweep.apply(state)
        dist = sweep.distance(new_state, state)
        distances.append(dist)
        converged = dist < 2 * lp.fp_tol
        it = 1
        state = new_state
    else:
        raise ValueError("solver must be 'picard' or 'newton'")

    return LPResult(hc=float(sweep.values(state)[-1, 1, -1]),
                    blocks=[sweep.pack(state, i) for i in range(sweep.N)],
                    iterations=it, distances=distances, rates=rates,
                    converged=converged, norm_breach=norm_breach)


@dataclass
class OrderFit:
    slope: float
    intercept: float
    used: int
    excluded: list[int]


def order_fit(xis, errors) -> OrderFit:
    """Least-squares slope of log error against log |xi|."""
    xis = np.asarray(xis, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    excluded = [int(i) for i in np.where(~mask)[0]]
    if mask.sum() < 4:
        raise ValueError("need at least 4 positive errors for an order fit")
    slope, intercept = np.polyfit(np.log(np.abs(xis[mask])), np.log(errors[mask]), 1)
    return OrderFit(float(slope), float(intercept), int(mask.sum()), excluded)
