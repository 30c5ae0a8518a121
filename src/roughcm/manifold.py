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
from dataclasses import dataclass, field

import numpy as np

from .controlled import D2GNorm, d2g_terms
from .gubinelli import convolve_diffusion, convolve_drift
from .invariance import NumericSystem
from .roughpath import RoughPath, _pair_table, _unit_split

__all__ = ["ManifoldApproximation", "LPConfig", "LPResult", "NonConvergenceError",
           "NonContractionError", "NewtonConvergenceError", "evaluate_phi",
           "leading_order_happ", "lyapunov_perron_hc", "lyapunov_perron_sweep",
           "smoothstep", "order_fit"]

MAX_ITERS = 200    # the LP's limit: Picard sweeps, or Newton-Krylov steps


class NonConvergenceError(RuntimeError):
    """The iteration ran out of sweeps or met a non-finite distance."""


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
            raise ValueError(f"alpha_1 = {self.alpha0[1]!r} is not 0: the Taylor "
                             "map needs a graph tangent to the center space")


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


def leading_order_happ(sys: NumericSystem, xi, rp: RoughPath) -> float | np.ndarray:
    """First-sweep stable value driven by the linearized center flow.

    Sums, over unit blocks of the window [-N, 0], the stable-semigroup
    convolution of the degree-l parts of the fields evaluated along
    t -> e^{Ac t} xi, each block weighted by the decay to time 0; l is the
    least degree of a y-free monomial of Fs or Gs, and with none h^app is 0.
    xi is a number or an array, and the result has its shape; rp is a
    rough path on [-N, 0].
    """
    if sys.As >= 0:
        raise ValueError(f"stable block {sys.As} is not exponentially stable")
    bl = _Blocks(rp, sys.d)
    # h^app evaluates the fields on y = 0, so only monomials free of y lead
    degs = [sum(k) for f in [sys.Fs] + sys.Gs for k in f.coeffs if k[1] == 0]
    out = np.zeros(np.shape(xi))
    if degs:
        l = min(degs)
        Fl, Gl = sys.Fs.leading(l), [g.leading(l) for g in sys.Gs]
        x = np.exp(sys.Ac * bl.times) * np.asarray(xi, dtype=float)[..., None, None]
        gY = np.stack([g(x, 0.0) for g in Gl], axis=-1)
        part = bl.convolve(sys.As, Fl(x, 0.0), gY, np.zeros(gY.shape + (bl.d,)))[..., -1]
        # cumsum adds the blocks' shares one after another, from the earliest
        out = np.cumsum(np.exp(sys.As * (-1 - bl.times[:, 0])) * part, axis=-1)[..., -1]
    return float(out) if out.ndim == 0 else out


class _Blocks:
    """The unit blocks [b, b+1], b = -N..-1, of a rough path on a window
    [-N, 0] with d channels, each on the unit `grid` of [0, 1]: W (re-based
    to vanish at the block's first node), WW, the nodes' window `times` and
    their indices `idx` in the path are stacked along a leading block axis."""

    def __init__(self, rp: RoughPath, d: int):
        if rp.grid.t1 != 0.0:
            raise ValueError(f"the window of {rp.grid} must end at time 0")
        self.grid, self.idx, self.W, self.WW = _unit_split(rp)
        if rp.d != d:
            raise ValueError(f"the rough path has {rp.d} channel(s) but the system "
                             f"has {d} noise channel(s)")
        self.d, self.gamma = rp.d, rp.gamma
        self.times = np.arange(-len(self.idx), 0)[:, None] + self.grid.nodes

    def convolve(self, A, f: np.ndarray, gY: np.ndarray, gYp: np.ndarray) -> np.ndarray:
        """Drift f and diffusion (gY, gYp) convolved over every block, with
        any leading axes before the block axis; A is a scalar or one rate per
        row of those axes.  A block where gY vanishes gets no diffusion part,
        not even from gYp."""
        out = convolve_drift(A, f, self.grid)
        noisy = np.any(gY, axis=(-2, -1))[..., None]
        if np.any(noisy):
            return np.where(noisy, out + convolve_diffusion(A, gY, gYp, self), out)
        return out


@dataclass
class LPConfig:
    """The LP's cutoff radius R and stopping tolerance, `verify`'s by default."""
    cutoff_R: float = 0.5
    fp_tol: float = 1e-10

    def __post_init__(self):
        if not self.cutoff_R > 0:
            raise ValueError("cutoff radius must be positive")
        if not (math.isfinite(self.fp_tol) and self.fp_tol > 0):
            raise ValueError("fixed-point tolerance must be positive and finite")


@dataclass
class LPResult:
    """How the solve of one xi ended: converged exactly when `error` is None,
    else `error` is a NonConvergence-, NonContraction- or NewtonConvergenceError.

    `distances` holds a certified upper bound on each step's distance, the
    exact distance where a test needed it, and the last two are exact.
    `rates` holds a certified upper bound on each contraction rate where
    that is below 1, the exact rate otherwise, and the last one is exact.
    """
    hc: float = math.nan
    state: np.ndarray | None = None    # the xi's (N, .) state; None if Newton failed
    iterations: int = 0                # Picard sweeps or Newton-Krylov steps
    distances: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    norm_breach: bool = False
    error: RuntimeError | None = None

    @property
    def converged(self) -> bool:
        return self.error is None


class _Sweep:
    """One application of the window-truncated graph-transform map, for K
    boundary values xi on one rough path.

    The state is one (K, N, .) array with a row per xi and unit block,
    holding the values (x, y) and then the Gubinelli derivatives (x', y'),
    all sampled on the block's unit grid; `values` and `derivs` are views of
    the two parts, of this or of any state with the same last axis.
    """

    def __init__(self, sys: NumericSystem, xis, rp, lp: LPConfig):
        self.sys = sys
        self.xi = np.asarray(xis, dtype=float)
        self.lp = lp
        self.blocks = _Blocks(rp, sys.d)
        self.N = len(self.blocks.idx)
        if self.N < 2:
            raise ValueError(f"the window of {rp.grid} must span at least 2 "
                             "unit blocks")
        self.nu = self.blocks.grid.n
        self.d = self.blocks.d
        self.width = 2 * (self.nu + 1) * (1 + self.d)    # of one block's row
        self.weights = np.exp(-0.5 * sys.As * (self.blocks.times[:, 0] + 1))
        # gaps of k = 1..nu cells, with the same time spans as norm_d2g's pairs
        self.gaps = np.arange(1, self.nu + 1)
        dt = self.gaps * self.blocks.grid.h
        self.dt_g = dt ** self.blocks.gamma
        self.dt_2g = dt ** (2 * self.blocks.gamma)
        _, self.gap_W = _gap_bounds(self.blocks.W, self.gaps)
        ii, jj, _ = _pair_table(self.blocks.grid)
        self.pairs = (ii, jj, self.dt_g[jj - ii - 1], self.dt_2g[jj - ii - 1])
        self.dW = self.blocks.W[:, jj] - self.blocks.W[:, ii]
        # per block k, the decay of its end value back over blocks 0..k (x)
        # and forward over the later blocks (y)
        times = self.blocks.times
        self.tails = [(np.exp(sys.Ac * (times[:k + 1] - end)),
                       np.exp(sys.As * (times[k + 1:] - end)))
                      for k, end in enumerate(times[:, 0] + 1)]
        # per component (center, stable): F and each channel's G with its
        # partials in x, y, and A as the rate of the component's rows
        self.fields = tuple((F, [(g, g.partial(0), g.partial(1)) for g in Gf])
                            for F, Gf in ((sys.Fc, sys.Gc), (sys.Fs, sys.Gs)))
        self.A = np.array([sys.Ac, sys.As])[:, None, None]

    def zero_state(self) -> np.ndarray:
        return np.zeros((len(self.xi), self.N, self.width))

    def values(self, state: np.ndarray) -> np.ndarray:
        """(..., N, 2, nu+1) view of (x, y)."""
        return state[..., :2 * (self.nu + 1)].reshape(state.shape[:-1] + (2, self.nu + 1))

    def derivs(self, state: np.ndarray) -> np.ndarray:
        """(..., N, 2, nu+1, d) view of (x', y')."""
        return state[..., 2 * (self.nu + 1):].reshape(
            state.shape[:-1] + (2, self.nu + 1, self.d))

    def flow_state(self, k: int) -> np.ndarray:
        """Initial guess for xi[k], an (N, .) state: a saturated backward
        sweep with the stable component slaved to its quasi-static balance
        y = -Fs(x, 0)/As."""
        sys, N, nu = self.sys, self.N, self.nu
        cap = 0.5 * self.lp.cutoff_R
        h = 1.0 / nu
        xs = np.empty(N * nu + 1)
        x = xs[-1] = self.xi[k]
        for j in range(N * nu, 0, -1):
            y = -sys.Fs(x, 0.0) / sys.As
            x = xs[j - 1] = min(max(x - h * (sys.Ac * x + sys.Fc(x, y)), -cap), cap)
        ys = -sys.Fs(xs, 0.0) / sys.As
        x, y = xs[self.blocks.idx], ys[self.blocks.idx]
        state = np.zeros((N, self.width))
        V, D = self.values(state), self.derivs(state)
        V[:, 0], V[:, 1] = x, y
        for c, Gf in enumerate((sys.Gc, sys.Gs)):
            for ch, g in enumerate(Gf):
                D[:, c, :, ch] = g(x, y)
        return state

    def exact_norms(self, state: np.ndarray, rows, blocks) -> np.ndarray:
        """The exact D^{2 gamma} norm of block i of state[k] for each k, i of
        rows, blocks, stacked up to 2**14 node pairs (or one block) per call
        to bound memory."""
        out, step = np.empty(len(rows)), max(1, 2**14 // len(self.pairs[0]))
        for c in range(0, len(rows), step):
            k, i = rows[c:c + step], blocks[c:c + step]
            Y = np.swapaxes(self.values(state)[k, i], -1, -2)
            Yp = np.moveaxis(self.derivs(state)[k, i], -3, -2)
            out[c:c + step] = D2GNorm(*d2g_terms(Y, Yp, self.dW[i], self.pairs)).total
        return out

    def norm_bounds(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds L[k, i] <= the exact norm of block i of state[k] <= U[k, i].

        O(N nu) against the O(N nu^2) exact norms: L is the two sup terms,
        which are exact, and U adds to them the Hölder terms with a pair of
        nodes k cells apart given the gap bounds of `_gap_bounds` for Y, Y'
        and W, and |R| <= |dY| + sup|Y'| |dW|.  The relative margins cover
        the rounding of both computations.
        """
        Y = np.swapaxes(self.values(state), -1, -2)
        Yp = np.moveaxis(self.derivs(state), -3, -2)
        sup_Y, gap_Y = _gap_bounds(Y, self.gaps)
        sup_Yp, gap_Yp = _gap_bounds(Yp.reshape(Yp.shape[:-2] + (-1,)), self.gaps)
        holder_Yp = np.max(gap_Yp / self.dt_g, axis=-1)
        holder_R = np.max((gap_Y + sup_Yp[..., None] * self.gap_W) / self.dt_2g,
                          axis=-1)
        sup = sup_Y + sup_Yp
        return sup * (1.0 - 1e-9), (sup + holder_Yp + holder_R) * (1.0 + 1e-9)

    def cutoff_factors(self, state: np.ndarray) -> np.ndarray:
        """The cutoff factor smoothstep(norm / R) of every block of every xi.
        The ramp is exactly 1 up to R/2, so only blocks whose norm bound
        exceeds R/2 (or is nan) need their exact norm, and the ramp is
        exactly 0 from R on, so no block whose finite lower bound reaches R."""
        R = self.lp.cutoff_R
        L, U = self.norm_bounds(state)
        s = np.ones(U.shape)
        cut = (L >= R) & np.isfinite(L)
        s[cut] = 0.0
        k, i = np.nonzero(~(U / R <= 0.5) & ~cut)
        s[k, i] = [smoothstep(float(n) / R) for n in self.exact_norms(state, k, i)]
        return s

    def apply(self, state: np.ndarray, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """New state, and per xi whether any block norm breached the cutoff
        ramp.  The state holds the sweep's xi[rows]."""
        sys, bl = self.sys, self.blocks
        V, D = self.values(state), self.derivs(state)
        new = np.zeros(state.shape)
        nV = self.values(new)
        # both components in one convolution: (2, K, N, .) with the center
        # first; the diffusion is written straight into the new derivatives
        gY = np.moveaxis(self.derivs(new), 2, 0)
        gYp = np.zeros(gY.shape + (self.d,))
        f = np.empty(gY.shape[:-1])
        s = self.cutoff_factors(state)[..., None, None]
        x, y = np.moveaxis(s * V, -2, 0)
        for c, (F, Gf) in enumerate(self.fields):
            f[c] = F(x, y)
            for ch, (g, g_x, g_y) in enumerate(Gf):
                gY[c, ..., ch] = g(x, y)
                gYp[c, ..., ch, :] = (g_x(x, y)[..., None] * D[:, :, 0] +
                                      g_y(x, y)[..., None] * D[:, :, 1]) * s
        C = bl.convolve(self.A, f, gY, gYp)
        x, y = nV[:, :, 0], nV[:, :, 1]
        x[:] = np.exp(sys.Ac * bl.times) * self.xi[rows, None, None] + C[0]
        y[:] = C[1]
        ends = C[:, :, :, -1, None, None]
        for k, (back, forward) in enumerate(self.tails):    # added in order
            x[:, :k + 1] -= back * ends[0, :, k]
            y[:, k + 1:] += forward * ends[1, :, k]
        return new, np.any(s < 1.0, axis=(1, 2, 3))

    def distance(self, state_a: np.ndarray, state_b: np.ndarray) -> np.ndarray:
        """Window-truncated exponentially weighted distance of sequences,
        per xi: the max over blocks of weighted exact norms, to the bit.
        nan for a xi with a bound that is not finite.
        """
        diff = state_a - state_b
        bounds = self.weights * self.norm_bounds(diff)[1]
        out = np.full(len(diff), np.nan)
        rows = np.flatnonzero(np.all(np.isfinite(bounds), axis=1))
        out[rows] = self.exact_distances(diff[rows], bounds[rows])
        return out

    def exact_distances(self, diff: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """The weighted distance max_i weights[i] |diff[k, i]| of each row k,
        exact, given finite bounds[k, i] >= weights[i] |diff[k, i]|.

        Two stacked evaluations: the block with the largest bound of each
        row, then every other block whose bound exceeds that exact value;
        no block left out can hold the maximum.
        """
        rows = np.arange(len(diff))
        top = np.argmax(bounds, axis=1)
        out = self.weights[top] * self.exact_norms(diff, rows, top)
        more = bounds > out[:, None]
        more[rows, top] = False
        k, i = np.nonzero(more)
        np.maximum.at(out, k, self.weights[i] * self.exact_norms(diff, k, i))
        return out


def _gap_bounds(Z: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup_t |Z_t| per block, and per gap of k cells a bound on |Z_t - Z_s|.

    Z is (..., blocks, nodes, components).  The bound is the smaller of k
    times the largest cell increment and twice the sup.
    """
    sup = np.max(np.linalg.norm(Z, axis=-1), axis=-1)
    step = np.max(np.linalg.norm(np.diff(Z, axis=-2), axis=-1), axis=-1)
    return sup, np.minimum(k * step[..., None], 2 * sup[..., None])


def lyapunov_perron_sweep(sys: NumericSystem, xis, rp: RoughPath, lp: LPConfig,
                          solver: str = "picard") -> list[LPResult]:
    """Fixed points of the window-truncated graph-transform iteration, one
    LPResult per boundary value in xis, all on the rough path rp.

    The window [-N, 0] of rp, which must end at 0 and span N >= 2 whole
    unit blocks, is split into those blocks; each sweep recomputes the
    sequence of controlled paths from the center boundary value xi and the
    cut-off fields, block convolutions reusing the same discretization as
    the stationary-coefficient solver.  The stable component at time 0 of
    the converged sequence is the reference manifold value h^c(xi, W).
    The sequence distance weights block [b, b+1] by e^{-eta (b+1)} with
    eta = As/2, in the spectral gap (As, 0); eta sets only where a solve stops.

    solver="picard" iterates the map for every xi at once, each sweep
    serving the xi still running.  A xi stops on its own: converged, or
    with its `error` set to a NonConvergenceError at a non-finite distance
    or out of sweeps, or to a NonContractionError once it stops
    contracting.  solver="newton" solves the same fixed-point equation by a
    Jacobian-free Newton-Krylov method, one xi at a time; it is needed when
    |xi| is large enough that the backward center orbit grows and the plain
    iteration expands, starts from a saturated backward-flow guess, and
    records a failed solve, or a solution whose distance is not below
    2 fp_tol, as a NewtonConvergenceError.
    """
    if sys.As >= 0:
        raise ValueError(f"stable block {sys.As} is not exponentially stable")
    if not all(math.isfinite(xi) and abs(xi) <= lp.cutoff_R for xi in xis):
        raise ValueError("xi outside the cutoff radius")
    sweep = _Sweep(sys, xis, rp, lp)
    if solver == "picard":
        return _picard(sweep)
    if solver == "newton":
        return [_newton(sweep, k) for k in range(len(sweep.xi))]
    raise ValueError("solver must be 'picard' or 'newton'")


def _picard(sweep: _Sweep) -> list[LPResult]:
    """Plain sweeps for every xi at once, each xi stopping on its own.

    A sweep's bound pass gives each running xi bounds L <= d <= U on the
    distance d of its step, and each test is decided on them where they
    suffice: U < fp_tol stops, L >= fp_tol goes on, and U over the previous
    step's lower bound, when below 1, bounds the contraction rate.  The
    exact d is taken, in one stacked evaluation per sweep, where they do
    not, and for the last two steps of a xi that may stop.  So every
    decision is that of the exact distances, and each xi's last two
    distances and last rate are exact; the others are upper bounds.
    """
    tol = sweep.lp.fp_tol
    state = sweep.zero_state()
    results = [LPResult(state=st) for st in state]
    # per xi, its steps n, n-1 and n-2 in slots n % 3: the state difference
    # and weighted block bounds, in buffers made once (keeping each sweep's
    # own arrays instead made the heap re-fault its pages every sweep), and
    # L and the exact d, None until taken
    diffs = np.zeros((3,) + state.shape)
    bounds = np.zeros((3,) + state.shape[:2])
    lower = [[0.0] * len(state) for _ in range(3)]
    exact = [[None] * len(state) for _ in range(3)]
    running = np.arange(len(results))
    for it in range(1, MAX_ITERS + 1):
        if not len(running):
            break
        now, prev, prev2 = it % 3, (it - 1) % 3, (it - 2) % 3
        old = state[running]
        new, breach = sweep.apply(old, running)
        diffs[now, running] = new - old
        state[running] = new
        L, U = sweep.norm_bounds(diffs[now, running])
        U *= sweep.weights
        bounds[now, running] = U
        lows = np.max(sweep.weights * L, axis=1).tolist()
        ups = [u if math.isfinite(u) else math.nan for u in np.max(U, axis=1).tolist()]
        rate_bounds, todo = [], []
        for k, low, up in zip(running.tolist(), lows, ups):
            lower[now][k], exact[now][k] = low, None
            rate = None
            if it > 1 and not math.isnan(up):
                # the xi went on from a step with d >= fp_tol > 0
                known = exact[prev][k]
                rate = up / (lower[prev][k] if known is None else known)
                rate = rate if rate < 1.0 else None
            rate_bounds.append(rate)
            # the exact d of this step where the bounds leave a test open
            # or the xi may stop, and of the last step too for the exact
            # rate; of the two steps before a non-finite one for its last rate
            if math.isnan(up):
                todo += [(prev, k)] * (it > 1) + [(prev2, k)] * (it > 2)
            elif it == MAX_ITERS or low < tol or (it > 1 and rate is None):
                todo += [(now, k)] + [(prev, k)] * (it > 1)
        todo = [(s, k) for s, k in todo if exact[s][k] is None]
        if todo:
            slot, rows = np.array(todo).T
            for (s, k), d in zip(todo, sweep.exact_distances(diffs[slot, rows],
                                                             bounds[slot, rows])):
                exact[s][k] = d
        still = []
        for k, b, up, rate in zip(running.tolist(), breach.tolist(), ups, rate_bounds):
            res = results[k]
            res.iterations = it
            res.norm_breach = res.norm_breach or b
            if it > 1 and exact[prev][k] is not None:
                res.distances[-1] = exact[prev][k]
            # U only where it decided the stop, so d >= fp_tol is the test
            d = up if exact[now][k] is None else exact[now][k]
            res.distances.append(d)
            if math.isnan(d):
                if it > 2:
                    res.rates[-1] = exact[prev][k] / exact[prev2][k]
                res.error = NonConvergenceError(
                    f"not converged: fixed-point distance {d} is not finite at "
                    f"iteration {it}")
                continue
            if it > 1:
                res.rates.append(rate if exact[now][k] is None else d / exact[prev][k])
                if len(res.rates) >= 5 and all(r >= 1.0 for r in res.rates[-5:]):
                    res.error = NonContractionError(it, res.rates[-1])
                    continue
            if d >= tol:
                still.append(k)
        running = np.array(still, dtype=int)
    for res in (results[k] for k in running):
        res.error = NonConvergenceError(
            f"not converged: fixed-point distance {res.distances[-1]:.3g} after "
            f"{res.iterations} iteration(s), the iteration limit")
    for res in results:
        res.hc = float(sweep.values(res.state)[-1, 1, -1])
    return results


def _newton(sweep: _Sweep, k: int) -> LPResult:
    """Newton-Krylov for xi[k] alone, through the same sweep."""
    from scipy.optimize import NoConvergence, newton_krylov

    lp, N = sweep.lp, sweep.N

    def residual(u):
        new_state, _ = sweep.apply(u.reshape(1, N, -1), [k])
        return u - new_state.ravel()

    # the weighted sequence distance amplifies pointwise residuals by the
    # fine-scale Hölder factor, so solve a bit below the requested tol
    f_tol = max(lp.fp_tol / (sweep.nu ** (2 * sweep.blocks.gamma)), 1e-14)
    u0 = sweep.flow_state(k).ravel()
    steps = []
    try:
        u = newton_krylov(residual, u0, method="lgmres", f_tol=f_tol,
                          maxiter=MAX_ITERS, callback=lambda x, f: steps.append(1))
    except NoConvergence as exc:
        error = NewtonConvergenceError(
            f"Newton-Krylov solve did not converge in {MAX_ITERS} "
            "iterations; shrink |xi|")
        error.__cause__ = exc
        return LPResult(iterations=MAX_ITERS, error=error)
    state = u.reshape(1, N, -1)
    new_state, breach = sweep.apply(state, [k])
    dist = sweep.distance(new_state, state)[0]
    error = None if dist < 2 * lp.fp_tol else NewtonConvergenceError(
        f"Newton-Krylov solution has fixed-point distance {dist:.3g}, not below "
        f"2 fp_tol = {2 * lp.fp_tol:.3g}")
    return LPResult(hc=float(sweep.values(new_state)[0, -1, 1, -1]),
                    state=new_state[0], iterations=len(steps), distances=[dist],
                    norm_breach=bool(breach[0]), error=error)


def lyapunov_perron_hc(sys: NumericSystem, xi: float, rp: RoughPath,
                       lp: LPConfig, solver: str = "picard") -> LPResult:
    """The fixed point for one boundary value xi: `lyapunov_perron_sweep`
    of [xi], which raises the error the sweep records for a xi that did not
    converge."""
    res, = lyapunov_perron_sweep(sys, [xi], rp, lp, solver)
    if res.error is not None:
        raise res.error
    return res


def order_fit(xis, errors) -> float:
    """Least-squares slope of log error against log |xi|, over the positive
    errors only."""
    xis = np.asarray(xis, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 4:
        raise ValueError("need at least 4 positive errors for an order fit")
    slope, _ = np.polyfit(np.log(np.abs(xis[mask])), np.log(errors[mask]), 1)
    return float(slope)
