"""Grid-sampled Hölder rough paths.

A rough path is stored as node samples of the first level W together with
per-cell increments of the second level WW.  Second-level values over
non-adjacent node pairs are reconstructed through Chen's relation, so the
Chen identity holds by construction and only per-cell data is ever stored.

All Hölder quantities are grid seminorms: suprema over node pairs.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "Grid",
    "RoughPath",
    "CovarianceFactorizationError",
    "lift_brownian",
    "lift_fbm",
    "unit_block",
    "coarsen",
    "validate",
]


class CovarianceFactorizationError(RuntimeError):
    """Cholesky factorization of a sample covariance failed."""

    def __init__(self, n_nodes: int):
        super().__init__(
            f"covariance matrix at {n_nodes} nodes is not numerically "
            "positive definite; reduce the node count or the dyadic level"
        )
        self.n_nodes = n_nodes


def _is_integer(x) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class Grid:
    """Uniform grid on [t0, t1] with n cells."""

    def __init__(self, t0: float, t1: float, n: int):
        if not _is_integer(n) or n < 1:
            raise ValueError("grid needs a positive integer cell count")
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError("grid endpoints must be finite")
        if not t1 > t0:
            raise ValueError("grid endpoints must be increasing")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.n = int(n)

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n + 1)

    def __repr__(self) -> str:
        return f"Grid({self.t0}, {self.t1}, {self.n})"


class RoughPath:
    """Geometric rough path (W, WW) sampled on a uniform grid.

    W has shape (n+1, d): first-level node samples, normalised so W[0] = 0.
    WW has shape (n, d, d): second-level increments over adjacent cells,
    convention WW[k][a, b] = int_{t_k}^{t_{k+1}} W^a_{t_k, r} dW^b_r.
    """

    def __init__(self, gamma: float, grid: Grid, W: np.ndarray, WW: np.ndarray):
        if not (1 / 3 < gamma <= 1 / 2):
            raise ValueError("gamma must lie in (1/3, 1/2]")
        W = np.asarray(W, dtype=float)
        WW = np.asarray(WW, dtype=float)
        if W.ndim != 2 or W.shape[0] != grid.n + 1:
            raise ValueError("W must have shape (n+1, d)")
        d = W.shape[1]
        if WW.shape != (grid.n, d, d):
            raise ValueError("WW must have shape (n, d, d)")
        self.gamma = float(gamma)
        self.grid = grid
        self.W = W - W[0]
        self.WW = WW

    @property
    def d(self) -> int:
        return self.W.shape[1]

    @property
    def n(self) -> int:
        return self.grid.n

    def _prefix_second(self) -> np.ndarray:
        """P[j] = WW_{t_0, t_j}, built by composing cells via Chen.

        WW_k and W_k (x) dW_k alternate in one array, so a single accumulate
        adds them in the order P[k+1] = (P[k] + WW_k) + W_k (x) dW_k.
        """
        terms = np.zeros((2 * self.n + 1, self.d, self.d))
        terms[1::2] = self.WW
        terms[2::2] = self.W[:-1, :, None] * np.diff(self.W, axis=0)[:, None, :]
        return np.add.accumulate(terms)[::2]

    def second(self, i, j) -> np.ndarray:
        """Second-level increments WW_{t_i, t_j}, reconstructed via Chen.

        i and j are node indices or broadcastable integer arrays of them;
        the result has shape (..., d, d).
        """
        if np.any(i < 0) or np.any(i > j) or np.any(j > self.n):
            raise ValueError("node indices out of range")
        P = self._prefix_second()
        return P[j] - P[i] - self.W[i][..., :, None] * (self.W[j] - self.W[i])[..., None, :]

    def holder_norms(self) -> tuple[float, float]:
        """Grid seminorms (|W|_gamma, |WW|_{2 gamma}) over all node pairs."""
        ii, jj, dt = _pair_table(self.grid)
        w = np.linalg.norm(self.W[jj] - self.W[ii], axis=1)
        ww = np.linalg.norm(self.second(ii, jj).reshape(len(ii), -1), axis=1)
        return float(np.max(w / dt**self.gamma)), float(np.max(ww / dt ** (2 * self.gamma)))


def _pair_table(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node pairs i < j of the grid and their time gaps t_j - t_i."""
    ii, jj = np.triu_indices(grid.n + 1, k=1)
    return ii, jj, (jj - ii) * grid.h


def _piecewise_linear_lift(samples: np.ndarray, span: Grid, gamma: float) -> RoughPath:
    """Canonical lift at the sample resolution: WW = (1/2) dW (x) dW per cell."""
    m = samples.shape[0] - 1
    grid = Grid(span.t0, span.t1, m)
    dW = np.diff(samples, axis=0)
    WW = 0.5 * np.einsum("ka,kb->kab", dW, dW)
    return RoughPath(gamma, grid, samples, WW)


def coarsen(rp: RoughPath, factor: int) -> RoughPath:
    """Chen-compose cells in groups of `factor`."""
    if not _is_integer(factor) or factor < 1:
        raise ValueError("coarsening factor must be a positive integer")
    if rp.n % factor != 0:
        raise ValueError("cell count must be divisible by the coarsening factor")
    nodes = np.arange(0, rp.n + 1, factor)
    WW = rp.second(nodes[:-1], nodes[1:])
    return RoughPath(rp.gamma, Grid(rp.grid.t0, rp.grid.t1, len(nodes) - 1), rp.W[nodes], WW)


def lift_brownian(seed: int, grid: Grid, d: int = 1, gamma: float = 0.45) -> RoughPath:
    """Stratonovich lift of a Brownian realisation, deterministic given seed.

    For d = 1 the second level is forced by geometricity, WW = (1/2) dW^2
    per cell.  For d > 1 the path is sampled on a grid refined 16-fold,
    lifted as a piecewise-linear path and coarsened via Chen, so the Levy
    area carries the bias of the linear interpolant only.
    """
    if not _is_integer(d) or d < 1:
        raise ValueError("d must be a positive integer")
    rng = np.random.default_rng(seed)
    if d == 1:
        dW = rng.normal(0.0, math.sqrt(grid.h), size=(grid.n, 1))
        W = np.vstack([np.zeros((1, 1)), np.cumsum(dW, axis=0)])
        WW = 0.5 * np.einsum("ka,kb->kab", dW, dW)
        return RoughPath(gamma, grid, W, WW)
    refinement = 16
    m = grid.n * refinement
    dW = rng.normal(0.0, math.sqrt(grid.h / refinement), size=(m, d))
    W = np.vstack([np.zeros((1, d)), np.cumsum(dW, axis=0)])
    fine = _piecewise_linear_lift(W, grid, gamma)
    return coarsen(fine, refinement)


@functools.lru_cache(maxsize=1)
def _fbm_factor(hurst: float, span: float, n: int, level: int) -> np.ndarray:
    """Read-only Cholesky factor of the exact fBm covariance at the m = n 2**level
    times span k / m, k = 1..m.  The covariance is filled in one m x m
    buffer, lower triangle only, in blocks of rows; the factor is the only
    other m x m array.  One slot: the factor of the last parameters only."""
    m = n * 2**level
    t = span * np.arange(1, m + 1) / m
    p = t ** (2 * hurst)
    cov = np.zeros((m, m))  # np.linalg.cholesky reads only the lower triangle and diagonal
    for r0 in range(0, m, 256):  # 0.5 (t^2H + s^2H - |t - s|^2H), 256 rows at a time
        block = np.add(p[r0:r0 + 256, None], p[None, :r0 + 256], out=cov[r0:r0 + 256, :r0 + 256])
        block -= np.abs(t[r0:r0 + 256, None] - t[None, :r0 + 256]) ** (2 * hurst)
        block *= 0.5
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise CovarianceFactorizationError(m) from exc
    L.flags.writeable = False
    return L


def lift_fbm(seed: int, hurst: float, grid: Grid, dyadic_level: int = 3) -> RoughPath:
    """Exact-covariance fractional Brownian lift.

    Samples fBm at the grid refined dyadically by 2**dyadic_level via a
    Cholesky factor of the exact covariance, then lifts the piecewise-linear
    interpolant and coarsens via Chen.  The factor depends only on hurst,
    the grid's length and cell count and the level, so lifts of other seeds
    reuse it: the last factor, 8 m**2 bytes at m = grid.n 2**dyadic_level,
    stays alive until a lift with other parameters replaces it.
    """
    if not (1 / 3 < hurst <= 1 / 2):
        raise ValueError("hurst must lie in (1/3, 1/2]")
    if not _is_integer(dyadic_level) or dyadic_level < 0:
        raise ValueError("dyadic_level must be a non-negative integer")
    gamma = max(hurst - 0.03 if hurst < 0.37 else hurst, 1 / 3 + 1e-6)
    refinement = 2**dyadic_level
    L = _fbm_factor(hurst, grid.nodes[-1] - grid.t0, grid.n, dyadic_level)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(L.shape[0])
    W = np.concatenate([[0.0], L @ z])[:, None]
    fine = _piecewise_linear_lift(W, grid, gamma)
    return coarsen(fine, refinement)


def _unit_split(rp: RoughPath) -> tuple[Grid, np.ndarray, np.ndarray, np.ndarray]:
    """rp cut into the unit blocks [b, b+1] of its window, each moved to
    [0, 1]: the unit grid, the (blocks, nu+1) table of each block's node
    indices in rp (adjacent blocks share their boundary node), and W,
    re-based to vanish at each block's first node, and WW, both stacked
    along a leading block axis.  The window's ends must be integer times."""
    t0, t1 = rp.grid.t0, rp.grid.t1
    if not (t0.is_integer() and t1.is_integer() and rp.n % (t1 - t0) == 0):
        raise ValueError(f"the window of {rp.grid} does not split into whole "
                         "unit blocks [b, b+1] of integer b")
    N = round(t1 - t0)
    nu = rp.n // N
    idx = nu * np.arange(N)[:, None] + np.arange(nu + 1)
    return (Grid(0.0, 1.0, nu), idx, rp.W[idx] - rp.W[idx[:, :1]],
            rp.WW.reshape(N, nu, rp.d, rp.d))


def unit_block(rp: RoughPath, k: int) -> RoughPath:
    """The block of rp over [k, k+1], shifted to live on [0, 1]."""
    if not (_is_integer(k) and rp.grid.t0 <= k < rp.grid.t1):
        raise ValueError(f"[{k!r}, {k!r} + 1] is no unit block of the window "
                         f"of {rp.grid}")
    grid, _, W, WW = _unit_split(rp)
    b = k - round(rp.grid.t0)
    return RoughPath(rp.gamma, grid, W[b], WW[b])


def validate(rp: RoughPath) -> dict:
    """Diagnostic report: Chen defect, geometry defect, Hölder seminorms."""
    chen = _chen_defect(rp)
    dW = np.diff(rp.W, axis=0)
    sym = 0.5 * (rp.WW + np.swapaxes(rp.WW, 1, 2))
    target = 0.5 * np.einsum("ka,kb->kab", dW, dW)
    geometry = float(np.max(np.abs(sym - target)))
    h1, h2 = rp.holder_norms()
    return {
        "chen_defect_max": chen,
        "geometry_defect_max": geometry,
        "holder_norm_1": h1,
        "holder_norm_2": h2,
    }


def _chen_defect(rp: RoughPath) -> float:
    """Max over node triples s < u < t of the Chen identity defect."""
    ii, jj, _ = _pair_table(rp.grid)
    table = np.zeros((rp.n + 1, rp.n + 1, rp.d, rp.d))
    table[ii, jj] = rp.second(ii, jj)
    worst = 0.0
    for u in range(1, rp.n):
        # WW_{i,j} - WW_{i,u} - WW_{u,j} - W_{i,u} (x) W_{u,j} over the grid
        Wiu = rp.W[u] - rp.W[:u]          # (I, d)
        Wuj = rp.W[u + 1:] - rp.W[u]      # (J, d)
        defect = (table[:u, u + 1:] - table[:u, u, None] - table[None, u, u + 1:]
                  - np.einsum("ia,jb->ijab", Wiu, Wuj))
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst
