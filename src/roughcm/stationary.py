"""Stationary solutions of the coefficient RDEs by truncated backward convolution.

All integrals run over a sampled rough path on [-T, 0]; the infinite past is
truncated at -T and the exponential decay of the linear part bounds the tail.
The triangular structure of the coefficient system lets the orders be solved
in sequence, each forcing evaluated pathwise on the already-solved orders.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .controlled import ControlledPath, norm_d2g
from .gubinelli import convolve_diffusion
from .invariance import CoefficientSystem, NumericField, alpha
from .rde import solve_affine
from .roughpath import RoughPath, restrict

__all__ = ["NonStableOrderError", "StationaryPath", "HierarchyResult",
           "ou_stationary", "stationary_affine", "solve_hierarchy",
           "stationarity_check"]


class NonStableOrderError(ValueError):
    def __init__(self, A: float, order: int | None = None):
        label = f"order {order}: " if order is not None else ""
        super().__init__(
            f"{label}linear part {A} is not exponentially stable; the "
            "stationary backward integral needs Re(A) < 0 (a non-resonance "
            "condition on the block spectra)")


@dataclass
class StationaryPath:
    path: ControlledPath
    tail_bound: float


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


def stationary_affine(A, f: np.ndarray | None, g: ControlledPath | None,
                      rp: RoughPath, init: str = "quasistatic",
                      order: int | None = None) -> StationaryPath:
    """Stationary solution of d alpha = (A alpha + f) dt + g dW on [-T, 0].

    The backward integral over the infinite past is truncated at -T.  With
    init="quasistatic" the drift part starts from the slowly-varying value
    -f(-T)/A instead of zero, which removes the O(e^{-(t+T)}) transient of a
    cold start; init="zero" keeps the plain truncated integral (useful when
    a matching truncation is needed elsewhere).
    """
    a = float(np.asarray(A))
    if a >= 0:
        raise NonStableOrderError(a, order)
    T = rp.grid.t1 - rp.grid.t0
    if init == "quasistatic" and f is not None:
        y0 = -float(np.asarray(f).reshape(rp.n + 1, -1)[0, 0]) / a
    elif init in ("quasistatic", "zero"):
        y0 = 0.0
    else:
        raise ValueError("init must be 'quasistatic' or 'zero'")
    cp = solve_affine(a, f, g, rp, y0)
    scale = 1.0 if f is None else float(np.max(np.abs(f)))
    return StationaryPath(cp, tail_bound=np.exp(a * T) * max(scale, 1.0))


@dataclass
class HierarchyResult:
    alphas: dict[int, ControlledPath]
    alpha0: dict[int, float]
    zero_flags: set[int]
    tail_bounds: dict[int, float]
    block_norms: dict[int, float]


def _numeric(expr: sp.Expr, atoms: list[sp.Symbol]) -> NumericField:
    return NumericField({k: float(c) for k, c in sp.Poly(expr, *atoms).terms()})


def solve_hierarchy(cs: CoefficientSystem, rp: RoughPath,
                    params: dict[str, float] | None = None,
                    init: str = "quasistatic") -> HierarchyResult:
    """Solve the coefficient RDEs order by order along the sampled path.

    Forcings are evaluated pathwise by substituting the already-solved
    orders; diffusion forcings become controlled paths via the product
    rule on the solved Gubinelli derivatives.  Flagged orders are the zero
    path.
    """
    subs = {sp.Symbol(k): v for k, v in (params or {}).items()}
    n, d = rp.n, rp.d
    atoms = [alpha(i) for i in range(1, cs.q + 1)]
    vals: list[np.ndarray] = [np.zeros(n + 1) for _ in atoms]
    derivs: list[np.ndarray] = [np.zeros((n + 1, d)) for _ in atoms]
    alphas: dict[int, ControlledPath] = {}
    alpha0: dict[int, float] = {}
    tails: dict[int, float] = {}
    norms: dict[int, float] = {}
    for i in range(1, cs.q + 1):
        if i in cs.zero_flags:
            alphas[i] = ControlledPath(rp, np.zeros(n + 1))
            alpha0[i] = 0.0
            tails[i] = 0.0
            continue
        A_i = float(sp.N(cs.A_alpha[i].subs(subs)))
        f_nodes = _numeric(cs.f[i].subs(subs), atoms)(*vals)
        g_fields = [_numeric(e.subs(subs), atoms) for e in cs.g[i]]
        g_cp = None
        if any(g.coeffs for g in g_fields):
            gY = np.zeros((n + 1, d))
            gYp = np.zeros((n + 1, d, d))
            for b, g in enumerate(g_fields):
                gY[:, b] = g(*vals)
                for mi in range(len(atoms)):
                    grad = g.partial(mi)
                    if grad.coeffs:
                        gYp[:, b, :] += grad(*vals)[:, None] * derivs[mi]
            g_cp = ControlledPath(rp, gY, gYp)
        st = stationary_affine(A_i, f_nodes, g_cp, rp, init=init, order=i)
        alphas[i] = st.path
        alpha0[i] = float(st.path.Y[-1, 0])
        tails[i] = st.tail_bound
        vals[i - 1] = st.path.Y[:, 0]
        derivs[i - 1] = st.path.Yp[:, 0, :]
        # a-priori norm of the terminal unit block, monitored not enforced
        t1 = rp.grid.t1
        block = restrict(rp, t1 - 1.0, t1) if rp.grid.t1 - rp.grid.t0 >= 1 else rp
        k0 = rp.grid.index(block.grid.t0)
        bl_cp = ControlledPath(block, st.path.Y[k0:], st.path.Yp[k0:])
        norms[i] = norm_d2g(bl_cp).total
    return HierarchyResult(alphas=alphas, alpha0=alpha0,
                           zero_flags=set(cs.zero_flags),
                           tail_bounds=tails, block_norms=norms)


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
