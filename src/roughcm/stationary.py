"""Stationary solutions of the coefficient RDEs by truncated backward convolution.

All integrals run over a sampled rough path on [-T, 0]; the infinite past is
truncated at -T and the exponential decay of the linear part bounds the tail.
The triangular structure of the coefficient system lets the orders be solved
in sequence, each forcing evaluated pathwise on the already-solved orders.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import ControlledPath
from .invariance import CoefficientSystem, NumericHierarchy
from .rde import solve_affine
from .roughpath import RoughPath

__all__ = ["NonStableOrderError", "StationaryPath", "HierarchyResult",
           "stationary_affine", "solve_hierarchy"]


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


def solve_hierarchy(cs: CoefficientSystem | NumericHierarchy, rp: RoughPath,
                    params: dict[str, float] | None = None,
                    init: str = "quasistatic") -> HierarchyResult:
    """Solve the coefficient RDEs order by order along the sampled path.

    cs is a CoefficientSystem, with its parameter values in params, or its
    numeric form cs.numeric(params), which a caller solving many paths
    builds once (params is then unused).  Forcings are evaluated pathwise
    by substituting the already-solved orders; diffusion forcings become
    controlled paths via the product rule on the solved Gubinelli
    derivatives.  Flagged orders are the zero path.
    """
    if init not in ("quasistatic", "zero"):
        raise ValueError("init must be 'quasistatic' or 'zero'")
    nh = cs if isinstance(cs, NumericHierarchy) else cs.numeric(params or {})
    n, d = rp.n, rp.d
    if d != nh.d:
        raise ValueError(f"the rough path has {d} channel(s) but the system "
                         f"has {nh.d} noise channel(s)")
    vals: list[np.ndarray] = [np.zeros(n + 1) for _ in range(nh.q)]
    derivs: list[np.ndarray] = [np.zeros((n + 1, d)) for _ in range(nh.q)]
    alphas: dict[int, ControlledPath] = {}
    alpha0: dict[int, float] = {}
    tails: dict[int, float] = {}
    for i in range(1, nh.q + 1):
        if i not in nh.A:
            alphas[i] = ControlledPath(rp, np.zeros(n + 1))
            alpha0[i] = 0.0
            tails[i] = 0.0
            continue
        g_cp = None
        if any(g.coeffs for g in nh.g[i]):
            gY = np.zeros((n + 1, d))
            gYp = np.zeros((n + 1, d, d))
            for b, (g, dg) in enumerate(zip(nh.g[i], nh.dg[i])):
                gY[:, b] = g(*vals)
                for k, grad in dg.items():
                    gYp[:, b, :] += grad(*vals)[:, None] * derivs[k]
            g_cp = ControlledPath(rp, gY, gYp)
        st = stationary_affine(nh.A[i], nh.f[i](*vals), g_cp, rp, init=init, order=i)
        alphas[i] = st.path
        alpha0[i] = float(st.path.Y[-1, 0])
        tails[i] = st.tail_bound
        vals[i - 1] = st.path.Y[:, 0]
        derivs[i - 1] = st.path.Yp[:, 0, :]
    return HierarchyResult(alphas=alphas, alpha0=alpha0,
                           zero_flags=set(range(1, nh.q + 1)) - set(nh.A),
                           tail_bounds=tails)
