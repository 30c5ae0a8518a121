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

__all__ = ["NonStableOrderError", "HierarchyResult", "solve_hierarchy"]


class NonStableOrderError(ValueError):
    def __init__(self, A: float, order: int):
        super().__init__(
            f"order {order}: linear part {A} is not exponentially stable; the "
            "stationary backward integral needs Re(A) < 0 (a non-resonance "
            "condition on the block spectra)")


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
    builds once (and then passes no params).  Order i, d alpha_i = (A_i alpha_i
    + f_i) dt + g_i dW with A_i < 0, is solved by `rde.solve_affine` from -T,
    starting at -f_i(-T)/A_i (init="quasistatic", no cold-start transient)
    or at 0 (init="zero", the plain truncated integral); its tail bound is
    e^{A_i T} max(max|f_i|, 1).  Forcings are evaluated pathwise on the
    solved orders; diffusion forcings become controlled paths via the
    product rule on the solved Gubinelli derivatives.  Flagged orders are
    the zero path.
    """
    if init not in ("quasistatic", "zero"):
        raise ValueError("init must be 'quasistatic' or 'zero'")
    if isinstance(cs, NumericHierarchy) and params is not None:
        raise ValueError("params is for a CoefficientSystem; a numeric form "
                         "already holds its parameter values")
    nh = cs if isinstance(cs, NumericHierarchy) else cs.numeric(params or {})
    n, d = rp.n, rp.d
    if d != nh.d:
        raise ValueError(f"the rough path has {d} channel(s) but the system "
                         f"has {nh.d} noise channel(s)")
    T = rp.grid.t1 - rp.grid.t0
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
        a = float(nh.A[i])
        if a >= 0:
            raise NonStableOrderError(a, i)
        g_cp = None
        if any(g.coeffs for g in nh.g[i]):
            gY = np.zeros((n + 1, d))
            gYp = np.zeros((n + 1, d, d))
            for b, (g, dg) in enumerate(zip(nh.g[i], nh.dg[i])):
                gY[:, b] = g(*vals)
                for k, grad in dg.items():
                    gYp[:, b, :] += grad(*vals)[:, None] * derivs[k]
            g_cp = ControlledPath(rp, gY, gYp)
        f = nh.f[i](*vals)
        y0 = -float(f[0]) / a if init == "quasistatic" else 0.0
        cp = solve_affine(a, f, g_cp, rp, y0)
        alphas[i] = cp
        alpha0[i] = float(cp.Y[-1, 0])
        tails[i] = np.exp(a * T) * max(float(np.max(np.abs(f))), 1.0)
        vals[i - 1] = cp.Y[:, 0]
        derivs[i - 1] = cp.Yp[:, 0, :]
    return HierarchyResult(alphas=alphas, alpha0=alpha0,
                           zero_flags=set(range(1, nh.q + 1)) - set(nh.A),
                           tail_bounds=tails)
