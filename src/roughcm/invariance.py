"""Coefficient derivation for the Taylor ansatz phi(x) = sum_i alpha_i x^i.

Substitutes the ansatz into polynomial drift/diffusion fields, matches
coefficients of x^i exactly (rational arithmetic over abstract coefficient
atoms alpha_1..alpha_q), propagates forced-zero coefficients, and collects
the degree > q residual polynomials.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

__all__ = [
    "X", "alpha", "PolyField", "SystemSpec", "CoefficientSystem",
    "FieldValidationError", "load_system", "derive_system",
    "propagate_zeros", "residuals", "NumericField", "NumericSystem",
]

X = sp.Symbol("x")


def alpha(i: int) -> sp.Symbol:
    """Abstract coefficient atom of order i."""
    return sp.Symbol(f"alpha{i}")


class FieldValidationError(ValueError):
    pass


@dataclass
class PolyField:
    """Polynomial field in (x, y): map from exponent pair to a coefficient."""
    terms: dict[tuple[int, int], sp.Expr]

    def __call__(self, x_expr, y_expr) -> sp.Expr:
        return sp.expand(sum(c * x_expr**i * y_expr**j
                             for (i, j), c in self.terms.items()))

    def validate(self, kind: str, name: str) -> None:
        """Check vanishing at the origin to the required order.

        Drift fields must have no constant or linear part; diffusion fields
        additionally no quadratic part.
        """
        min_degree = 2 if kind == "drift" else 3
        labels = {0: f"{name}(0,0) != 0",
                  1: f"D{name}(0,0) != 0",
                  2: f"D^2{name}(0,0) != 0"}
        for (i, j), c in self.terms.items():
            deg = i + j
            if deg < min_degree and sp.simplify(c) != 0:
                raise FieldValidationError(
                    f"{labels[deg]}: the {kind} field must vanish to order "
                    f"{min_degree - 1} at the origin (term x^{i} y^{j})")

    @classmethod
    def from_entries(cls, entries: list[dict]) -> "PolyField":
        terms: dict[tuple[int, int], sp.Expr] = {}
        for e in entries:
            key = (int(e["i"]), int(e["j"]))
            terms[key] = terms.get(key, sp.Integer(0)) + _parse_coeff(e["c"])
        return cls(terms)


def _parse_coeff(c) -> sp.Expr:
    if isinstance(c, str):
        return sp.sympify(c, rational=True)
    if isinstance(c, float) and not c.is_integer():
        return sp.Rational(c).limit_denominator(10**12)
    return sp.Integer(int(c)) if isinstance(c, (int, float)) else sp.sympify(c)


@dataclass
class SystemSpec:
    """A two-block polynomial system with one center and one stable direction."""
    gamma: float
    q: int
    noise_dim: int
    Ac: sp.Expr
    As: sp.Expr
    Fc: PolyField
    Fs: PolyField
    Gc: list[PolyField]
    Gs: list[PolyField]
    params: dict[str, float] = field(default_factory=dict)
    override: bool = False

    def validate(self) -> None:
        if not 1 / 3 < self.gamma <= 1 / 2:
            raise FieldValidationError(
                f"gamma = {self.gamma} outside (1/3, 1/2]: the level-2 rough "
                "path setting covers exactly this regularity range")
        if self.q < 2:
            raise FieldValidationError("expansion order q must be at least 2")
        self.Fc.validate("drift", "F")
        self.Fs.validate("drift", "F")
        for ch, (gc, gs) in enumerate(zip(self.Gc, self.Gs)):
            gc.validate("diffusion", "G")
            gs.validate("diffusion", "G")

    def numeric(self) -> "NumericSystem":
        sym_subs = {sp.Symbol(k): v for k, v in self.params.items()}

        def num(expr):
            return float(sp.N(sp.sympify(expr).subs(sym_subs)))

        def numfield(pf: PolyField) -> NumericField:
            return NumericField({k: num(c) for k, c in pf.terms.items()})

        return NumericSystem(
            gamma=self.gamma, q=self.q, d=self.noise_dim,
            Ac=num(self.Ac), As=num(self.As),
            Fc=numfield(self.Fc), Fs=numfield(self.Fs),
            Gc=[numfield(g) for g in self.Gc],
            Gs=[numfield(g) for g in self.Gs],
        )


def load_system(path_or_dict) -> SystemSpec:
    """Load a system description from a JSON file or an equivalent dict."""
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict) as fh:
            doc = json.load(fh)
    d = int(doc.get("noise_dim", 1))
    if d < 1:
        raise FieldValidationError(f"noise_dim = {d}: give at least one noise channel")
    gc_entries = doc.get("Gc", [[] for _ in range(d)])
    gs_entries = doc.get("Gs", [[] for _ in range(d)])
    for name, entries in (("Gc", gc_entries), ("Gs", gs_entries)):
        if len(entries) != d:
            raise FieldValidationError(
                f"{name} has {len(entries)} channel(s) but noise_dim = {d}: "
                "give one term list per noise channel")
    spec = SystemSpec(
        gamma=float(doc["gamma"]),
        q=int(doc["q"]),
        noise_dim=d,
        Ac=_parse_coeff(doc["Ac"]),
        As=_parse_coeff(doc["As"]),
        Fc=PolyField.from_entries(doc.get("Fc", [])),
        Fs=PolyField.from_entries(doc.get("Fs", [])),
        Gc=[PolyField.from_entries(ch) for ch in gc_entries],
        Gs=[PolyField.from_entries(ch) for ch in gs_entries],
        params={k: float(v) for k, v in doc.get("params", {}).items()},
        override=bool(doc.get("override", False)),
    )
    if not spec.override:
        spec.validate()
    return spec


def _ansatz(q: int) -> sp.Expr:
    return sum(alpha(i) * X**i for i in range(1, q + 1))


@dataclass
class CoefficientSystem:
    """Per-order data of the coefficient RDEs plus the residual polynomials.

    Order i carries the linear part A_alpha[i] = As - i*Ac, the drift
    forcing f[i] and the per-channel diffusion forcings g[i][ch], all exact
    polynomials in the atoms alpha_k.  M and Mtilde are the degree > q
    leftovers of the matching (drift and diffusion defects).
    """
    q: int
    noise_dim: int
    Ac: sp.Expr
    As: sp.Expr
    A_alpha: dict[int, sp.Expr]
    f: dict[int, sp.Expr]
    g: dict[int, list[sp.Expr]]
    M: sp.Expr
    Mtilde: list[sp.Expr]
    zero_flags: set[int] = field(default_factory=set)

    def to_json(self) -> str:
        doc = {
            "q": self.q,
            "noise_dim": self.noise_dim,
            "Ac": str(self.Ac),
            "As": str(self.As),
            "A_alpha": {str(i): str(sp.simplify(a)) for i, a in self.A_alpha.items()},
            "f": {str(i): str(sp.expand(e)) for i, e in self.f.items()},
            "g": {str(i): [str(sp.expand(e)) for e in ch] for i, ch in self.g.items()},
            "M": str(sp.expand(self.M)),
            "Mtilde": [str(sp.expand(e)) for e in self.Mtilde],
            "zero_flags": sorted(self.zero_flags),
        }
        return json.dumps(doc, indent=2)


def derive_system(sys: SystemSpec, q: int | None = None) -> CoefficientSystem:
    """Match coefficients of x^i in the invariance equations.

    f_i is the degree-i coefficient of Fs(x, phi) - phi'(x) Fc(x, phi) for
    i <= q, g_i likewise per channel with Gs, Gc; the degree > q leftovers
    (with flipped sign: defect of the ansatz) form M and Mtilde.
    """
    q = sys.q if q is None else q
    if q < 2:
        raise ValueError("q must be at least 2")
    phi = _ansatz(q)
    dphi = sp.diff(phi, X)

    def match(side_s: PolyField, side_c: PolyField):
        expr = sp.expand(side_s(X, phi) - dphi * side_c(X, phi))
        poly = sp.Poly(expr, X)
        coeffs = {int(i): sp.expand(c) for (i,), c in poly.terms()}
        forcing = {i: coeffs.get(i, sp.Integer(0)) for i in range(1, q + 1)}
        leftover = sum(-c * X**i for i, c in coeffs.items() if i > q)
        return forcing, sp.expand(leftover)

    f, M = match(sys.Fs, sys.Fc)
    g: dict[int, list[sp.Expr]] = {i: [] for i in range(1, q + 1)}
    Mtilde: list[sp.Expr] = []
    for gs, gc in zip(sys.Gs, sys.Gc):
        forcing, leftover = match(gs, gc)
        for i in range(1, q + 1):
            g[i].append(forcing[i])
        Mtilde.append(leftover)
    A_alpha = {i: sp.expand(sys.As - i * sys.Ac) for i in range(1, q + 1)}
    return CoefficientSystem(q=q, noise_dim=sys.noise_dim, Ac=sys.Ac, As=sys.As,
                             A_alpha=A_alpha, f=f, g=g, M=M, Mtilde=Mtilde)


def propagate_zeros(cs: CoefficientSystem) -> CoefficientSystem:
    """Flag orders whose forcings vanish identically and substitute zero.

    Iterates i = 1..q in order; an order with zero drift and zero diffusion
    forcing (after substituting already-flagged atoms) has the zero path as
    its stationary solution, so its atom is set to zero in all later
    polynomials and in the residuals.  Idempotent.
    """
    zeros = dict()
    flags = set(cs.zero_flags)
    for i in sorted(flags):
        zeros[alpha(i)] = sp.Integer(0)
    for i in range(1, cs.q + 1):
        if i in flags:
            continue
        # the zero path solves order i when the forcings vanish at alpha_i = 0
        # (the diffusion forcing may couple linearly to alpha_i itself)
        trial = dict(zeros)
        trial[alpha(i)] = sp.Integer(0)
        fi = sp.expand(cs.f[i].subs(trial))
        gi = [sp.expand(e.subs(trial)) for e in cs.g[i]]
        if fi == 0 and all(e == 0 for e in gi):
            flags.add(i)
            zeros[alpha(i)] = sp.Integer(0)
    f = {i: sp.expand(e.subs(zeros)) for i, e in cs.f.items()}
    g = {i: [sp.expand(e.subs(zeros)) for e in ch] for i, ch in cs.g.items()}
    return CoefficientSystem(q=cs.q, noise_dim=cs.noise_dim, Ac=cs.Ac, As=cs.As,
                             A_alpha=dict(cs.A_alpha), f=f, g=g,
                             M=sp.expand(cs.M.subs(zeros)),
                             Mtilde=[sp.expand(e.subs(zeros)) for e in cs.Mtilde],
                             zero_flags=flags)


def residuals(cs: CoefficientSystem) -> dict:
    """Residual polynomials and their minimum surviving x-degrees."""

    def min_degree(expr: sp.Expr) -> int | None:
        expr = sp.expand(expr)
        if expr == 0:
            return None
        return min(i for (i,), c in sp.Poly(expr, X).terms() if c != 0)

    degrees = [d for d in [min_degree(cs.M)] + [min_degree(e) for e in cs.Mtilde]
               if d is not None]
    return {
        "M": sp.expand(cs.M),
        "Mtilde": [sp.expand(e) for e in cs.Mtilde],
        "min_degree": min(degrees) if degrees else None,
        "min_degree_M": min_degree(cs.M),
        "min_degree_Mtilde": [min_degree(e) for e in cs.Mtilde],
    }


class NumericField:
    """Polynomial with float coefficients keyed by exponent tuples, one
    exponent per variable, numpy-evaluable."""

    def __init__(self, coeffs: dict[tuple[int, ...], float]):
        self.coeffs = {k: float(v) for k, v in coeffs.items() if v != 0.0}

    def __call__(self, *xs):
        out = np.zeros(np.broadcast(*xs).shape)
        for k, c in self.coeffs.items():
            term = c
            for x, e in zip(xs, k):
                term = term * np.asarray(x)**e
            out = out + term
        return out

    def partial(self, v: int) -> "NumericField":
        """The derivative in variable v."""
        return NumericField({k[:v] + (k[v] - 1,) + k[v + 1:]: c * k[v]
                             for k, c in self.coeffs.items() if k[v]})

    def leading(self, l: int) -> "NumericField":
        """The homogeneous part of total degree l."""
        return NumericField({k: c for k, c in self.coeffs.items() if sum(k) == l})


@dataclass
class NumericSystem:
    gamma: float
    q: int
    d: int
    Ac: float
    As: float
    Fc: NumericField
    Fs: NumericField
    Gc: list[NumericField]
    Gs: list[NumericField]
