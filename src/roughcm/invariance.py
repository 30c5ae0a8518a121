"""Coefficient derivation for the Taylor ansatz phi(x) = sum_i alpha_i x^i.

Substitutes the ansatz into polynomial drift/diffusion fields, matches
coefficients of x^i exactly (rational arithmetic over abstract coefficient
atoms alpha_1..alpha_q), propagates forced-zero coefficients, and collects
the degree > q residual polynomials.  The arithmetic runs on one sparse
polynomial ring of x, the atoms and the spec's parameters; results stay in
it, with sympy expressions as views and floats at parameter values (`numeric`).
"""
from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import sympy as sp
from sympy.polys.constructor import construct_domain
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing

__all__ = [
    "X", "alpha", "PolyField", "SystemSpec", "CoefficientSystem",
    "FieldValidationError", "load_system", "derive_system", "propagate_zeros",
    "residuals", "NumericField", "NumericSystem", "NumericHierarchy",
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
    def from_entries(cls, entries: list[dict], name: str) -> "PolyField":
        """The field of the term list `name` of a spec."""
        if not isinstance(entries, list):
            raise FieldValidationError(f"{name} = {entries!r} must be a list of terms")
        terms: dict[tuple[int, int], sp.Expr] = {}
        for e in entries:
            if not isinstance(e, dict):
                raise FieldValidationError(
                    f"{name} term {e!r} must be an object with keys i, j and c")
            where = f"{name} term {e}: "
            key = tuple(_spec_int(_key(e, k, where), f"{where}exponent {k}", 0)
                        for k in "ij")
            c = _parse_coeff(_key(e, "c", where), f"{where}coefficient c")
            terms[key] = terms.get(key, sp.Integer(0)) + c
        return cls(terms)


def _key(doc: dict, key: str, where: str = ""):
    """doc[key], or a FieldValidationError naming the missing field."""
    if key not in doc:
        raise FieldValidationError(f"{where}missing field {key}")
    return doc[key]


def _spec_int(value, name: str, minimum: int | None = None) -> int:
    """An integer field of a spec: an int or an integral float such as 2.0,
    not a bool or a fractional value, and at least `minimum` if given."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float)
                                                    and value.is_integer())
    if isinstance(value, bool) or not whole or (minimum is not None and value < minimum):
        kind = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise FieldValidationError(f"{name} = {value!r} must be {kind}")
    return int(value)


def _spec_real(value, name: str) -> float:
    """A number field of a spec: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise FieldValidationError(f"{name} = {value!r} must be a number")
    return float(value)


def _sympify(text: str, name: str, **kwargs):
    """sympy's reading of the string field `name`, which must parse."""
    try:
        return sp.sympify(text, **kwargs)
    except sp.SympifyError:
        raise FieldValidationError(f"{name} = {text!r} does not parse as an "
                                   "expression") from None


def _parse_coeff(c, name: str) -> sp.Expr:
    """A coefficient: a number, or a string that sympy reads as an expression."""
    if isinstance(c, str):
        try:
            expr = _sympify(c, name, rational=True)
        except TypeError:    # arithmetic on a function name, such as 2*beta
            expr = None
        if not isinstance(expr, sp.Expr):
            raise FieldValidationError(f"{name} = {c!r} is no expression")
        return expr
    if isinstance(c, bool) or not (isinstance(c, numbers.Real) and math.isfinite(c)):
        raise FieldValidationError(f"{name} = {c!r} must be a finite number or "
                                   "an expression string")
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
        """Check gamma and q, and unless override the fields' vanishing
        orders at the origin: override waives only those."""
        if not 1 / 3 < self.gamma <= 1 / 2:
            raise FieldValidationError(
                f"gamma = {self.gamma} outside (1/3, 1/2]: the level-2 rough "
                "path setting covers exactly this regularity range")
        if self.q < 2:
            raise FieldValidationError("expansion order q must be at least 2")
        if self.override:
            return
        self.Fc.validate("drift", "F")
        self.Fs.validate("drift", "F")
        for ch, (gc, gs) in enumerate(zip(self.Gc, self.Gs)):
            gc.validate("diffusion", "G")
            gs.validate("diffusion", "G")

    def numeric(self) -> "NumericSystem":
        """The fields at the parameter values; a ValueError names the
        parameters of the coefficients without a value."""
        sym_subs = {sp.Symbol(k): v for k, v in self.params.items()}
        _check_values(set().union(*(c.free_symbols for c in _coefficients(self))),
                      sym_subs)

        def num(expr):
            return float(sp.N(sp.sympify(expr).subs(sym_subs)))

        def numfield(pf: PolyField) -> NumericField:
            return NumericField({k: num(c) for k, c in pf.terms.items()})

        return NumericSystem(
            gamma=self.gamma, d=self.noise_dim,
            Ac=num(self.Ac), As=num(self.As),
            Fc=numfield(self.Fc), Fs=numfield(self.Fs),
            Gc=[numfield(g) for g in self.Gc],
            Gs=[numfield(g) for g in self.Gs],
        )


def load_system(path_or_dict) -> SystemSpec:
    """Load a system description from a JSON file or an equivalent dict; a
    FieldValidationError names a field that is missing or malformed."""
    doc = path_or_dict
    if not isinstance(doc, dict):
        with open(path_or_dict) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise FieldValidationError(f"the spec must be a JSON object, got a "
                                       f"JSON {type(doc).__name__}")
    d = _spec_int(doc.get("noise_dim", 1), "noise_dim")
    if d < 1:
        raise FieldValidationError(f"noise_dim = {d}: give at least one noise channel")
    gc_entries = doc.get("Gc", [[] for _ in range(d)])
    gs_entries = doc.get("Gs", [[] for _ in range(d)])
    for name, entries in (("Gc", gc_entries), ("Gs", gs_entries)):
        if not isinstance(entries, list):
            raise FieldValidationError(f"{name} = {entries!r} must be a list of "
                                       "term lists, one per noise channel")
        if len(entries) != d:
            raise FieldValidationError(
                f"{name} has {len(entries)} channel(s) but noise_dim = {d}: "
                "give one term list per noise channel")
    override, params = doc.get("override", False), doc.get("params", {})
    if not isinstance(override, bool):
        raise FieldValidationError(f"override = {override!r} must be a JSON bool")
    if not isinstance(params, dict):
        raise FieldValidationError(f"params = {params!r} must be a JSON object")
    params = {k: _spec_real(v, f"parameter {k}") for k, v in params.items()}
    spec = SystemSpec(
        gamma=_spec_real(_key(doc, "gamma"), "gamma"),
        q=_spec_int(_key(doc, "q"), "q"),
        noise_dim=d,
        Ac=_parse_coeff(_key(doc, "Ac"), "Ac"),
        As=_parse_coeff(_key(doc, "As"), "As"),
        Fc=PolyField.from_entries(doc.get("Fc", []), "Fc"),
        Fs=PolyField.from_entries(doc.get("Fs", []), "Fs"),
        Gc=[PolyField.from_entries(ch, f"Gc[{k}]") for k, ch in enumerate(gc_entries)],
        Gs=[PolyField.from_entries(ch, f"Gs[{k}]") for k, ch in enumerate(gs_entries)],
        params=params,
        override=override,
    )
    clashes = [k for k in spec.params if k == "x" or re.fullmatch(r"alpha\d+", k)
               or _sympify(k, "parameter name") != sp.Symbol(k)]
    if clashes:
        raise FieldValidationError(
            f"parameter(s) {', '.join(clashes)}: the names x and alpha<k> are "
            "taken by the variable and the coefficient atoms, and a parameter "
            "must read as a plain symbol, not as a sympy constant or function "
            "such as E, I or beta")
    undeclared = (set().union(*(c.free_symbols for c in _coefficients(spec)))
                  - {sp.Symbol(k) for k in spec.params})
    if undeclared:
        raise FieldValidationError(
            f"undeclared symbol(s) {', '.join(sorted(map(str, undeclared)))} "
            "in the coefficients: declare each parameter in params")
    values = {sp.Symbol(k): v for k, v in spec.params.items()}
    unreal = [c for c in _coefficients(spec) if not sp.N(c.subs(values)).is_real]
    if unreal:
        raise FieldValidationError(
            f"coefficient(s) {', '.join(map(str, unreal))}: not a finite real "
            "number once the parameters are substituted")
    spec.validate()
    return spec


def _coefficients(sys: SystemSpec) -> list[sp.Expr]:
    return [sys.Ac, sys.As] + [c for pf in (sys.Fc, sys.Fs, *sys.Gc, *sys.Gs)
                               for c in pf.terms.values()]


def _ring(sys: SystemSpec, q: int) -> PolyRing:
    """The sparse ring of x, alpha_1..alpha_q and the parameters over QQ.

    A coefficient that is no polynomial over QQ in the parameters, such as
    sqrt(2) or 1/(1 + sigma), moves the parameters out of the generators
    and into the smallest coefficient domain that holds every coefficient.
    """
    gens = [X] + [alpha(i) for i in range(1, q + 1)]
    R = PolyRing(gens + [sp.Symbol(k) for k in sys.params], QQ)
    try:
        for c in _coefficients(sys):
            R.from_expr(c)
    except ValueError:
        R = PolyRing(gens, construct_domain(_coefficients(sys))[0])
    return R


@dataclass
class CoefficientSystem:
    """Per-order data of the coefficient RDEs plus the residual polynomials.

    Order i carries the linear part A_alpha[i] = As - i*Ac, the drift
    forcing f[i] and the per-channel diffusion forcings g[i][ch], all exact
    polynomials in the atoms alpha_k.  M and Mtilde are the degree > q
    leftovers of the matching (drift and diffusion defects).  _polys holds
    them as elements of the derivation's ring, their only stored form; the
    sympy expressions are views built on first read, and numeric() builds
    none over QQ.  sympy's rings do not pickle, so neither does this system;
    numeric(params) does.
    """
    q: int
    noise_dim: int
    Ac: sp.Expr
    As: sp.Expr
    _polys: dict = field(repr=False)
    zero_flags: set[int] = field(default_factory=set)

    A_alpha = cached_property(lambda self: _each(self._polys["A_alpha"]))
    f = cached_property(lambda self: _each(self._polys["f"]))
    g = cached_property(lambda self: _each(self._polys["g"]))
    M = cached_property(lambda self: _each(self._polys["M"]))
    Mtilde = cached_property(lambda self: _each(self._polys["Mtilde"]))

    def __reduce_ex__(self, protocol):
        raise TypeError("a CoefficientSystem holds sympy ring elements and does "
                        "not pickle or deep-copy; pickle cs.numeric(params)")

    def numeric(self, params: dict[str, float]) -> "NumericHierarchy":
        """The unflagged orders at the parameter values, from the ring forms
        with the float operations of substituting into the expressions; a
        ValueError names the parameters of those orders without a value."""
        f, g = self._polys["f"], self._polys["g"]
        orders = [i for i in range(1, self.q + 1) if i not in self.zero_flags]
        values = {sp.Symbol(k): float(v) for k, v in params.items()}
        # A_alpha[i], over QQ without the view: there it is As - i*Ac expanded
        over_QQ = f[1].ring.domain == QQ
        linear = {i: sp.expand(self.As - i * self.Ac) if over_QQ else self.A_alpha[i]
                  for i in orders}
        used = set().union(*(linear[i].free_symbols for i in orders),
                           *(_parameters(p, self.q) for i in orders
                             for p in (f[i], *g[i])))
        _check_values(used, values)
        A = {i: float(sp.N(linear[i].subs(values))) for i in orders}
        fs = {i: _numeric_field(f[i], self.q, values) for i in orders}
        gs = {i: [_numeric_field(p, self.q, values) for p in g[i]] for i in orders}
        dg = {i: [{k: dk for k in range(self.q) if (dk := e.partial(k)).coeffs}
                  for e in gs[i]] for i in orders}
        return NumericHierarchy(self.q, self.noise_dim, A, fs, gs, dg)

    def to_json(self) -> str:
        views = {k: _each(getattr(self, k), str)
                 for k in ("A_alpha", "f", "g", "M", "Mtilde")}
        return json.dumps({"q": self.q, "noise_dim": self.noise_dim, "Ac": str(self.Ac),
                           "As": str(self.As), **views,
                           "zero_flags": sorted(self.zero_flags)}, indent=2)


def _check_values(used: set[sp.Symbol], values: dict) -> None:
    """A ValueError naming the parameters in `used` that `values` lacks."""
    missing = sorted(map(str, used - set(values)))
    if missing:
        raise ValueError(f"no value for parameter(s) {', '.join(missing)}: pass "
                         "every parameter of the spec in params")


def _each(tree, fn=lambda p: p.as_expr()):
    """fn, by default the sympy expression, of each leaf of nested dicts and
    lists; a ring element is a leaf."""
    if isinstance(tree, dict) and not isinstance(tree, PolyElement):
        return {k: _each(v, fn) for k, v in tree.items()}
    return [_each(v, fn) for v in tree] if isinstance(tree, list) else fn(tree)


def _parameters(p: PolyElement, q: int) -> set[sp.Symbol]:
    """The parameters in p: its generators after x and the atoms, or over
    a domain other than QQ the symbols of its coefficients."""
    R = p.ring
    if R.domain == QQ:
        return {R.symbols[k] for m in p for k in range(q + 1, R.ngens) if m[k]}
    return set().union(*(R.domain.to_sympy(c).free_symbols for c in p.coeffs()))


def _numeric_field(p: PolyElement, q: int, values: dict) -> "NumericField":
    """p in alpha_1..alpha_q: each coefficient rounded, times the powers of
    the parameter generators (after x and the atoms), summed per monomial
    of the atoms.  The ring's lex order puts the terms in the order of
    sp.Poly.terms(), the order in which NumericField sums them."""
    K = p.ring.domain
    num = float if K == QQ else (lambda c: float(K.to_sympy(c).subs(values)))
    point = [values.get(s) for s in p.ring.symbols[q + 1:]]    # None: exponent 0
    coeffs: dict[tuple[int, ...], float] = {}
    for m, c in p.terms():
        term = math.prod([num(c)] + [v**e for v, e in zip(point, m[q + 1:]) if e])
        coeffs[m[1:q + 1]] = coeffs.get(m[1:q + 1], 0.0) + term
    return NumericField(coeffs)


def derive_system(sys: SystemSpec) -> CoefficientSystem:
    """Match coefficients of x^i in the invariance equations.

    f_i is the degree-i coefficient of Fs(x, phi) - phi'(x) Fc(x, phi) for
    i <= q = sys.q, g_i likewise per channel with Gs, Gc; the degree > q
    leftovers (with flipped sign: defect of the ansatz) form M and Mtilde.
    """
    q = sys.q
    if q < 2:
        raise ValueError("q must be at least 2")
    R = _ring(sys, q)
    x = R.gens[0]
    phi = sum((a * x**i for i, a in enumerate(R.gens[1:q + 1], 1)), R.zero)
    dphi = phi.diff(x)
    powers = [R.one]    # phi^j, each computed once for all fields

    def on_phi(pf: PolyField) -> PolyElement:
        out = R.zero
        for (i, j), c in pf.terms.items():
            while len(powers) <= j:
                powers.append(powers[-1] * phi)
            out += R.from_expr(c) * x**i * powers[j]
        return out

    def match(side_s: PolyField, side_c: PolyField):
        forcing = {i: {} for i in range(1, q + 1)}
        leftover = {}
        for m, c in (on_phi(side_s) - dphi * on_phi(side_c)).items():
            if m[0] > q:
                leftover[m] = -c
            elif m[0] > 0:
                forcing[m[0]][(0,) + m[1:]] = c
        return ({i: R.from_dict(t) for i, t in forcing.items()},
                R.from_dict(leftover))

    f, M = match(sys.Fs, sys.Fc)
    g: dict[int, list[PolyElement]] = {i: [] for i in range(1, q + 1)}
    Mtilde: list[PolyElement] = []
    for gs, gc in zip(sys.Gs, sys.Gc):
        forcing, leftover = match(gs, gc)
        for i in range(1, q + 1):
            g[i].append(forcing[i])
        Mtilde.append(leftover)
    As, Ac = R.from_expr(sys.As), R.from_expr(sys.Ac)
    A_alpha = {i: As - i * Ac for i in range(1, q + 1)}
    return CoefficientSystem(q=q, noise_dim=sys.noise_dim, Ac=sys.Ac, As=sys.As,
                             _polys=dict(A_alpha=A_alpha, f=f, g=g, M=M, Mtilde=Mtilde))


def propagate_zeros(cs: CoefficientSystem) -> CoefficientSystem:
    """Flag orders whose forcings vanish identically and substitute zero.

    Iterates i = 1..q in order; an order with zero drift and zero diffusion
    forcing (after substituting already-flagged atoms) has the zero path as
    its stationary solution, so its atom is set to zero in all later
    polynomials and in the residuals.  Idempotent.  Substituting zero for
    alpha_k drops every monomial with a positive exponent of generator k.
    """
    f, g = cs._polys["f"], cs._polys["g"]

    def drop(p: PolyElement, atoms: set[int]) -> PolyElement:
        return p.ring.from_dict({m: c for m, c in p.items()
                                 if not any(m[k] for k in atoms)})

    flags = set(cs.zero_flags)
    for i in range(1, cs.q + 1):
        # the zero path solves order i when the forcings vanish at alpha_i = 0
        # (the diffusion forcing may couple linearly to alpha_i itself)
        trial = flags | {i}
        if not drop(f[i], trial) and not any(drop(e, trial) for e in g[i]):
            flags.add(i)
    return CoefficientSystem(q=cs.q, noise_dim=cs.noise_dim, Ac=cs.Ac, As=cs.As,
                             _polys=_each(cs._polys, lambda p: drop(p, flags)),
                             zero_flags=flags)


def residuals(cs: CoefficientSystem) -> dict:
    """The lowest surviving x-degrees of the residuals, read off their ring
    forms: min_degree_M of M, min_degree_Mtilde one per channel of Mtilde,
    and min_degree over all of them; None where a residual is zero.  The
    polynomials themselves are the views cs.M and cs.Mtilde."""
    M, Mtilde = cs._polys["M"], cs._polys["Mtilde"]
    low = [min((m[0] for m in p), default=None) for p in [M, *Mtilde]]
    return {"min_degree": min((d for d in low if d is not None), default=None),
            "min_degree_M": low[0], "min_degree_Mtilde": low[1:]}


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
    d: int
    Ac: float
    As: float
    Fc: NumericField
    Fs: NumericField
    Gc: list[NumericField]
    Gs: list[NumericField]


@dataclass
class NumericHierarchy:
    """The numeric form of a CoefficientSystem: per unflagged order i, A[i],
    the drift forcing f[i] and the channels' diffusion forcings g[i] in
    alpha_1..alpha_q, dg[i][ch][k] the non-vanishing partials of g[i][ch]
    in alpha_{k+1}.  Plain floats, so it pickles."""
    q: int
    d: int
    A: dict[int, float]
    f: dict[int, NumericField]
    g: dict[int, list[NumericField]]
    dg: dict[int, list[dict[int, NumericField]]]
