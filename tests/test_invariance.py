import copy
import dataclasses
import json
import pickle
import random
from pathlib import Path

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement

from bad_specs import CASES
from roughcm import (FieldValidationError, NumericField, derive_system,
                     load_system, propagate_zeros, residuals)
from roughcm.cli import order_law_plan

x = sp.Symbol("x")
a2, a4, a5, a6 = [sp.Symbol(f"alpha{i}") for i in (2, 4, 5, 6)]
lam, kappa, sigma = sp.symbols("lam kappa sigma")

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(scope="module")
def cs_linear():
    return propagate_zeros(derive_system(
        load_system(EXAMPLES / "chekroun_linear.json")))


@pytest.fixture(scope="module")
def cs_nonlinear():
    return propagate_zeros(derive_system(
        load_system(EXAMPLES / "chekroun_nonlinear.json")))


class TestLinearExample:
    def test_zero_flags(self, cs_linear):
        assert cs_linear.zero_flags == {1, 3}

    def test_linear_parts(self, cs_linear):
        assert sp.expand(cs_linear.A_alpha[2] - (kappa - 2 * lam)) == 0
        assert sp.expand(cs_linear.A_alpha[4] - (kappa - 4 * lam)) == 0

    def test_drift_forcings(self, cs_linear):
        assert sp.expand(cs_linear.f[2] + 1) == 0
        assert sp.expand(cs_linear.f[4] + 2 * a2**2) == 0

    def test_diffusion_forcings(self, cs_linear):
        assert sp.expand(cs_linear.g[2][0] - sigma * a2) == 0
        assert sp.expand(cs_linear.g[4][0] - sigma * a4) == 0

    def test_residuals(self, cs_linear):
        res = residuals(cs_linear)
        assert sp.expand(cs_linear.M - (6 * a2 * a4 * x**6 + 4 * a4**2 * x**8)) == 0
        assert all(e == 0 for e in cs_linear.Mtilde)
        assert res["min_degree"] == 6


class TestNonlinearExample:
    def test_zero_flags(self, cs_nonlinear):
        assert cs_nonlinear.zero_flags == {1, 3}

    def test_drift_forcings(self, cs_nonlinear):
        cs = cs_nonlinear
        assert sp.expand(cs.f[2] - 1) == 0
        assert sp.expand(cs.f[4] + 2 * a2**2 + 2 * a2) == 0
        assert sp.expand(cs.f[5]) == 0
        assert sp.expand(cs.f[6] + 6 * a2 * a4 + 4 * a4) == 0

    def test_diffusion_forcings(self, cs_nonlinear):
        cs = cs_nonlinear
        assert sp.expand(cs.g[2][0]) == 0
        assert sp.expand(cs.g[4][0]) == 0
        # order 5 forcing carries the factor 2 from the cross term of the
        # ansatz square inside the diffusion field
        assert sp.expand(cs.g[5][0] + 2 * a2**2) == 0
        assert sp.expand(cs.g[6][0] - a2**3) == 0

    def test_residual_degrees(self, cs_nonlinear):
        res = residuals(cs_nonlinear)
        assert res["min_degree_M"] == 7
        assert res["min_degree_Mtilde"] == [7]
        assert res["min_degree"] == 7
        assert set(res) == {"min_degree", "min_degree_M", "min_degree_Mtilde"}


class TestZeroSystem:
    def test_everything_vanishes(self):
        cs = propagate_zeros(derive_system(
            load_system(EXAMPLES / "zero.json")))
        assert cs.zero_flags == {1, 2, 3, 4}
        assert sp.expand(cs.M) == 0


PLAN = dict(grid_n=16, window=4, cutoff_r=0.5, xi_min=0.0125, xi_max=0.1,
            xi_points=4, solver="picard", fp_tol=1e-10)


def rejected(tmp_path, row):
    """The layer of a row of tests/bad_specs.py rejects it with its message."""
    spec = row.write(tmp_path)
    if row.layer == "plan":
        with pytest.raises(ValueError, match=row.pattern):
            order_law_plan(spec, **PLAN)
    else:
        with pytest.raises(FieldValidationError, match=row.pattern):
            load_system(spec)


def held_by(rows: dict):
    """A test of the rows of one kind, under stable test ids: a map from
    each test id to its row's id."""
    @pytest.mark.parametrize("row", [CASES[r] for r in rows.values()], ids=list(rows))
    def test(self, tmp_path, row):
        rejected(tmp_path, row)
    test.rows = set(rows.values())
    return test


def each_override(*rows):
    return {f"{r}-{on}": r + "-override" * on for r in rows for on in (False, True)}


class TestValidation:
    def base(self):
        return json.loads((EXAMPLES / "chekroun_nonlinear.json").read_text())

    def test_drift_constant_term_rejected(self, tmp_path):
        rejected(tmp_path, CASES["Fc-constant"])

    def test_linear_diffusion_rejected(self, tmp_path):
        rejected(tmp_path, CASES["Gs-linear"])

    def test_gamma_out_of_range(self, tmp_path):
        rejected(tmp_path, CASES["gamma-0.25"])

    def test_override_skips_validation(self):
        doc = self.base()
        doc["Gs"] = [[{"i": 1, "j": 0, "c": 1}]]
        doc["override"] = True
        load_system(doc)

    @pytest.mark.parametrize("override", [False, True])
    def test_undeclared_symbol_rejected(self, tmp_path, override):
        # the rejected spec loads once mu is declared
        row = CASES["undeclared-mu" + "-override" * override]
        rejected(tmp_path, row)
        load_system({**json.loads(row.write(tmp_path).read_text()), "params": {"mu": 0.5}})

    def test_real_irrational_coefficient_accepted(self):
        doc = {**self.base(), "params": {"mu": 2.0}}
        doc["Fs"] = doc["Fs"] + [{"i": 3, "j": 0, "c": "sqrt(mu) - sqrt(2)"}]
        load_system(doc)

    def test_integral_float_fields_accepted(self):
        doc = self.base()
        doc.update(q=6.0, noise_dim=1.0)
        doc["Fs"] = [{"i": 2.0, "j": 0.0, "c": 1}]
        spec, ref = load_system(doc), load_system(self.base())
        assert (spec.q, spec.noise_dim, spec.Fs) == (ref.q, ref.noise_dim, ref.Fs)
        assert all(type(k) is int for key in spec.Fs.terms for k in key)

    def test_numeric_parameters_accepted(self):
        doc = {**self.base(), "override": False, "params": {"mu": 2, "nu": 0.5}}
        doc["Fs"] = doc["Fs"] + [{"i": 3, "j": 0, "c": "mu*nu"}]
        spec = load_system(doc)
        assert spec.params == {"mu": 2.0, "nu": 0.5} and spec.override is False

    test_range_checked_whatever_override = held_by(each_override("gamma-0.9", "gamma-1/3", "q-1"))
    test_non_integer_field_rejected = held_by(each_override(
        "fractional-exponent", "negative-exponent", "bool-exponent", "fractional-q", "bool-q",
        "fractional-noise-dim", "bool-noise-dim"))
    test_reserved_parameter_name_rejected = held_by(
        {n: f"param-{n}-override" for n in ("x", "alpha2", "E", "I", "beta")})
    test_unreal_coefficient_rejected = held_by({"I": "c-I-override", **{
        r: f"{r}-override" for r in ("log-negative", "sqrt-negative-param", "pole")}})
    test_function_coefficient_rejected = held_by({c: f"c-{c}" for c in ("beta", "2*beta")})
    test_override_must_be_a_bool = held_by(
        {v: f"override-{v}" for v in ("string-false", "string-true", "0", "1", "null")})
    test_parameter_must_be_a_number = held_by({v: f"param-{r}" for v, r in (
        ("true", "bool"), ("false", "false"), ("string", "string"), ("null", "null"),
        ("list", "list"))})
    test_malformed_field_named = held_by({r: r for r in (
        "json-list", "params-list", "Fs-number", "Fs-term-number", "Gs-channel-number",
        "Gs-number", "c-null", "c-list", "c-bool", "c-nan", "As-null", "Ac-bool", "gamma-null",
        "gamma-string", "no-gamma", "no-q", "no-Ac", "no-As", "no-i", "no-j", "no-c",
        "As-unparsable", "c-keyword", "c-assignment", "param-1x", "param-empty")})



HELD = {"Fc-constant", "Gs-linear", "gamma-0.25", "undeclared-mu", "undeclared-mu-override",
        *(r for t in vars(TestValidation).values() for r in getattr(t, "rows", ()))}


@pytest.mark.parametrize("row", [r for r in CASES.values() if r.id not in HELD],
                         ids=lambda r: r.id)
def test_rejected(tmp_path, row):
    # every row that no test of its kind above checks
    rejected(tmp_path, row)


class TestDerivation:
    def test_q_override(self):
        spec = load_system(EXAMPLES / "chekroun_nonlinear.json")
        cs = derive_system(spec, q=4)
        assert cs.q == 4 and 6 not in cs.f

    def test_propagate_zeros_idempotent(self, cs_linear):
        again = propagate_zeros(cs_linear)
        assert again.zero_flags == cs_linear.zero_flags

    def test_numeric_substitution(self):
        spec = load_system(EXAMPLES / "chekroun_linear.json")
        nsys = spec.numeric()
        assert nsys.Ac == 0.0 and nsys.As == -1.0
        assert nsys.Fs({0: 2.0}[0], 0.0) == -4.0
        nsys2 = dataclasses.replace(spec, params={**spec.params, "sigma": 0.3}).numeric()
        assert nsys2.Gs[0](0.0, 1.0) == pytest.approx(0.3)

    def test_numeric_names_missing_parameters(self, cs_linear):
        with pytest.raises(ValueError, match=r"parameter\(s\) kappa, sigma:"):
            cs_linear.numeric({"lam": 0.0})
        nh = cs_linear.numeric({"lam": 0.0, "kappa": -1.0, "sigma": 0.5, "mu": 2.0})
        assert (nh.q, nh.d, sorted(nh.A)) == (4, 1, [2, 4])

    def test_spec_numeric_names_missing_parameters(self, cs_linear):
        # with the text of CoefficientSystem.numeric, not a sympy TypeError
        spec = load_system(EXAMPLES / "chekroun_linear.json")
        with pytest.raises(ValueError, match=r"parameter\(s\) kappa, sigma:") as got:
            dataclasses.replace(spec, params={"lam": 0.0}).numeric()
        with pytest.raises(ValueError) as want:
            cs_linear.numeric({"lam": 0.0})
        assert str(got.value) == str(want.value)

    def test_to_json_fields(self, cs_nonlinear):
        doc = json.loads(cs_nonlinear.to_json())
        assert doc["zero_flags"] == [1, 3]
        assert doc["g"]["5"] == ["-2*alpha2**2"]
        assert doc["g"]["6"] == ["alpha2**3"]


# The expand-based derivation that the ring arithmetic replaced, kept as the
# oracle: sympy expression trees, `subs` for zero atoms and `sp.Poly` in x.

def _oracle_field(pf, x_expr, y_expr):
    return sp.expand(sum(c * x_expr**i * y_expr**j
                         for (i, j), c in pf.terms.items()))


def oracle_derive(spec, q=None):
    q = spec.q if q is None else q
    phi = sum(sp.Symbol(f"alpha{i}") * x**i for i in range(1, q + 1))
    dphi = sp.diff(phi, x)

    def match(side_s, side_c):
        expr = sp.expand(_oracle_field(side_s, x, phi)
                         - dphi * _oracle_field(side_c, x, phi))
        coeffs = {int(i): sp.expand(c) for (i,), c in sp.Poly(expr, x).terms()}
        forcing = {i: coeffs.get(i, sp.Integer(0)) for i in range(1, q + 1)}
        leftover = sum(-c * x**i for i, c in coeffs.items() if i > q)
        return forcing, sp.expand(leftover)

    f, M = match(spec.Fs, spec.Fc)
    g = {i: [] for i in range(1, q + 1)}
    Mtilde = []
    for gs, gc in zip(spec.Gs, spec.Gc):
        forcing, leftover = match(gs, gc)
        for i in range(1, q + 1):
            g[i].append(forcing[i])
        Mtilde.append(leftover)
    A_alpha = {i: sp.expand(spec.As - i * spec.Ac) for i in range(1, q + 1)}
    return dict(q=q, noise_dim=spec.noise_dim, Ac=spec.Ac, As=spec.As,
                A_alpha=A_alpha, f=f, g=g, M=M, Mtilde=Mtilde, zero_flags=set())


def oracle_propagate(cs):
    zeros, flags = {}, set(cs["zero_flags"])
    for i in sorted(flags):
        zeros[sp.Symbol(f"alpha{i}")] = sp.Integer(0)
    for i in range(1, cs["q"] + 1):
        if i in flags:
            continue
        trial = {**zeros, sp.Symbol(f"alpha{i}"): sp.Integer(0)}
        if (sp.expand(cs["f"][i].subs(trial)) == 0
                and all(sp.expand(e.subs(trial)) == 0 for e in cs["g"][i])):
            flags.add(i)
            zeros[sp.Symbol(f"alpha{i}")] = sp.Integer(0)
    return {**cs, "zero_flags": flags,
            "f": {i: sp.expand(e.subs(zeros)) for i, e in cs["f"].items()},
            "g": {i: [sp.expand(e.subs(zeros)) for e in ch]
                  for i, ch in cs["g"].items()},
            "M": sp.expand(cs["M"].subs(zeros)),
            "Mtilde": [sp.expand(e.subs(zeros)) for e in cs["Mtilde"]]}


def oracle_residuals(cs):
    def min_degree(expr):
        expr = sp.expand(expr)
        if expr == 0:
            return None
        return min(i for (i,), c in sp.Poly(expr, x).terms() if c != 0)

    degrees = [d for d in [min_degree(cs["M"])]
               + [min_degree(e) for e in cs["Mtilde"]] if d is not None]
    return {"M": sp.expand(cs["M"]),
            "Mtilde": [sp.expand(e) for e in cs["Mtilde"]],
            "min_degree": min(degrees) if degrees else None,
            "min_degree_M": min_degree(cs["M"]),
            "min_degree_Mtilde": [min_degree(e) for e in cs["Mtilde"]]}


def oracle_json(cs):
    return json.dumps({
        "q": cs["q"], "noise_dim": cs["noise_dim"],
        "Ac": str(cs["Ac"]), "As": str(cs["As"]),
        "A_alpha": {str(i): str(sp.simplify(a)) for i, a in cs["A_alpha"].items()},
        "f": {str(i): str(sp.expand(e)) for i, e in cs["f"].items()},
        "g": {str(i): [str(sp.expand(e)) for e in ch] for i, ch in cs["g"].items()},
        "M": str(sp.expand(cs["M"])),
        "Mtilde": [str(sp.expand(e)) for e in cs["Mtilde"]],
        "zero_flags": sorted(cs["zero_flags"])}, indent=2)


def oracle_numeric(cs, params):
    """The per-call conversion of solve_hierarchy that the numeric form
    replaced: substitute the values, then sp.Poly in the atoms; per
    unflagged order A, the terms of f, and per channel the terms of g and
    the non-vanishing partials of g."""
    values = {sp.Symbol(k): v for k, v in params.items()}
    atoms = [sp.Symbol(f"alpha{i}") for i in range(1, cs.q + 1)]

    def terms(expr):
        return [(k, float(c)) for k, c in sp.Poly(expr.subs(values), *atoms).terms()
                if float(c) != 0.0]

    def partials(expr):
        field = NumericField(dict(terms(expr)))
        return {k: list(field.partial(k).coeffs.items())
                for k in range(cs.q) if field.partial(k).coeffs}

    return {i: (float(sp.N(cs.A_alpha[i].subs(values))), terms(cs.f[i]),
                [terms(e) for e in cs.g[i]], [partials(e) for e in cs.g[i]])
            for i in range(1, cs.q + 1) if i not in cs.zero_flags}


def numeric_terms(nh):
    """The NumericHierarchy in the layout of oracle_numeric."""
    return {i: (nh.A[i], list(nh.f[i].coeffs.items()),
                [list(e.coeffs.items()) for e in nh.g[i]],
                [{k: list(dk.coeffs.items()) for k, dk in dg.items()}
                 for dg in nh.dg[i]])
            for i in nh.A}


FIELDS = ("q", "noise_dim", "Ac", "As", "A_alpha", "f", "g", "M", "Mtilde",
          "zero_flags")

# the two-channel spec of tests/test_manifold.py at q = 8, and the q = 8
# two-channel spec of the benchmark
TWO_CHANNEL_Q8 = {
    "gamma": 0.45, "q": 8, "noise_dim": 2, "Ac": 0, "As": -1,
    "Fc": [{"i": 1, "j": 1, "c": 1}], "Fs": [{"i": 2, "j": 0, "c": -1}],
    "Gc": [[{"i": 2, "j": 1, "c": 1}], [{"i": 1, "j": 2, "c": "1/4"}]],
    "Gs": [[{"i": 0, "j": 3, "c": 1}], [{"i": 3, "j": 0, "c": "1/2"}]]}
BENCH_Q8 = {
    "gamma": 0.45, "q": 8, "noise_dim": 2, "Ac": 0, "As": -1,
    "Fc": [{"i": 1, "j": 1, "c": 1}, {"i": 3, "j": 0, "c": 1}],
    "Fs": [{"i": 2, "j": 0, "c": 1}, {"i": 1, "j": 1, "c": "1/2"}],
    "Gc": [[{"i": 2, "j": 1, "c": 1}], [{"i": 1, "j": 2, "c": "1/4"}]],
    "Gs": [[{"i": 0, "j": 3, "c": 1}], [{"i": 3, "j": 0, "c": "1/2"}]]}


def random_spec(seed):
    """A valid spec with d <= 2, q <= 8, and rational and parameter
    coefficients.  Fs always forces order 2 (so that alpha_2 lives); the
    other fields are sparse, so that some higher orders vanish."""
    rng = random.Random(seed)
    params = {"lam": 0.5, "kappa": -1.5, "sigma": 0.25}

    def coeff():
        r = sp.Rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 5]))
        kind = rng.choice(["rational", "param", "product", "square"])
        p = rng.choice(sorted(params))
        return str({"rational": r, "param": sp.Symbol(p),
                    "product": r * sp.Symbol(p),
                    "square": r * sp.Symbol(p)**2}[kind])

    def terms(degrees, k):
        pairs = [(i, n - i) for n in degrees for i in range(n + 1)]
        return [{"i": i, "j": j, "c": coeff()}
                for i, j in rng.sample(pairs, min(k, len(pairs)))]

    d = rng.choice([1, 2])
    return {"gamma": 0.45, "q": rng.randint(2, 8), "noise_dim": d,
            "Ac": str(sp.Rational(rng.randint(-2, 2), 2) * sp.Symbol("lam")),
            "As": str(-1 + sp.Symbol("kappa") / rng.choice([2, 3])),
            "Fc": terms([2, 3], rng.randint(0, 2)),
            "Fs": [{"i": 2, "j": 0, "c": coeff()}] + terms([2, 3], rng.randint(0, 2)),
            "Gc": [terms([3, 4], rng.randint(0, 2)) for _ in range(d)],
            "Gs": [terms([3, 4], rng.randint(0, 2)) for _ in range(d)],
            "params": params}


ORACLE_SPECS = {
    **{name: EXAMPLES / f"{name}.json"
       for name in ("chekroun_linear", "chekroun_nonlinear", "zero")},
    "two-channel-q8": TWO_CHANNEL_Q8, "bench-q8": BENCH_Q8,
    **{f"random-{seed}": random_spec(seed) for seed in range(1, 17)}}


class TestRingDerivationOracle:
    """The ring derivation gives the expand-based derivation's expressions,
    `==` field by field, and the same JSON byte for byte."""

    @pytest.fixture(scope="class", params=sorted(ORACLE_SPECS))
    def both(self, request):
        spec = load_system(ORACLE_SPECS[request.param])
        derived = derive_system(spec)
        oracle = oracle_derive(spec)
        return (derived, oracle, propagate_zeros(derived), oracle_propagate(oracle),
                spec.params)

    def test_derive_system(self, both):
        derived, oracle, _, _, _ = both
        assert {k: getattr(derived, k) for k in FIELDS} == oracle

    def test_propagate_zeros(self, both):
        _, _, cs, oracle, _ = both
        assert {k: getattr(cs, k) for k in FIELDS} == oracle
        assert cs.to_json() == oracle_json(oracle)

    def test_residuals(self, both):
        _, _, cs, oracle, _ = both
        assert {**residuals(cs), "M": cs.M, "Mtilde": list(cs.Mtilde)} == \
            oracle_residuals(oracle)

    def test_numeric(self, both):
        # the spec's parameter values and values that are no binary fractions
        _, _, cs, _, params = both
        for values in (params, {k: v / 3 + 0.1 for k, v in params.items()}):
            assert numeric_terms(cs.numeric(values)) == oracle_numeric(cs, values)

    def test_numeric_pickles(self, cs_nonlinear):
        nh = cs_nonlinear.numeric({})
        assert numeric_terms(pickle.loads(pickle.dumps(nh))) == numeric_terms(nh)

    def test_q_override(self):
        spec = load_system(BENCH_Q8)
        for q in (2, 5):
            cs = propagate_zeros(derive_system(spec, q=q))
            oracle = oracle_propagate(oracle_derive(spec, q=q))
            assert {k: getattr(cs, k) for k in FIELDS} == oracle

    def test_non_rational_coefficients(self):
        # sqrt(2) and 1/(1 + sigma) are no polynomials over QQ in the
        # parameters; the ring then keeps the parameters in its coefficient
        # domain, whose normal form may differ from sympy's expand
        doc = {
            "gamma": 0.45, "q": 6, "noise_dim": 1,
            "Ac": "sqrt(2)*lam", "As": "-1 + 1/(1 + sigma)",
            "Fc": [{"i": 1, "j": 1, "c": "sqrt(2)"}],
            "Fs": [{"i": 2, "j": 0, "c": "1/(1 + sigma)"},
                   {"i": 1, "j": 1, "c": "lam"}],
            "Gc": [[{"i": 2, "j": 1, "c": "sqrt(2)/2"}]],
            "Gs": [[{"i": 0, "j": 3, "c": "sigma/(1 + sigma)"}]],
            "params": {"sigma": 0.5, "lam": 1.0}}
        spec = load_system(doc)
        cs = propagate_zeros(derive_system(spec))
        oracle = oracle_propagate(oracle_derive(spec))
        assert cs.zero_flags == oracle["zero_flags"] == {1}
        for i in range(1, 7):
            assert sp.expand(cs.f[i]) == sp.expand(oracle["f"][i])
            assert [sp.expand(e) for e in cs.g[i]] == \
                [sp.expand(e) for e in oracle["g"][i]]
            assert sp.cancel(cs.A_alpha[i] - oracle["A_alpha"][i]) == 0
        assert sp.expand(cs.M) == sp.expand(oracle["M"])
        assert [sp.expand(e) for e in cs.Mtilde] == \
            [sp.expand(e) for e in oracle["Mtilde"]]
        for values in (spec.params, {"sigma": 0.3, "lam": 0.7}):
            assert numeric_terms(cs.numeric(values)) == oracle_numeric(cs, values)
        res, ores = residuals(cs), oracle_residuals(oracle)
        assert [res[k] for k in ("min_degree", "min_degree_M", "min_degree_Mtilde")] == \
            [ores[k] for k in ("min_degree", "min_degree_M", "min_degree_Mtilde")]
        # with As free of sigma, only the forcings' coefficients, in the
        # ring's domain, name it
        cs = propagate_zeros(derive_system(load_system({**doc, "As": "-1"})))
        with pytest.raises(ValueError, match=r"parameter\(s\) sigma:"):
            cs.numeric({"lam": 1.0})

    def test_no_expression_tree_expansion(self, monkeypatch):
        # the three functions stay on the ring: no sp.expand, subs or Poly
        def forbidden(*args, **kwargs):
            raise AssertionError("expression-tree call in the ring derivation")

        spec = load_system(BENCH_Q8)
        for name in ("expand", "Poly"):
            monkeypatch.setattr(sp, name, forbidden)
        monkeypatch.setattr(sp.Basic, "subs", forbidden)
        cs = propagate_zeros(derive_system(spec))
        residuals(cs), cs.M, cs.Mtilde

    def test_residual_degrees_build_no_expression(self, monkeypatch):
        # the degrees come from the ring forms: no ring element becomes a
        # sympy expression, so the views cs.M and cs.Mtilde stay unbuilt
        def forbidden(*args, **kwargs):
            raise AssertionError("a ring element became a sympy expression")

        cs = propagate_zeros(derive_system(load_system(BENCH_Q8)))
        monkeypatch.setattr(PolyElement, "as_expr", forbidden)
        assert residuals(cs) == {"min_degree": 9, "min_degree_M": 9,
                                 "min_degree_Mtilde": [9, 9]}
        assert "M" not in vars(cs) and "Mtilde" not in vars(cs)

    def test_symbolic_system_does_not_pickle(self, cs_nonlinear):
        # its ring forms do not pickle; the numeric form does
        with pytest.raises(TypeError, match=r"pickle cs\.numeric\(params\)"):
            pickle.dumps(cs_nonlinear)
        with pytest.raises(TypeError, match=r"pickle cs\.numeric\(params\)"):
            copy.deepcopy(cs_nonlinear)
