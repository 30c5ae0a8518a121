import dataclasses
import json
from pathlib import Path

import pytest
import sympy as sp

from roughcm import (FieldValidationError, derive_system, load_system,
                     propagate_zeros, residuals)

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
        assert sp.expand(res["M"] - (6 * a2 * a4 * x**6 + 4 * a4**2 * x**8)) == 0
        assert all(e == 0 for e in res["Mtilde"])
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


class TestZeroSystem:
    def test_everything_vanishes(self):
        cs = propagate_zeros(derive_system(
            load_system(EXAMPLES / "zero.json")))
        assert cs.zero_flags == {1, 2, 3, 4}
        assert sp.expand(cs.M) == 0


class TestValidation:
    def base(self):
        return json.loads((EXAMPLES / "chekroun_nonlinear.json").read_text())

    def test_drift_constant_term_rejected(self):
        doc = self.base()
        doc["Fc"] = [{"i": 0, "j": 0, "c": 1}]
        with pytest.raises(FieldValidationError, match="origin"):
            load_system(doc)

    def test_linear_diffusion_rejected(self):
        doc = self.base()
        doc["Gs"] = [[{"i": 1, "j": 0, "c": 1}]]
        with pytest.raises(FieldValidationError):
            load_system(doc)

    def test_override_skips_validation(self):
        doc = self.base()
        doc["Gs"] = [[{"i": 1, "j": 0, "c": 1}]]
        doc["override"] = True
        load_system(doc)

    def test_gamma_out_of_range(self):
        doc = self.base()
        doc["gamma"] = 0.25
        with pytest.raises((FieldValidationError, ValueError)):
            load_system(doc)


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

    def test_to_json_fields(self, cs_nonlinear):
        doc = json.loads(cs_nonlinear.to_json())
        assert doc["zero_flags"] == [1, 3]
        assert doc["g"]["5"] == ["-2*alpha2**2"]
        assert doc["g"]["6"] == ["alpha2**3"]
