from pathlib import Path

import numpy as np
import pytest

from oracles import constant_path, ou_stationary, stationarity_check
from roughcm import (Grid, NonStableOrderError, NumericField, NumericHierarchy,
                     derive_system, lift_brownian, load_system,
                     propagate_zeros, solve_hierarchy)
from test_manifold import TWO_CHANNEL

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(scope="module")
def window():
    return lift_brownian(7, Grid(-12.0, 0.0, 12 * 64))


@pytest.fixture(scope="module")
def cs_linear():
    return propagate_zeros(derive_system(
        load_system(EXAMPLES / "chekroun_linear.json")))


@pytest.fixture(scope="module")
def cs_nonlinear():
    return propagate_zeros(derive_system(
        load_system(EXAMPLES / "chekroun_nonlinear.json")))


class TestOuStationary:
    def test_variance(self):
        vals = [ou_stationary(lift_brownian(s, Grid(-6.0, 0.0, 6 * 32))).path.Y[-1, 0]
                for s in range(800)]
        assert abs(np.var(vals) - 0.5) < 0.08

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            ou_stationary(lift_brownian(0, Grid(-2.0, 0.0, 64)))

    def test_derivative_is_identity(self, window):
        st = ou_stationary(window)
        assert np.allclose(st.path.Yp, np.eye(1))
        assert st.tail_bound < 1e-4


def one_order(A, drift=0.0, noise=0.0, order=1):
    """A one-channel NumericHierarchy whose only unflagged order is `order`,
    with constant drift and diffusion forcings."""
    const = (0,) * order
    return NumericHierarchy(q=order, d=1, A={order: A},
                            f={order: NumericField({const: drift})},
                            g={order: [NumericField({const: noise})]},
                            dg={order: [{}]})


class TestStationaryAffine:
    def test_quasistatic_constant_forcing_is_exact(self, window):
        res = solve_hierarchy(one_order(-2.0, drift=3.0), window, init="quasistatic")
        assert np.max(np.abs(res.alphas[1].Y[:, 0] - 1.5)) < 1e-12
        assert res.tail_bounds[1] == np.exp(-24.0) * 3.0

    def test_zero_init_transient(self, window):
        res = solve_hierarchy(one_order(-1.0, drift=1.0), window, init="zero")
        T = 12.0
        ref = 1 - np.exp(-(window.grid.nodes + T))
        assert np.max(np.abs(res.alphas[1].Y[:, 0] - ref)) < 1e-12
        assert res.tail_bounds[1] == np.exp(-T)

    def test_unstable_rejected(self, window):
        # order 1 is flagged, so the error must name order 2
        for A in (0.5, 0.0):
            with pytest.raises(NonStableOrderError, match=f"^order 2: linear part {A} "):
                solve_hierarchy(one_order(A, drift=1.0, order=2), window)

    def test_diffusion_derivative(self, window):
        res = solve_hierarchy(one_order(-1.0, noise=1.0), window)
        assert np.all(res.alphas[1].Yp[:, 0, 0] == 1.0)
        # no drift forcing: the tail bound's scale is floored at 1
        assert res.tail_bounds[1] == np.exp(-12.0)


class TestHierarchy:
    def test_deterministic_linear_example(self, window, cs_linear):
        res = solve_hierarchy(cs_linear, window,
                              params={"lam": 0.0, "kappa": -1.0, "sigma": 0.0})
        assert res.alpha0[1] == 0.0 and res.alpha0[3] == 0.0
        assert res.alpha0[2] == pytest.approx(-1.0, abs=1e-12)
        assert res.alpha0[4] == pytest.approx(-2.0, abs=1e-12)

    def test_nonlinear_example_tracks_ou(self, window, cs_nonlinear):
        res = solve_hierarchy(cs_nonlinear, window)
        z0 = ou_stationary(window).path.Y[-1, 0]
        assert res.alpha0[2] == pytest.approx(1.0, abs=1e-12)
        assert res.alpha0[4] == pytest.approx(-4.0, abs=1e-12)
        assert res.alpha0[5] == pytest.approx(-2.0 * z0, abs=1e-12)
        assert res.alpha0[6] == pytest.approx(40.0 + z0, abs=1e-10)

    def test_numeric_form_gives_the_same_floats(self, window, cs_linear):
        params = {"lam": 0.0, "kappa": -1.0, "sigma": 0.5}
        res = solve_hierarchy(cs_linear, window, params=params)
        again = solve_hierarchy(cs_linear.numeric(params), window)
        assert again.alpha0 == res.alpha0 and again.zero_flags == {1, 3}
        for i in res.alphas:
            assert np.array_equal(again.alphas[i].Y, res.alphas[i].Y)
            assert np.array_equal(again.alphas[i].Yp, res.alphas[i].Yp)

    def test_params_with_numeric_form_rejected(self, window, cs_linear):
        # the numeric form holds its parameter values; others are no override
        params = {"lam": 0.0, "kappa": -1.0, "sigma": 0.5}
        with pytest.raises(ValueError, match="params is for a CoefficientSystem"):
            solve_hierarchy(cs_linear.numeric(params), window, params=params)

    @pytest.mark.parametrize("params, missing", [
        (None, "kappa, lam, sigma"), ({"lam": 0.0, "kappa": -1.0}, "sigma")],
        ids=["no-params", "no-sigma"])
    def test_missing_parameter_named(self, window, cs_linear, params, missing):
        with pytest.raises(ValueError, match=f"parameter\\(s\\) {missing}:"):
            solve_hierarchy(cs_linear, window, params=params)

    @pytest.mark.parametrize("spec, path_d", [("sextic", 2), ("quartic", 2),
                                              ("two-channel", 1)],
                             ids=["sextic-d2", "quartic-d2", "two-channel-d1"])
    def test_channel_count_checked(self, spec, path_d):
        spec = load_system({"sextic": EXAMPLES / "chekroun_nonlinear.json",
                            "quartic": EXAMPLES / "chekroun_linear.json",
                            "two-channel": TWO_CHANNEL}[spec])
        cs = propagate_zeros(derive_system(spec))
        rp = lift_brownian(0, Grid(-4.0, 0.0, 4 * 16), d=path_d)
        with pytest.raises(ValueError, match=f"has {path_d} channel.*has "
                                             f"{spec.noise_dim} noise channel"):
            solve_hierarchy(cs, rp, params=spec.params)

    @pytest.mark.parametrize("spec", ["chekroun_linear", "chekroun_nonlinear", "zero"])
    def test_bad_init_rejected(self, window, spec):
        # zero.json flags every order, so no order reaches solve_affine
        spec = load_system(EXAMPLES / f"{spec}.json")
        cs = propagate_zeros(derive_system(spec))
        with pytest.raises(ValueError, match="init must be"):
            solve_hierarchy(cs, window, params=spec.params, init="bogus")

    def test_zero_orders_are_zero_paths(self, window, cs_linear):
        res = solve_hierarchy(cs_linear, window,
                              params={"lam": 0.0, "kappa": -1.0, "sigma": 0.0})
        assert np.all(res.alphas[1].Y == 0.0)
        assert np.all(res.alphas[3].Y == 0.0)

    def test_resonant_order_rejected(self, window):
        # Ac > 0 makes As - i*Ac cross zero for no i here, so force it:
        # As = -2, Ac = -1 gives A_alpha[2] = 0 at order 2
        doc = {
            "gamma": 0.45, "q": 2, "noise_dim": 1, "Ac": -1, "As": -2,
            "Fc": [], "Fs": [{"i": 2, "j": 0, "c": 1}],
            "Gc": [[]], "Gs": [[]], "params": {}, "override": False,
        }
        cs = propagate_zeros(derive_system(load_system(doc)))
        with pytest.raises(NonStableOrderError):
            solve_hierarchy(cs, window)


class TestStationarityCheck:
    def test_ou_defect_matches_recursion(self, window):
        st = ou_stationary(window)
        g = constant_path(window, 1.0)
        defect = stationarity_check(st.path, -1.0, None, g, window, horizon=6.0)
        assert defect < 1e-12

    def test_detects_wrong_path(self, window):
        wrong = constant_path(window, 1.0)
        g = constant_path(window, 1.0)
        defect = stationarity_check(wrong, -1.0, None, g, window, horizon=6.0)
        assert defect > 1e-3
