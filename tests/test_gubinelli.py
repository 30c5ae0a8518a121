import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (lift_smooth, loop_convolve_diffusion,
                     loop_convolve_drift, reference_path, rough_integral,
                     solve_rde)
from roughcm import (ControlledPath, Grid, coarsen, convolve_diffusion,
                     convolve_drift, lift_brownian, semigroup_step)


def circle_lift(n=64, refinement=64):
    t = np.linspace(0.0, 1.0, n * refinement + 1)
    samples = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1)
    return lift_smooth(samples, Grid(0.0, 1.0, n), gamma=0.45)


class TestRoughIntegral:
    def test_w_dw_telescopes(self):
        rp = lift_brownian(3, Grid(0.0, 1.0, 256))
        cp = reference_path(rp)
        assert rough_integral(cp, 0, rp.n) == pytest.approx(
            0.5 * rp.W[-1, 0]**2, abs=1e-14)

    def test_additive_over_subintervals(self):
        rp = lift_brownian(3, Grid(0.0, 1.0, 128))
        cp = reference_path(rp)
        whole = rough_integral(cp, 0, 128)
        assert whole == pytest.approx(rough_integral(cp, 0, 50)
                                      + rough_integral(cp, 50, 128), abs=1e-14)

    def test_smooth_integrand_quadrature(self):
        # int_0^1 W^2 d(W^1, W^2): integrand (sin, sin) against circle lift
        rp = circle_lift()
        Y = np.stack([rp.W[:, 1] + np.sin(0.0), rp.W[:, 1]], axis=1)
        Y[:, 0] = np.sin(2 * np.pi * rp.grid.nodes)
        Y[:, 1] = np.sin(2 * np.pi * rp.grid.nodes)
        Yp = np.zeros((rp.n + 1, 2, 2))
        Yp[:, 0, 1] = 1.0
        Yp[:, 1, 1] = 1.0
        cp = ControlledPath(rp, Y, Yp)
        ref = sum(quad(lambda t, b=b: np.sin(2 * np.pi * t) * 2 * np.pi *
                       (-np.sin(2 * np.pi * t) if b == 0 else np.cos(2 * np.pi * t)),
                       0, 1, limit=200)[0] for b in range(2))
        assert rough_integral(cp, 0, rp.n) == pytest.approx(ref, abs=1e-5)


class TestSemigroup:
    def test_scalar(self):
        E, Phi = semigroup_step(-2.0, 0.5)
        assert E == pytest.approx(np.exp(-1.0))
        assert Phi == pytest.approx((1 - np.exp(-1.0)) / 2.0)

    def test_zero(self):
        E, Phi = semigroup_step(0.0, 0.25)
        assert E == 1.0 and Phi == 0.25


class TestConvolutions:
    def test_drift_constant_forcing(self):
        g = Grid(0.0, 2.0, 512)
        out = convolve_drift(-1.0, np.ones(513), g)
        assert np.max(np.abs(out - (1 - np.exp(-g.nodes)))) < 1e-12

    def test_drift_midpoint_order(self):
        # midpoint rule: error O(h^2) for smooth forcing
        errs = []
        for n in (64, 256):
            g = Grid(0.0, 1.0, n)
            f = np.sin(3 * g.nodes)
            out = convolve_drift(-0.5, f, g)
            ref = quad(lambda s: np.exp(-0.5 * (1 - s)) * np.sin(3 * s), 0, 1)[0]
            errs.append(abs(out[-1] - ref))
        assert errs[1] < errs[0] / 12

    def test_diffusion_reduces_to_integral(self):
        rp = lift_brownian(8, Grid(0.0, 1.0, 128))
        cp = reference_path(rp)
        out = convolve_diffusion(0.0, cp.Y, cp.Yp, rp)
        ref = [rough_integral(cp, 0, k) for k in range(rp.n + 1)]
        assert np.allclose(out, ref)


class TestPerRowRate:
    """An array A gives each batch row its own rate: the floats of one
    scalar-A call per row, and a scalar A those of the node loop."""

    RATES = np.array([[-1.5], [0.0], [0.7]])    # (3, 1) over (3, 2) rows

    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(21)
        rp = lift_brownian(4, Grid(0.0, 1.0, 32), d=2)
        f = rng.normal(size=(3, 2, rp.n + 1))
        Y = rng.normal(size=(3, 2, rp.n + 1, 2))
        Yp = rng.normal(size=(3, 2, rp.n + 1, 2, 2))
        return rp, f, Y, Yp

    def test_drift_matches_rows(self, data):
        rp, f, _, _ = data
        for A in (self.RATES, np.broadcast_to(self.RATES, (3, 2))):
            out = convolve_drift(A, f, rp.grid)
            rows = [convolve_drift(A[r, 0], f[r], rp.grid) for r in range(3)]
            assert out.tobytes() == np.stack(rows).tobytes()

    def test_diffusion_matches_rows(self, data):
        rp, _, Y, Yp = data
        out = convolve_diffusion(self.RATES, Y, Yp, rp)
        rows = [convolve_diffusion(a, Y[r], Yp[r], rp)
                for r, a in enumerate(self.RATES[:, 0])]
        assert out.shape == (3, 2, rp.n + 1)
        assert out.tobytes() == np.stack(rows).tobytes()

    @pytest.mark.parametrize("A", [-1.5, 0.0, 0.7])
    def test_scalar_matches_loop(self, data, A):
        rp, f, Y, Yp = data
        for ff in (f, f[0, 0]):
            assert (convolve_drift(A, ff, rp.grid).tobytes()
                    == loop_convolve_drift(A, ff, rp.grid).tobytes())
        for y, yp in ((Y, Yp), (Y[0, 0], Yp[0, 0])):
            assert (convolve_diffusion(A, y, yp, rp).tobytes()
                    == loop_convolve_diffusion(A, y, yp, rp).tobytes())

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 3, 2)])
    def test_rate_must_broadcast_to_rows(self, data, shape):
        rp, f, Y, Yp = data
        A = np.full(shape, -1.0)
        with pytest.raises(ValueError, match="does not broadcast"):
            convolve_drift(A, f, rp.grid)
        with pytest.raises(ValueError, match="does not broadcast"):
            convolve_diffusion(A, Y, Yp, rp)
        # a single path has no batch axes, so only a scalar A fits it
        with pytest.raises(ValueError, match="does not broadcast"):
            convolve_drift(A[..., :1], f[0, 0], rp.grid)


def test_stratonovich_convergence_slope():
    # dY = sigma Y dW along a geometric lift converges to y0 exp(sigma W_1)
    sigma, y0 = 0.7, 1.0
    slopes = []
    for seed in range(6):
        master = lift_brownian(seed, Grid(0.0, 1.0, 512))
        exact = y0 * np.exp(sigma * master.W[-1, 0])
        errs, ns = [], []
        for factor in (8, 4, 2, 1):
            sub = coarsen(master, factor) if factor > 1 else master
            sol = solve_rde(0.0, lambda y: 0.0 * y,
                            lambda y: sigma * y.reshape(1, 1),
                            lambda y: sigma * np.ones((1, 1, 1)), sub, y0)
            errs.append(abs(sol.Y[-1, 0] - exact))
            ns.append(sub.n)
        slopes.append(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
    assert np.median(slopes) >= 0.9
