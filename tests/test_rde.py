import numpy as np
import pytest

from oracles import BlowUpError, constant_path, solve_rde
from roughcm import Grid, coarsen, lift_brownian, solve_affine


class TestSolveRde:
    def test_linear_drift_only(self):
        # zero noise path: dY = -Y dt
        rp = lift_brownian(0, Grid(0.0, 1.0, 512))
        rp.W[:] = 0.0
        rp.WW[:] = 0.0
        sol = solve_rde(-1.0, lambda y: 0.0 * y, lambda y: np.zeros((1, 1)),
                        lambda y: np.zeros((1, 1, 1)), rp, 1.0)
        assert abs(sol.Y[-1, 0] - np.exp(-1.0)) < 1e-3

    def test_geometric_noise(self):
        rp = lift_brownian(2, Grid(0.0, 1.0, 512))
        sigma = 0.5
        sol = solve_rde(0.0, lambda y: 0.0 * y,
                        lambda y: sigma * y.reshape(1, 1),
                        lambda y: sigma * np.ones((1, 1, 1)), rp, 1.0)
        assert abs(sol.Y[-1, 0] - np.exp(sigma * rp.W[-1, 0])) < 2e-3

    def test_output_derivative_is_field(self):
        rp = lift_brownian(2, Grid(0.0, 1.0, 64))
        sol = solve_rde(0.0, lambda y: 0.0 * y,
                        lambda y: 0.5 * y.reshape(1, 1),
                        lambda y: 0.5 * np.ones((1, 1, 1)), rp, 1.0)
        assert np.allclose(sol.Yp[:, 0, 0], 0.5 * sol.Y[:, 0])

    def test_blow_up_guard(self):
        rp = lift_brownian(0, Grid(0.0, 4.0, 256))
        with pytest.raises(BlowUpError):
            solve_rde(0.0, lambda y: y**2, lambda y: np.zeros((1, 1)),
                      lambda y: np.zeros((1, 1, 1)), rp, 50.0)


class TestSolveAffine:
    def test_homogeneous(self):
        rp = lift_brownian(1, Grid(0.0, 2.0, 64))
        sol = solve_affine(-0.5, None, None, rp, 3.0)
        assert np.allclose(sol.Y[:, 0], 3.0 * np.exp(-0.5 * rp.grid.nodes))

    def test_constant_forcing(self):
        rp = lift_brownian(1, Grid(0.0, 3.0, 768))
        sol = solve_affine(-1.0, np.ones(769), None, rp, 0.0)
        ref = 1 - np.exp(-rp.grid.nodes)
        assert np.max(np.abs(sol.Y[:, 0] - ref)) < 1e-12

    def test_matches_explicit_scheme(self):
        # cross-check the two solvers on dY = -Y dt + dW; they use different
        # discretizations, so agreement is first order in the step
        diffs = []
        for n in (256, 512):
            rp = lift_brownian(5, Grid(0.0, 1.0, 512))
            rp = coarsen(rp, 512 // n) if n < 512 else rp
            unit = constant_path(rp, 1.0)
            mild = solve_affine(-1.0, None, unit, rp, 0.0)
            davie = solve_rde(-1.0, lambda y: 0.0 * y,
                              lambda y: np.ones((1, 1)),
                              lambda y: np.zeros((1, 1, 1)), rp, 0.0)
            diffs.append(np.max(np.abs(mild.Y - davie.Y)))
        assert diffs[1] < 0.7 * diffs[0]
        assert diffs[1] < 5e-3

    def test_derivative_carries_integrand(self):
        rp = lift_brownian(1, Grid(0.0, 1.0, 32))
        g = constant_path(rp, 2.0)
        sol = solve_affine(-1.0, None, g, rp, 0.0)
        assert np.allclose(sol.Yp[:, 0, 0], 2.0)
