import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import roughcm.manifold
from oracles import (block_path, constant_path, cutoff_scale, exact_picard,
                     restrict, shift)
from roughcm import (Grid, LPConfig, ManifoldApproximation,
                     NewtonConvergenceError, NonContractionError,
                     NonConvergenceError, NumericField,
                     convolve_diffusion, convolve_drift, derive_system,
                     evaluate_phi, leading_order_happ, lift_brownian,
                     load_system, lyapunov_perron_hc, lyapunov_perron_sweep,
                     norm_d2g, order_fit, propagate_zeros, smoothstep,
                     solve_hierarchy, unit_block)
from roughcm.controlled import d2g_terms
from roughcm.manifold import _Blocks, _Sweep

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(scope="module")
def window():
    return lift_brownian(11, Grid(-12.0, 0.0, 12 * 64))


@pytest.fixture(scope="module")
def sys_linear():
    return load_system(EXAMPLES / "chekroun_linear.json").numeric()


@pytest.fixture(scope="module")
def sys_nonlinear():
    return load_system(EXAMPLES / "chekroun_nonlinear.json").numeric()


def _on_channels(nsys, d):
    """nsys with d noise channels, the added ones without fields: the
    floats of nsys on a path with d channels."""
    pad = [NumericField({})] * (d - nsys.d)
    return dataclasses.replace(nsys, d=d, Gc=nsys.Gc + pad, Gs=nsys.Gs + pad)


class TestEvaluatePhi:
    def test_zero(self):
        ma = ManifoldApproximation(q=4, alpha0={2: 1.0, 4: -4.0})
        assert evaluate_phi(ma, 0.0) == 0.0

    def test_deterministic_limit_value(self):
        ma = ManifoldApproximation(q=4, alpha0={2: 1.0, 4: -4.0}, radius=0.2)
        assert evaluate_phi(ma, 0.1) == pytest.approx(0.0096)

    def test_tangency(self):
        # no constant or linear term can enter, and the message names the
        # non-zero alpha_1 as the fault, not tangency
        with pytest.raises(ValueError, match=r"^alpha_1 = 0\.5 is not 0: .* tangent"):
            ManifoldApproximation(q=4, alpha0={1: 0.5, 2: 1.0})

    def test_radius_warning(self):
        ma = ManifoldApproximation(q=4, alpha0={2: 1.0}, radius=0.05)
        with pytest.warns(UserWarning):
            evaluate_phi(ma, 0.2)


class TestCutoff:
    def test_smoothstep_plateaus(self):
        assert smoothstep(0.0) == 1.0 and smoothstep(0.5) == 1.0
        assert smoothstep(1.0) == 0.0 and smoothstep(2.0) == 0.0
        assert smoothstep(0.75) == pytest.approx(0.5)

    def test_identity_below_half(self, window):
        cp = constant_path(window, 0.1)
        assert cutoff_scale(cp, 0.5) == 1.0

    def test_zero_above_radius(self, window):
        cp = constant_path(window, 1.0)
        assert cutoff_scale(cp, 0.5) == 0.0

    def test_midpoint_scaling(self, window):
        cp = constant_path(window, 0.75)
        assert cutoff_scale(cp, 1.0) == pytest.approx(0.5)


class TestLeadingOrderHapp:
    def test_zero_fields(self, window):
        sys = load_system(EXAMPLES / "zero.json").numeric()
        assert leading_order_happ(sys, 0.1, window) == 0.0
        zeros = leading_order_happ(sys, np.array([0.1, 0.05]), window)
        assert zeros.tolist() == [0.0, 0.0]

    def test_closed_form(self, window, sys_linear):
        # Ac = 0 freezes the center orbit, so the sum telescopes to
        # -xi^2 (1 - e^{-N})
        xi = 0.1
        val = leading_order_happ(sys_linear, xi, window)
        assert val == pytest.approx(-xi**2 * (1 - np.exp(-12.0)), abs=1e-12)


class TestLyapunovPerron:
    def test_zero_boundary_value(self, window, sys_linear):
        lp = LPConfig(fp_tol=1e-10)
        res = lyapunov_perron_hc(sys_linear, 0.0, window, lp)
        assert res.hc == 0.0 and res.iterations == 1

    def test_deterministic_series_oracle(self, window, sys_linear):
        xi = 0.05
        lp = LPConfig(fp_tol=1e-12)
        res = lyapunov_perron_hc(sys_linear, xi, window, lp)
        assert res.converged
        # alpha_2 = -1, alpha_4 = -2 for this system
        assert abs(res.hc - (-xi**2 - 2 * xi**4)) < 20 * xi**6

    def test_center_component_is_boundary_value(self, window, sys_linear):
        lp = LPConfig(fp_tol=1e-12)
        res = lyapunov_perron_hc(sys_linear, 0.03, window, lp)
        x, y = _Sweep(sys_linear, [0.03], window, lp).values(res.state)[-1]
        assert x[-1] == pytest.approx(0.03, abs=1e-14)
        assert y[-1] == res.hc

    def test_fixed_point_consistency(self, window, sys_linear):
        lp = LPConfig(fp_tol=1e-10)
        res = lyapunov_perron_hc(sys_linear, 0.04, window, lp)
        assert res.distances[-1] < lp.fp_tol

    def test_newton_matches_picard(self, window, sys_linear):
        lp = LPConfig(fp_tol=1e-11)
        a = lyapunov_perron_hc(sys_linear, 0.05, window, lp)
        b = lyapunov_perron_hc(sys_linear, 0.05, window, lp, solver="newton")
        assert abs(a.hc - b.hc) < 1e-9
        # each solve counts its own steps: Picard sweeps, Newton-Krylov steps
        assert a.iterations == len(a.distances) and 1 <= b.iterations < a.iterations

    @pytest.mark.parametrize("spec", ["chekroun_nonlinear", "chekroun_linear"])
    def test_xi_above_half_the_cutoff_meets_the_ramp(self, spec):
        # after the first sweep the last block holds x(0) = xi, so its
        # D^{2 gamma} norm is at least |xi| > R/2, converged or not
        nsys = load_system(EXAMPLES / f"{spec}.json").numeric()
        rp = lift_brownian(0, Grid(-4.0, 0.0, 4 * 16), gamma=nsys.gamma)
        results = lyapunov_perron_sweep(nsys, [0.26, 0.3, 0.4, 0.5], rp,
                                        LPConfig(cutoff_R=0.5))
        assert [r.norm_breach for r in results] == [True] * 4

    def test_non_contraction_aborts(self, window, sys_linear):
        # large boundary value with a wide cutoff: the backward center orbit
        # grows over the window and the plain iteration expands
        lp = LPConfig(cutoff_R=2.0, fp_tol=1e-12)
        with pytest.raises(NonContractionError, match="shrink"):
            lyapunov_perron_hc(sys_linear, 0.2, window, lp)

    def test_newton_non_convergence_named(self, sys_linear, monkeypatch):
        rp = lift_brownian(0, Grid(-4.0, 0.0, 4 * 16), gamma=0.45)
        monkeypatch.setattr(roughcm.manifold, "MAX_ITERS", 1)
        with pytest.raises(NewtonConvergenceError, match="did not converge in 1 "):
            lyapunov_perron_hc(sys_linear, 0.05, rp, LPConfig(), solver="newton")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_xi_rejected(self, window, sys_nonlinear, bad):
        lp = LPConfig()
        with pytest.raises(ValueError, match="cutoff radius"):
            lyapunov_perron_hc(sys_nonlinear, bad, window, lp)
        with pytest.raises(ValueError, match="cutoff radius"):
            lyapunov_perron_sweep(sys_nonlinear, [0.05, bad], window, lp)

    @pytest.mark.parametrize("spec, path_d", [("sextic", 2), ("quartic", 2),
                                              ("two-channel", 1)],
                             ids=["sextic-d2", "quartic-d2", "two-channel-d1"])
    def test_channel_count_checked(self, spec, path_d):
        nsys = load_system({"sextic": EXAMPLES / "chekroun_nonlinear.json",
                            "quartic": EXAMPLES / "chekroun_linear.json",
                            "two-channel": TWO_CHANNEL}[spec]).numeric()
        rp = lift_brownian(0, Grid(-4.0, 0.0, 4 * 16), d=path_d)
        lp = LPConfig()
        match = f"has {path_d} channel.*has {nsys.d} noise channel"
        with pytest.raises(ValueError, match=match):
            lyapunov_perron_sweep(nsys, [0.05, 0.01], rp, lp)
        with pytest.raises(ValueError, match=match):
            lyapunov_perron_hc(nsys, 0.05, rp, lp, solver="newton")
        with pytest.raises(ValueError, match=match):
            leading_order_happ(nsys, [0.05, 0.01], rp)

    def test_window_checked(self, sys_linear):
        # the LP reads its window [-N, 0] off the path, which must split
        # into whole unit blocks
        for grid in (Grid(-4.5, 0.0, 4 * 16), Grid(-4.0, 0.0, 4 * 16 + 1)):
            with pytest.raises(ValueError, match="whole unit blocks"):
                lyapunov_perron_sweep(sys_linear, [0.05], lift_brownian(0, grid),
                                      LPConfig())

    @pytest.mark.parametrize("grid, match", [
        (Grid(-5.0, -1.0, 4 * 16), r"Grid\(-5\.0, -1\.0, 64\) must end at time 0"),
        (Grid(-1.0, 0.0, 16), r"Grid\(-1\.0, 0\.0, 16\) must span at least 2 unit blocks")],
        ids=["ends-before-0", "one-block"])
    @pytest.mark.parametrize("solver", ["picard", "newton"])
    def test_path_window_named(self, sys_linear, grid, match, solver):
        with pytest.raises(ValueError, match=match):
            lyapunov_perron_sweep(sys_linear, [0.05], lift_brownian(0, grid),
                                  LPConfig(), solver=solver)

    def test_window_read_from_path(self, sys_linear):
        # a default LPConfig serves a path over 8 unit blocks as well as 12
        rp = lift_brownian(0, Grid(-8.0, 0.0, 8 * 32))
        res, = lyapunov_perron_sweep(sys_linear, [0.05], rp, LPConfig())
        assert res.converged and res.state.shape[0] == 8

    def test_stochastic_self_consistency(self, sys_nonlinear):
        # |h^c - phi| / xi^{q+1} stays bounded across a dyadic sweep
        rp = lift_brownian(5, Grid(-12.0, 0.0, 12 * 64), gamma=0.45)
        cs = propagate_zeros(derive_system(
            load_system(EXAMPLES / "chekroun_nonlinear.json")))
        hier = solve_hierarchy(cs, rp, init="zero")
        ma = ManifoldApproximation(q=6, alpha0=hier.alpha0, radius=0.2)
        lp = LPConfig(fp_tol=1e-10)
        ratios = []
        for xi in (0.1, 0.05, 0.025):
            res = lyapunov_perron_hc(sys_nonlinear, xi, rp, lp)
            ratios.append(abs(res.hc - evaluate_phi(ma, xi)) / xi**7)
        assert max(ratios) / min(ratios) < 1e2


class TestLPConfig:
    @pytest.mark.parametrize("bad", [
        {"cutoff_R": 0.0}, {"cutoff_R": -0.5}, {"fp_tol": 0.0},
        {"fp_tol": -1e-8}, {"fp_tol": float("inf")}, {"fp_tol": float("nan")},
        {"cutoff_R": float("nan")}],
        ids=["R-0", "R-negative", "tol-0", "tol-negative", "tol-inf",
             "tol-nan", "R-nan"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            LPConfig(**bad)


def _fill_block(kind, V, D, tau, scale, rng):
    """Write one block's values V (2, nu+1) and derivatives D (2, nu+1, d)."""
    if kind == "spike":
        node = rng.integers(len(tau))
        V[:, node] = scale * rng.normal(size=2)
        D[:, node] = scale * rng.normal(size=(2, D.shape[2]))
    elif kind == "flat":
        V[:] = scale * rng.normal(size=(2, 1))
    elif kind == "rough":
        V[:] = scale * rng.normal(size=(2, 1)) * (1 + tau)
        D[:] = scale * rng.normal(size=D.shape)
    else:
        V[:] = scale * (rng.normal(size=(2, 1)) + rng.normal(size=(2, 1)) * tau)
        D[:] = scale * rng.normal(size=(2, 1, D.shape[2]))


def _random_states(sw, rng):
    """Named seeded states over decades of scale: zero, a spike in one block,
    flat blocks (whose bound is tight), rough derivative rows, smooth rows,
    and blocks of all kinds mixed."""
    kinds = ("spike", "flat", "rough", "smooth")
    states = [("zero", sw.zero_state())]
    for trial in range(4):
        scale = 10.0 ** rng.uniform(-4, 1)
        for kind in kinds + ("mixed",):
            state = sw.zero_state()
            V, D = sw.values(state)[0], sw.derivs(state)[0]
            blocks = [rng.integers(sw.N)] if kind == "spike" else range(sw.N)
            for b in blocks:
                k = kinds[rng.integers(len(kinds))] if kind == "mixed" else kind
                _fill_block(k, V[b], D[b], sw.blocks.grid.nodes,
                            scale * 10.0 ** rng.uniform(-1, 1), rng)
            states.append((f"{kind}-{trial}", state))
    return states


class TestNormBounds:
    @pytest.fixture(scope="class", params=[1, 2], ids=["d1", "d2"])
    def sweep(self, request, sys_nonlinear):
        rp = lift_brownian(3, Grid(-4.0, 0.0, 4 * 32), d=request.param, gamma=0.45)
        return _Sweep(_on_channels(sys_nonlinear, request.param), [0.05], rp,
                      LPConfig())

    def test_bound_dominates_exact_norm(self, sweep):
        for name, state in _random_states(sweep, np.random.default_rng(11)):
            U = sweep.norm_bounds(state)[1][0]
            exact = [norm_d2g(block_path(sweep, state[0], i)).total for i in range(sweep.N)]
            assert np.all(U >= exact), name

    def test_lower_bound_below_exact_norm(self, sweep):
        states = _random_states(sweep, np.random.default_rng(11))
        spiked = states[1][1].copy()
        spiked[0, sweep.N - 2, 3] = np.nan
        for name, state in states + [("nan-spike", spiked)]:
            L = sweep.norm_bounds(state)[0][0]
            exact = np.array([norm_d2g(block_path(sweep, state[0], i)).total
                              for i in range(sweep.N)])
            finite = np.isfinite(exact)
            assert finite.all() == (name != "nan-spike"), name
            assert np.array_equal(np.isfinite(L), finite), name
            assert np.all(L[finite] <= exact[finite]), name

    def test_pruned_distance_is_exact_max(self, sweep):
        rng = np.random.default_rng(12)
        states = _random_states(sweep, rng)
        N = sweep.N
        # block [b, b+1] weighs e^{-eta (b+1)}, eta = As/2
        assert sweep.weights.tolist() == [np.exp(-0.5 * sweep.sys.As * (i - N + 1))
                                          for i in range(N)]
        for (name, a), (_, b) in itertools.combinations(states, 2):
            diff = a - b
            full = max(sweep.weights[i] *
                       norm_d2g(block_path(sweep, diff[0], i)).total for i in range(N))
            assert sweep.distance(a, b)[0] == full, name

    def test_cutoff_factor_is_exact(self, sys_nonlinear):
        # scale each state so that the block bounds straddle R/2
        rp = lift_brownian(4, Grid(-4.0, 0.0, 4 * 32), gamma=0.45)
        sw = _Sweep(sys_nonlinear, [0.05], rp, LPConfig())
        R = sw.lp.cutoff_R
        rng = np.random.default_rng(13)
        for name, state in _random_states(sw, rng)[1:]:
            U = sw.norm_bounds(state)[1][0]
            blocks = np.flatnonzero(U)
            for target in (0.3, 0.49, 0.5, 0.51, 0.7, 1.2):
                scaled = state * (target * R / U[rng.choice(blocks)])
                factors = sw.cutoff_factors(scaled)[0]
                assert [float(f) for f in factors] == [
                    cutoff_scale(block_path(sw, scaled[0], i), R) for i in range(sw.N)], name

    def test_cutoff_takes_no_norm_past_R(self, sys_nonlinear, monkeypatch):
        # block 0's lower bound reaches R, block 1's bounds straddle the ramp
        # and blocks 2, 3 sit below R/2: only block 1 needs its exact norm
        rp = lift_brownian(4, Grid(-4.0, 0.0, 4 * 32), gamma=0.45)
        sw = _Sweep(sys_nonlinear, [0.05], rp, LPConfig())
        R = sw.lp.cutoff_R
        for name, state in _random_states(sw, np.random.default_rng(17))[1:]:
            L, U = (b[0] for b in sw.norm_bounds(state))
            if not np.all(L > 0):
                continue
            scale = np.array([2.0 * R / L[0], 0.8 * R / U[1], 0.3 * R / U[2],
                              0.3 * R / U[3]])
            scaled = state * scale[:, None]
            blocks = []

            def counted(Y, Yp, dW, pairs):
                blocks.extend([1] * int(np.prod(Y.shape[:-2])))
                return d2g_terms(Y, Yp, dW, pairs)

            with monkeypatch.context() as m:
                m.setattr(roughcm.manifold, "d2g_terms", counted)
                factors = sw.cutoff_factors(scaled)[0]
            assert len(blocks) == 1, name
            assert factors[0] == 0.0 and factors[2:].tolist() == [1.0, 1.0], name
            assert [float(f) for f in factors] == [
                cutoff_scale(block_path(sw, scaled[0], i), R) for i in range(sw.N)], name

    def test_stacked_norms_match_norm_d2g(self, sweep):
        # every block of every random state, the zero state among them, in
        # one call of the stacked norm
        stack = np.stack([s[0] for _, s in _random_states(
            sweep, np.random.default_rng(15))])
        k, i = np.divmod(np.arange(len(stack) * sweep.N), sweep.N)
        Y = np.swapaxes(sweep.values(stack)[k, i], -1, -2)
        Yp = np.moveaxis(sweep.derivs(stack)[k, i], -3, -2)
        terms = np.stack(d2g_terms(Y, Yp, sweep.dW[i], sweep.pairs), axis=-1)
        single = [norm_d2g(block_path(sweep, stack[a], b)) for a, b in zip(k, i)]
        assert terms.tolist() == [list(dataclasses.astuple(n)) for n in single]
        assert sweep.exact_norms(stack, k, i).tolist() == [n.total for n in single]
        stack[3, 1, 5] = np.nan
        totals = sweep.exact_norms(stack, k, i).reshape(len(stack), sweep.N)
        assert not np.isfinite(totals[3, 1])
        assert np.isfinite(np.delete(totals.ravel(), 3 * sweep.N + 1)).all()

    @pytest.mark.parametrize("d", [1, 2])
    def test_xi_rows_match_block_loop(self, sys_nonlinear, d):
        # three xi rows of distinct random states, and rows scaled so that
        # their block bounds straddle R/2
        rp = lift_brownian(3, Grid(-4.0, 0.0, 4 * 32), d=d, gamma=0.45)
        sw = _Sweep(_on_channels(sys_nonlinear, d), [0.05, 0.02, 0.01], rp,
                    LPConfig())
        R, N, rng = sw.lp.cutoff_R, sw.N, np.random.default_rng(16)
        pool = [s[0] for _, s in _random_states(sw, rng)[1:]]
        ramped = 0
        for trial in range(8):
            a, b = (np.stack([pool[j] for j in rng.choice(len(pool), 3)])
                    for _ in range(2))
            if trial == 0:
                a[1, N - 2, 3] = np.nan
            diff = a - b
            loop = np.max([[sw.weights[i] * norm_d2g(block_path(sw, diff[k], i)).total
                            for i in range(N)] for k in range(3)], axis=1)
            dist = sw.distance(a, b)
            assert np.array_equal(dist, loop, equal_nan=True), trial
            a = b * (rng.uniform(0.3, 1.2, size=(3, 1, 1)) * R /
                     np.max(sw.norm_bounds(b)[1], axis=1)[:, None, None])
            factors = sw.cutoff_factors(a)
            assert factors.tolist() == [[cutoff_scale(block_path(sw, a[k], i), R)
                                         for i in range(N)] for k in range(3)]
            ramped += np.sum((factors > 0) & (factors < 1))
        assert ramped

    def test_nan_block_is_not_dropped(self, sweep):
        state = _random_states(sweep, np.random.default_rng(14))[2][1]
        state[0, sweep.N - 2, 3] = np.nan
        assert not np.isfinite(sweep.distance(state, sweep.zero_state())[0])

    def test_nan_block_ends_picard_unconverged(self, window, sys_linear, monkeypatch):
        real = _Sweep.apply
        sweeps = []

        def planted(self, state, rows=slice(None)):
            new, breach = real(self, state, rows)
            sweeps.append(1)
            if len(sweeps) == 3:
                new[0, self.N - 2, 5] = np.nan
            return new, breach

        monkeypatch.setattr(_Sweep, "apply", planted)
        lp = LPConfig(fp_tol=1e-12)
        res, = lyapunov_perron_sweep(sys_linear, [0.05], window, lp)
        assert not res.converged and isinstance(res.error, NonConvergenceError)
        assert res.iterations == 3 and not np.isfinite(res.distances[-1])
        sweeps.clear()
        with pytest.raises(NonConvergenceError, match="nan is not finite at iteration 3"):
            lyapunov_perron_hc(sys_linear, 0.05, window, lp)

    @pytest.mark.parametrize("name", ["chekroun_linear", "chekroun_nonlinear"])
    def test_few_exact_norms_per_sweep(self, name, monkeypatch):
        # exact norms for every block would be 2N = 24 per sweep; the
        # distances are decided on bounds but for the last two steps, so
        # the count does not grow with the iterations
        spec = load_system(EXAMPLES / f"{name}.json")
        rp = lift_brownian(1, Grid(-12.0, 0.0, 12 * 64), gamma=spec.gamma)
        lp = LPConfig(cutoff_R=0.5, fp_tol=1e-8)
        calls = []    # one entry per block passed to the stacked exact norm

        def counted(Y, Yp, dW, pairs):
            calls.extend([1] * int(np.prod(Y.shape[:-2])))
            return d2g_terms(Y, Yp, dW, pairs)

        monkeypatch.setattr(roughcm.manifold, "d2g_terms", counted)
        res = lyapunov_perron_hc(spec.numeric(), 0.05, rp, lp)
        assert res.converged and calls
        assert len(calls) <= 2 * 12


def _apply_by_block(sw, rp, state):
    """The sweep as a loop over unit blocks, each convolved on its own."""
    sys, N, nu, d = sw.sys, sw.N, sw.nu, sw.d
    V, D = sw.values(state)[0], sw.derivs(state)[0]
    new = sw.zero_state()
    nV, nD = sw.values(new)[0], sw.derivs(new)[0]
    fields = ((sys.Ac, sys.Fc, sys.Gc), (sys.As, sys.Fs, sys.Gs))
    C = np.empty((2, N, nu + 1))
    scales = [cutoff_scale(block_path(sw, state[0], i), sw.lp.cutoff_R) for i in range(N)]
    for i, s in enumerate(scales):
        ub = unit_block(rp, i - N)
        x, y = s * V[i, 0], s * V[i, 1]
        for c, (A, F, Gf) in enumerate(fields):
            C[c, i] = convolve_drift(A, F(x, y), ub.grid)
            gY = nD[i, c]
            for ch, g in enumerate(Gf):
                gY[:, ch] = g(x, y)
            if np.any(gY):
                gYp = np.zeros((nu + 1, d, d))
                for ch, g in enumerate(Gf):
                    gYp[:, ch, :] = (g.partial(0)(x, y)[:, None] * D[i, 0] +
                                     g.partial(1)(x, y)[:, None] * D[i, 1]) * s
                C[c, i] += convolve_diffusion(A, gY, gYp, ub)
    for i in range(N):
        t = i - N + sw.blocks.grid.nodes
        x, y = nV[i]
        x[:] = np.exp(sys.Ac * t) * sw.xi[0] + C[0, i]
        for k in range(i, N):
            x -= np.exp(sys.Ac * (t - (k - N + 1))) * C[0, k, -1]
        y[:] = C[1, i]
        for k in range(i):
            y += np.exp(sys.As * (t - (k - N + 1))) * C[1, k, -1]
    return new, any(s < 1.0 for s in scales)


def _happ_by_block(sys, l, xi, rp):
    """leading_order_happ as a loop over unit blocks."""
    N = int(round(rp.grid.t1 - rp.grid.t0))
    Fl, Gl = sys.Fs.leading(l), [g.leading(l) for g in sys.Gs]
    total = 0.0
    for b in range(-N, 0):
        ub = unit_block(rp, b)
        x = np.exp(sys.Ac * (b + ub.grid.nodes)) * xi
        part = convolve_drift(sys.As, Fl(x, 0.0), ub.grid)[-1]
        gY = np.stack([g(x, 0.0) for g in Gl], axis=-1)
        if np.any(gY):
            part += convolve_diffusion(sys.As, gY, np.zeros(gY.shape + (rp.d,)), ub)[-1]
        total += np.exp(sys.As * (-1 - b)) * part
    return float(total)


TWO_CHANNEL = {
    "gamma": 0.45, "q": 4, "noise_dim": 2, "Ac": 0, "As": -1,
    "Fc": [{"i": 1, "j": 1, "c": 1}], "Fs": [{"i": 2, "j": 0, "c": -1}],
    "Gc": [[{"i": 2, "j": 1, "c": 1}], [{"i": 1, "j": 2, "c": "1/4"}]],
    "Gs": [[{"i": 0, "j": 3, "c": 1}], [{"i": 3, "j": 0, "c": "1/2"}]]}


class TestCertifiedStopping:
    """The Picard solve decides each step's tests on distance bounds where
    they suffice, and on exact distances elsewhere: every outcome, and each
    xi's last two distances and last rate, are those of the iteration on
    exact distances, and every recorded distance and rate bounds the exact
    one from above."""

    # (spec, path seed, window, cells per unit, xis, cutoff R, iteration
    # limit, sweep that plants a NaN in its first row, outcomes): the sextic's
    # sweep; the two-channel spec, where 0.5 and 0.2 run out of sweeps and
    # 0.3 stops contracting; the quartic at R = 1, where 0.19 converges
    # slowly, 0.2 stops contracting at sweep 31 and 0.3 runs out of sweeps
    # at 200; and the sextic with a NaN planted in 0.1 at sweep 4
    @pytest.mark.parametrize("case", [
        (EXAMPLES / "chekroun_nonlinear.json", 0, 12, 64, (0.1, 0.05, 0.025, 0.0125),
         0.5, 200, None, {None}),
        (TWO_CHANNEL, 2, 6, 32, (0.5, 0.3, 0.2, 0.1, 0.05, 0.0125), 2.0, 20, None,
         {None, NonContractionError, NonConvergenceError}),
        (EXAMPLES / "chekroun_linear.json", 0, 12, 64, (0.0125, 0.1, 0.19, 0.2, 0.3),
         1.0, 200, None, {None, NonContractionError, NonConvergenceError}),
        (EXAMPLES / "chekroun_nonlinear.json", 1, 6, 32, (0.1, 0.05, 0.0125),
         0.5, 200, 4, {None, NonConvergenceError}),
    ], ids=["sextic", "two-channel-d2", "quartic-R1", "planted-nan"])
    def test_matches_exact_iteration(self, case, monkeypatch):
        spec, seed, window, nu, xis, R, limit, nan_at, outcomes = case
        nsys = load_system(spec).numeric()
        rp = lift_brownian(seed, Grid(-float(window), 0.0, window * nu), d=nsys.d,
                           gamma=nsys.gamma)
        lp = LPConfig(cutoff_R=R, fp_tol=1e-10)
        monkeypatch.setattr(roughcm.manifold, "MAX_ITERS", limit)
        if nan_at:
            real = _Sweep.apply

            def planted(self, state, rows=slice(None)):
                new, breach = real(self, state, rows)
                self.sweeps_done = getattr(self, "sweeps_done", 0) + 1
                if self.sweeps_done == nan_at:
                    new[0, self.N - 2, 5] = np.nan
                return new, breach

            monkeypatch.setattr(_Sweep, "apply", planted)
        seen, bounded = set(), 0
        for xi, res, ref in zip(xis, lyapunov_perron_sweep(nsys, xis, rp, lp),
                                exact_picard(_Sweep(nsys, xis, rp, lp))):
            assert np.array_equal([res.hc], [ref.hc], equal_nan=True), xi
            assert np.array_equal(res.state, ref.state, equal_nan=True), xi
            assert res.iterations == ref.iterations, xi
            assert res.norm_breach == ref.norm_breach, xi
            assert type(res.error) is type(ref.error), xi
            assert str(res.error) == str(ref.error), xi
            seen.add(type(res.error) if res.error else None)
            got, want = np.array(res.distances), np.array(ref.distances)
            assert len(got) == len(want) and len(res.rates) == len(ref.rates), xi
            assert np.array_equal(got[-2:], want[-2:], equal_nan=True), xi
            assert np.all(got[:-1] >= want[:-1]), xi
            bounded += np.sum(got[:-1] > want[:-1])
            assert res.rates[-1:] == ref.rates[-1:], xi
            got, want = np.array(res.rates), np.array(ref.rates)
            assert np.all(got >= want), xi
            assert np.array_equal(got >= 1, want >= 1), xi
            assert np.array_equal(got[got >= 1], want[got >= 1]), xi
        assert seen == outcomes
        assert bounded


class TestStackedBlocks:
    """The sweep and h^app over stacked blocks give the floats of a loop
    over the blocks, each convolved on its own."""

    @pytest.fixture(scope="class", params=[
        ("sextic", 1), ("noiseless", 1), ("sigma-y", 1), ("sextic", 2),
        ("two-channel", 2), ("two-channel-no-Fs", 2)], ids=lambda p: f"{p[0]}-d{p[1]}")
    def case(self, request):
        """(system, channels, h^app's leading degree)"""
        name, d = request.param
        lead = 2    # Fs's x^2 leads, but in the case without Fs
        if name == "two-channel":
            nsys = load_system(TWO_CHANNEL).numeric()
        elif name == "two-channel-no-Fs":
            # Gs[1]'s x^3/2 is now the y-free monomial of least degree, so
            # h^app is a diffusion convolution alone
            nsys, lead = load_system({**TWO_CHANNEL, "Fs": []}).numeric(), 3
        elif name == "sigma-y":
            # Gs = 0.5 y vanishes on blocks where y does, though its
            # y-derivative does not
            spec = load_system(EXAMPLES / "chekroun_linear.json")
            nsys = dataclasses.replace(
                spec, params={**spec.params, "sigma": 0.5}).numeric()
        else:
            file = "chekroun_nonlinear" if name == "sextic" else "chekroun_linear"
            nsys = load_system(EXAMPLES / f"{file}.json").numeric()
        return _on_channels(nsys, d), d, lead

    @pytest.mark.parametrize("nu", [32, 64, 128])
    @pytest.mark.parametrize("N", [2, 4, 6, 12])
    @pytest.mark.parametrize("d", [1, 2])
    def test_blocks_match_unit_block(self, N, nu, d):
        # the split gives every unit block's grid, W and WW of the shift and
        # restriction of the path to the bit, signed zeros included, also on
        # a window [0, N]
        rp = lift_brownian(5, Grid(-float(N), 0.0, N * nu), d=d)
        ref = [restrict(shift(rp, float(b)), 0.0, 1.0) for b in range(-N, 0)]
        bl = _Blocks(rp, d)
        late = shift(rp, -float(N))
        for got in [bl] + [unit_block(rp, b) for b in range(-N, 0)] + [
                unit_block(late, b) for b in range(N)]:
            assert got.grid.nodes.tobytes() == ref[0].grid.nodes.tobytes()
        for got, want in ((bl.W, np.stack([p.W for p in ref])),
                          (bl.WW, np.stack([p.WW for p in ref])),
                          (np.stack([unit_block(rp, b).W for b in range(-N, 0)]), bl.W),
                          (np.stack([unit_block(late, b).W for b in range(N)]), bl.W),
                          (np.stack([unit_block(rp, b).WW for b in range(-N, 0)]), bl.WW)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_sweep_matches_block_loop(self, case):
        nsys, d, _ = case
        rp = lift_brownian(3, Grid(-4.0, 0.0, 4 * 32), d=d, gamma=0.45)
        sw = _Sweep(nsys, [0.05], rp, LPConfig())
        R = sw.lp.cutoff_R
        rng = np.random.default_rng(15)
        for name, state in _random_states(sw, rng):
            U = sw.norm_bounds(state)[1]
            # the largest bound at 0.3 R (no cutoff) and at 1.5 R (some blocks cut)
            variants = [state] + [state * (t * R / np.max(U))
                                  for t in (0.3, 1.5) if np.any(U)]
            for st in list(variants):
                quiet = st.copy()
                sw.values(quiet)[:, ::2] = 0.0    # no values, some derivatives
                variants.append(quiet)
            for st in variants:
                new, breach = sw.apply(st)
                ref, ref_breach = _apply_by_block(sw, rp, st)
                assert np.array_equal(new, ref), name
                assert breach[0] == ref_breach, name

    def test_happ_matches_block_loop(self, case):
        nsys, d, lead = case
        rp = lift_brownian(4, Grid(-12.0, 0.0, 12 * 32), d=d, gamma=0.45)
        # a slow stable rate keeps the blocks' shares comparable in size
        for As, xi in itertools.product((nsys.As, -0.1), (0.1, 0.05, 0.0125)):
            s = dataclasses.replace(nsys, As=As)
            assert leading_order_happ(s, xi, rp) == _happ_by_block(s, lead, xi, rp)

    def test_one_convolution_pass_per_sweep(self, monkeypatch):
        # both components in one pass: a loop over blocks would make 2N = 24
        # of each per sweep, and a pass per component 2
        spec = load_system(EXAMPLES / "chekroun_nonlinear.json")
        rp = lift_brownian(1, Grid(-12.0, 0.0, 12 * 64), gamma=spec.gamma)
        lp = LPConfig(cutoff_R=0.5, fp_tol=1e-8)
        calls = {"drift": 0, "diffusion": 0}

        def counted(kind, fn):
            def wrapper(*args):
                calls[kind] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(roughcm.manifold, "convolve_drift",
                            counted("drift", convolve_drift))
        monkeypatch.setattr(roughcm.manifold, "convolve_diffusion",
                            counted("diffusion", convolve_diffusion))
        res = lyapunov_perron_hc(spec.numeric(), 0.05, rp, lp)
        assert res.converged
        assert calls["drift"] == res.iterations
        assert 0 < calls["diffusion"] <= res.iterations

    def test_partials_built_once(self, monkeypatch):
        # the x- and y-partials of each diffusion field, once per solve
        # rather than once per sweep
        spec = load_system(EXAMPLES / "chekroun_nonlinear.json")
        rp = lift_brownian(1, Grid(-6.0, 0.0, 6 * 32), gamma=spec.gamma)
        lp = LPConfig(cutoff_R=0.5, fp_tol=1e-8)
        calls = []
        partial = NumericField.partial
        monkeypatch.setattr(NumericField, "partial",
                            lambda self, v: calls.append(v) or partial(self, v))
        res = lyapunov_perron_hc(spec.numeric(), 0.05, rp, lp)
        assert res.converged and res.iterations > 1
        assert sorted(calls) == [0, 0, 1, 1]    # Gc and Gs, one channel


class TestBatchedSweep:
    """One Picard solve for a sweep of xi gives each xi the floats and the
    status of its solo solve."""

    # at cutoff 2 and 6 unit blocks: on the sextic, xi = 2 converges with
    # the cutoff active, 1 and 0.8 stop contracting (0.8 at the last allowed
    # sweep), 0.2 and 0.1 run out of sweeps and the rest converge; on the
    # two-channel spec, 0.5 and 0.2 run out of sweeps and 0.3 stops
    # contracting with the cutoff active
    @pytest.mark.parametrize("spec, xis, limit", [
        (EXAMPLES / "chekroun_nonlinear.json",
         (2.0, 1.0, 0.8, 0.2, 0.1, 0.05, 0.0125), 12),
        (TWO_CHANNEL, (0.5, 0.3, 0.2, 0.1, 0.05, 0.0125), 20)],
        ids=["sextic-d1", "two-channel-d2"])
    def test_matches_solo_solves(self, spec, xis, limit, monkeypatch):
        nsys = load_system(spec).numeric()
        rp = lift_brownian(2, Grid(-6.0, 0.0, 6 * 32), d=nsys.d, gamma=nsys.gamma)
        lp = LPConfig(cutoff_R=2.0, fp_tol=1e-10)
        monkeypatch.setattr(roughcm.manifold, "MAX_ITERS", limit)
        seen = set()
        for xi, res in zip(xis, lyapunov_perron_sweep(nsys, xis, rp, lp)):
            try:
                solo = lyapunov_perron_hc(nsys, xi, rp, lp)
            except (NonContractionError, NonConvergenceError) as exc:
                assert type(res.error) is type(exc), xi
                assert str(res.error) == str(exc), xi
                seen.add("non-contracting" if isinstance(exc, NonContractionError)
                         else "out of sweeps")
                continue
            assert res.error is None, xi
            assert res.hc == solo.hc, xi
            assert res.iterations == solo.iterations, xi
            assert res.distances == solo.distances, xi
            assert res.rates == solo.rates, xi
            assert res.converged and solo.converged, xi
            assert res.norm_breach == solo.norm_breach, xi
            assert np.array_equal(res.state, solo.state), xi
            seen.add("converged")
            if res.norm_breach:
                seen.add("cutoff")
        assert seen >= {"non-contracting", "converged", "out of sweeps"}
        if nsys.d == 1:
            assert "cutoff" in seen

    def test_newton_matches_solo_solves(self, sys_linear, window):
        lp = LPConfig(fp_tol=1e-10)
        xis = (0.05, 0.0125)
        for xi, res in zip(xis, lyapunov_perron_sweep(sys_linear, xis, window, lp,
                                                      solver="newton")):
            solo = lyapunov_perron_hc(sys_linear, xi, window, lp, solver="newton")
            assert res.hc == solo.hc and res.distances == solo.distances
            assert res.converged == solo.converged and res.error is None

    def test_happ_over_xi_matches_scalar(self, sys_nonlinear):
        rp = lift_brownian(4, Grid(-6.0, 0.0, 6 * 32), gamma=0.45)
        xis = np.array([0.1, 0.05, 0.0125, 0.0])
        batch = leading_order_happ(sys_nonlinear, xis, rp)
        assert batch.tolist() == [leading_order_happ(sys_nonlinear, xi, rp)
                                  for xi in xis]


class TestOutcome:
    """Every way a xi can end unconverged leaves `converged` False, names
    the cause in `error`, and makes lyapunov_perron_hc raise that error."""

    # on this path, cutoff 2 and 12 sweeps: the sextic runs out of sweeps at
    # xi = 0.2, stops contracting at 1.0 and converges at 0.05
    @pytest.mark.parametrize("case, xi, solver, error, match", [
        ("out of sweeps", 0.2, "picard", NonConvergenceError,
         r"after 12 iteration\(s\), the iteration limit$"),
        ("nan", 0.05, "picard", NonConvergenceError, "nan is not finite"),
        ("non-contraction", 1.0, "picard", NonContractionError, "stopped contracting"),
        ("newton-krylov", 0.05, "newton", NewtonConvergenceError, "did not converge"),
        ("newton final distance", 0.05, "newton", NewtonConvergenceError,
         "not below 2 fp_tol")],
        ids=["out-of-sweeps", "nan", "non-contraction", "newton-krylov",
             "newton-final-distance"])
    def test_unconverged_xi_named(self, sys_nonlinear, monkeypatch, case, xi,
                                  solver, error, match):
        rp = lift_brownian(2, Grid(-6.0, 0.0, 6 * 32), gamma=sys_nonlinear.gamma)
        lp = LPConfig(cutoff_R=2.0, fp_tol=1e-10)
        monkeypatch.setattr(roughcm.manifold, "MAX_ITERS",
                            1 if case == "newton-krylov" else 12)
        if case == "nan":
            real = _Sweep.apply

            def planted(self, state, rows=slice(None)):
                new, breach = real(self, state, rows)
                new[:, -1, 0] = np.nan
                return new, breach

            monkeypatch.setattr(_Sweep, "apply", planted)
        if case == "newton final distance":
            # a solve that returns its start, the backward-flow guess
            monkeypatch.setattr("scipy.optimize.newton_krylov",
                                lambda residual, u0, **kwargs: u0)
        res, = lyapunov_perron_sweep(sys_nonlinear, [xi], rp, lp, solver=solver)
        assert res.converged is False
        assert type(res.error) is error and re.search(match, str(res.error))
        with pytest.raises(error, match=match):
            lyapunov_perron_hc(sys_nonlinear, xi, rp, lp, solver=solver)


class TestOrderFit:
    def test_synthetic_cubic(self):
        xis = [0.2 / 2**k for k in range(5)]
        fit = order_fit(xis, [x**3 for x in xis])
        assert fit.slope == pytest.approx(3.0, abs=1e-10)

    def test_excludes_nonpositive(self):
        xis = [0.2, 0.1, 0.05, 0.025, 0.0125]
        errs = [x**2 for x in xis]
        errs[2] = 0.0
        fit = order_fit(xis, errs)
        assert fit.excluded == [2] and fit.used == 4
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            order_fit([0.1, 0.05, 0.025], [1e-3, 1e-4, 1e-5])
