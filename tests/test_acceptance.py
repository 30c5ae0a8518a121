"""End-to-end acceptance checks, one reported line per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) and asserts the
same condition, so a plain pytest run doubles as the acceptance report.
Tolerances and budgets are stated inline next to each check.
"""
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from oracles import (constant_path, lift_smooth, ou_stationary,
                     reference_path, rough_integral, solve_rde,
                     stationarity_check)
from roughcm import (Grid, LPConfig, NumericSystem, coarsen, derive_system,
                     leading_order_happ, lift_brownian, lift_fbm, load_system,
                     lyapunov_perron_hc, order_fit, propagate_zeros,
                     solve_hierarchy, validate)
from roughcm.cli import order_law_plan, order_law_row
from roughcm.manifold import _Sweep

x = sp.Symbol("x")
a2, a4 = sp.Symbol("alpha2"), sp.Symbol("alpha4")
lam, kappa, sigma = sp.symbols("lam kappa sigma")

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


REPORT: list[str] = []


def finish(name, failures):
    ok = not failures
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    REPORT.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def clause(failures, ok, label):
    if not ok:
        failures.append(label)


@pytest.fixture(scope="module")
def cs_linear():
    return propagate_zeros(derive_system(
        load_system(EXAMPLES / "chekroun_linear.json")))


@pytest.fixture(scope="module")
def spec_nonlinear():
    return load_system(EXAMPLES / "chekroun_nonlinear.json")


@pytest.fixture(scope="module")
def cs_nonlinear(spec_nonlinear):
    return propagate_zeros(derive_system(spec_nonlinear))


@pytest.fixture(scope="module")
def sextic_plan():
    """verify's default sweep on the sextic example, 64 cells per unit."""
    return order_law_plan(
        EXAMPLES / "chekroun_nonlinear.json", grid_n=64, window=12,
        cutoff_r=0.5, xi_min=0.0125, xi_max=0.1, xi_points=5,
        solver="picard", fp_tol=1e-10)


@pytest.fixture(scope="module")
def det_sweep():
    """verify's Newton sweep on the quartic example, one seed, every xi solved."""
    t0 = time.time()
    plan = order_law_plan(
        EXAMPLES / "chekroun_linear.json", grid_n=64, window=12,
        cutoff_r=1.0, xi_min=0.0125, xi_max=0.2, xi_points=5,
        solver="newton", fp_tol=1e-10)
    row = order_law_row(plan, lift_brownian(0, plan.grid, gamma=0.45))
    assert not row["failures"], row["failures"]
    hc = np.asarray(row["hc_values"])
    return {"xis": row["xi_sweep"], "err_phi": abs(hc - row["phi_values"]),
            "err_happ": abs(hc - row["happ_values"]), "nsys": plan.nsys,
            "elapsed": time.time() - t0}


def test_derive_quartic_system_exact(cs_linear):
    fails = []
    t0 = time.time()
    cs = cs_linear
    clause(fails, cs.zero_flags == {1, 3}, "zero flags != {alpha_1, alpha_3}")
    clause(fails, sp.expand(cs.A_alpha[2] - (kappa - 2 * lam)) == 0,
           "order-2 linear part")
    clause(fails, sp.expand(cs.f[2] + 1) == 0, "order-2 drift forcing")
    clause(fails, sp.expand(cs.g[2][0] - sigma * a2) == 0,
           "order-2 noise forcing")
    clause(fails, sp.expand(cs.A_alpha[4] - (kappa - 4 * lam)) == 0,
           "order-4 linear part")
    clause(fails, sp.expand(cs.f[4] + 2 * a2**2) == 0, "order-4 drift forcing")
    clause(fails, sp.expand(cs.g[4][0] - sigma * a4) == 0,
           "order-4 noise forcing")
    clause(fails, time.time() - t0 < 1.0, "over 1 s budget")
    finish("quartic coefficient system derived exactly", fails)


def test_derive_sextic_system_final_form(cs_nonlinear):
    # published closing display of the sextic example, except the dalpha_5
    # noise term: the paper prints -alpha2^2 there, an erratum. The order-5
    # noise forcing is the x^5 coefficient of Gs(x,h) - h'(x) Gc(x,h) with
    # Gc = x^2 y, Gs = y^3, h = alpha2 x^2 + alpha4 x^4 + ... (geometric
    # path, no Ito correction): y^3 starts at x^6, and h' x^2 h contributes
    # 2 alpha2 x * x^2 * alpha2 x^2 = 2 alpha2^2 x^5, so g5 = -2*alpha2^2.
    # The stochastic order law confirms it: halving alpha_5 to the published
    # value drops the per-seed slopes below q + 0.5.
    fails = []
    t0 = time.time()
    cs = cs_nonlinear
    clause(fails, cs.zero_flags == {1, 3}, "zero flags != {alpha_1, alpha_3}")
    clause(fails, sp.expand(cs.A_alpha[2] + 1) == 0 and
           sp.expand(cs.f[2] - 1) == 0, "dalpha_2 = (-alpha_2 + 1) dt")
    clause(fails, sp.expand(cs.f[4] + 2 * a2**2 + 2 * a2) == 0,
           "dalpha_4 drift")
    clause(fails, sp.expand(cs.f[6] + 6 * a2 * a4 + 4 * a4) == 0,
           "dalpha_6 drift")
    clause(fails, sp.expand(cs.g[6][0] - a2**3) == 0, "dalpha_6 noise")
    clause(fails, sp.expand(cs.f[5]) == 0, "dalpha_5 drift")
    clause(fails, sp.expand(cs.g[5][0] + 2 * a2**2) == 0,
           "dalpha_5 noise: asserted -2*alpha2**2 (published -alpha2**2 is "
           f"an erratum), derived {sp.expand(cs.g[5][0])}")
    clause(fails, time.time() - t0 < 1.0, "over 1 s budget")
    finish("sextic coefficient system matches the published final form", fails)


def test_quartic_residuals_exact(cs_linear):
    fails = []
    clause(fails,
           sp.expand(cs_linear.M - (6 * a2 * a4 * x**6 + 4 * a4**2 * x**8)) == 0,
           "drift residual")
    clause(fails, all(e == 0 for e in cs_linear.Mtilde), "noise residual")
    finish("quartic residuals are 6*a2*a4*x^6 + 4*a4^2*x^8 and 0", fails)


def test_lift_defects():
    fails = []
    tt = np.linspace(0.0, 1.0, 256 * 16 + 1)
    circle = np.stack([np.cos(2 * np.pi * tt), np.sin(2 * np.pi * tt)], axis=1)
    lifts = {
        "smooth": lift_smooth(circle, Grid(0.0, 1.0, 256), gamma=0.45),
        "brownian": lift_brownian(0, Grid(0.0, 1.0, 256)),
        "brownian_d3": lift_brownian(1, Grid(0.0, 1.0, 256), d=3),
        "fbm": lift_fbm(2, 0.45, Grid(0.0, 1.0, 256)),
    }
    for name, rp in lifts.items():
        t0 = time.time()
        rep = validate(rp)
        clause(fails, rep["chen_defect_max"] <= 1e-10, f"{name} chen defect")
        clause(fails, rep["geometry_defect_max"] <= 1e-10,
               f"{name} geometry defect")
        clause(fails, time.time() - t0 < 1.0, f"{name} over 1 s budget")
    finish("Chen and geometry defects <= 1e-10 for all lifts at n=256", fails)


def test_level2_identity_and_stratonovich_rate():
    fails = []
    t0 = time.time()
    rp = lift_brownian(5, Grid(0.0, 1.0, 256))
    cp = reference_path(rp)
    ww = rough_integral(cp, 0, rp.n)
    clause(fails, abs(ww - 0.5 * rp.W[-1, 0]**2) < 1e-14,
           "int W dW != W_1^2 / 2")
    sig, y0 = 0.7, 1.0
    slopes = []
    for seed in range(6):
        master = lift_brownian(seed, Grid(0.0, 1.0, 512))
        exact = y0 * np.exp(sig * master.W[-1, 0])
        errs, ns = [], []
        for factor in (8, 4, 2, 1):
            sub = coarsen(master, factor) if factor > 1 else master
            sol = solve_rde(0.0, lambda y: 0.0 * y,
                            lambda y: sig * y.reshape(1, 1),
                            lambda y: sig * np.ones((1, 1, 1)), sub, y0)
            errs.append(abs(sol.Y[-1, 0] - exact))
            ns.append(sub.n)
        slopes.append(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
    clause(fails, float(np.median(slopes)) >= 0.9,
           f"chain-rule SDE slope {np.median(slopes):.2f} < 0.9")
    clause(fails, time.time() - t0 < 10.0, "over 10 s budget")
    finish("level-2 identity exact and chain-rule SDE rate >= 0.9", fails)


def test_ou_variance_and_fixed_point_defect():
    fails = []
    t0 = time.time()
    vals = [ou_stationary(lift_brownian(s, Grid(-6.0, 0.0, 6 * 64))).path.Y[-1, 0]
            for s in range(10_000)]
    band = 3.0 * np.sqrt(0.5 / 10_000)
    var = float(np.var(vals))
    clause(fails, abs(var - 0.5) <= band,
           f"variance {var:.4f} outside 0.5 +- {band:.4f}")
    rp = lift_brownian(0, Grid(-6.0, 0.0, 6 * 256))
    st = ou_stationary(rp)
    g = constant_path(rp, 1.0)
    defect = stationarity_check(st.path, -1.0, None, g, rp, horizon=3.0)
    clause(fails, defect <= 1e-3, f"fixed-point defect {defect:.2e} > 1e-3")
    clause(fails, time.time() - t0 < 60.0, "over 60 s budget")
    finish("OU variance in the 3-sigma band and fixed-point defect <= 1e-3",
           fails)


def test_sextic_hierarchy_values(spec_nonlinear, cs_nonlinear):
    # the order-5 clause asserts alpha_5(0) = -2 z(0): with alpha_2 -> 1 the
    # derived forcing -2*alpha2^2 dW makes alpha_5 track -2 times the
    # stationary OU process z. The published forcing -alpha2^2 would give
    # -z(0); it is the erratum explained in the final-form check above
    fails = []
    t0 = time.time()
    T = 12.0
    rp = lift_brownian(3, Grid(-T, 0.0, int(T) * 64), gamma=spec_nonlinear.gamma)
    hier = solve_hierarchy(cs_nonlinear, rp)
    z0 = ou_stationary(rp).path.Y[-1, 0]
    clause(fails, abs(hier.alpha0[2] - 1.0) <= np.exp(-T),
           "alpha_2(0) != 1 +- e^-T")
    clause(fails, abs(hier.alpha0[4] + 4.0) <= 2 * np.exp(-T),
           "alpha_4(0) != -4 +- 2e^-T")
    clause(fails, abs(hier.alpha0[6] - (40.0 + z0)) <= 1e-6,
           f"alpha_6(0) off 40 + z(0) by {abs(hier.alpha0[6] - 40 - z0):.2e}")
    clause(fails, abs(hier.alpha0[5] + 2 * z0) <= 1e-6,
           f"alpha_5(0) = {hier.alpha0[5]:.6f}, asserted -2 z(0) = "
           f"{-2 * z0:.6f} (published -z(0) is an erratum)")
    clause(fails, time.time() - t0 < 10.0, "over 10 s budget")
    finish("sextic hierarchy: deterministic limit and OU-tracking values",
           fails)


def test_deterministic_order_law(det_sweep):
    fails = []
    slope = order_fit(det_sweep["xis"], det_sweep["err_phi"])
    clause(fails, slope >= 5.0, f"slope {slope:.2f} < 5")
    clause(fails, det_sweep["elapsed"] < 120.0, "over 2 min budget")
    finish("deterministic |h^c - phi| order law: slope >= q + 1 = 5", fails)


def test_stochastic_order_law(sextic_plan):
    fails = []
    t0 = time.time()
    slopes = []
    for seed in range(20):
        row = order_law_row(sextic_plan, lift_brownian(
            seed, sextic_plan.grid, gamma=sextic_plan.nsys.gamma))
        fails += [f"seed {seed} xi {f['xi']:g}: {f['error']}"
                  for f in row["failures"]]
        clause(fails, not any(row["norm_breach"]),
               f"seed {seed}: a xi met the cutoff ramp")
        slopes.append(row["order_slope"])
        ratios = [abs(hc - phi) / xi**7 for xi, hc, phi in
                  zip(row["xi_sweep"], row["hc_values"], row["phi_values"])]
        clause(fails, max(ratios) / min(ratios) <= 1e2,
               f"seed {seed}: ratio spread {max(ratios) / min(ratios):.1f}")
    med = float(np.median(slopes))
    clause(fails, med >= 6.5, f"median slope {med:.2f} < q + 0.5 = 6.5")
    clause(fails, time.time() - t0 < 900.0, "over 15 min budget")
    finish("stochastic order law over 20 seeds: median slope >= 6.5 and "
           "bounded error ratios", fails)


def test_rough_order_law(sextic_plan):
    # the order law where rough-path theory is needed: fBm at H = 0.4, a
    # level-0 lift on 64 cells per unit, each seed run as verify runs one;
    # the seeds 100-103 were fixed before the test was first run
    fails = []
    t0 = time.time()
    slopes = []
    for seed in range(100, 104):
        row = order_law_row(sextic_plan, lift_fbm(seed, 0.4, sextic_plan.grid,
                                                  dyadic_level=0))
        fails += [f"seed {seed} xi {f['xi']:g}: {f['error']}"
                  for f in row["failures"]]
        slopes.append(row["order_slope"])
    med = float(np.median(slopes))
    clause(fails, med >= 6.5, f"median slope {med:.2f} < q + 0.5 = 6.5")
    clause(fails, time.time() - t0 < 60.0, "over 60 s budget")
    finish("rough order law, fBm H = 0.4 over 4 seeds: median slope >= 6.5 "
           "and every xi converged", fails)


def test_leading_order_gap_law(det_sweep):
    fails = []
    slope = order_fit(det_sweep["xis"], det_sweep["err_happ"])
    clause(fails, slope >= 2.0, f"slope {slope:.2f} < 2")
    rp16 = lift_brownian(0, Grid(-16.0, 0.0, 16 * 32), gamma=0.45)
    xi = 0.1
    happ = leading_order_happ(det_sweep["nsys"], xi, rp16)
    clause(fails, abs(happ + xi**2) <= 1e-6,
           f"closed form off by {abs(happ + xi**2):.2e}")
    clause(fails, det_sweep["elapsed"] < 120.0, "over 2 min budget")
    finish("|h^c - h^app| order law: slope >= l = 2 and h^app = -xi^2 to "
           "1e-6", fails)


def test_drift_only_consistency(det_sweep):
    fails = []
    slope = order_fit(det_sweep["xis"], det_sweep["err_phi"])
    clause(fails, slope >= 4.0, f"slope {slope:.2f} < 4")
    clause(fails, det_sweep["elapsed"] < 120.0, "over 2 min budget")
    finish("drift-only pipeline reproduces |h - phi| = O(|x|^q): slope >= 4",
           fails)


def test_truncation_remainder_bound(spec_nonlinear):
    # the cut graph-transform map minus its leading-homogeneous truncation
    # should scale like the (l+1)-th power of the input norm
    fails = []
    t0 = time.time()
    nsys = spec_nonlinear.numeric()
    l = 2
    lead = NumericSystem(
        gamma=nsys.gamma, d=nsys.d, Ac=nsys.Ac, As=nsys.As,
        Fc=nsys.Fc.leading(l), Fs=nsys.Fs.leading(l),
        Gc=[g.leading(l) for g in nsys.Gc],
        Gs=[g.leading(l) for g in nsys.Gs])
    rp = lift_brownian(9, Grid(-2.0, 0.0, 2 * 32), gamma=nsys.gamma)
    lp = LPConfig(cutoff_R=0.5)
    sw_full = _Sweep(nsys, [0.0], rp, lp)
    sw_lead = _Sweep(lead, [0.0], rp, lp)
    zero = sw_full.zero_state()
    rng = np.random.default_rng(7)
    tau = sw_full.blocks.grid.nodes
    ratios = []
    for _ in range(100):
        state = sw_full.zero_state()
        V, D = sw_full.values(state)[0], sw_full.derivs(state)[0]
        for i in range(2):
            V[i, 0] = rng.normal() + rng.normal() * tau
            V[i, 1] = rng.normal() + rng.normal() * tau
            D[i, 0] = rng.normal()
            D[i, 1] = rng.normal()
        target = 10.0 ** rng.uniform(np.log10(0.01), np.log10(0.25))
        scale = target / sw_full.distance(state, zero)[0]
        state = scale * state
        out_full, _ = sw_full.apply(state)
        out_lead, _ = sw_lead.apply(state)
        ratios.append(sw_full.distance(out_full, out_lead)[0] / target**(l + 1))
    spread = max(ratios) / float(np.median(ratios))
    clause(fails, spread <= 50.0, f"max/median {spread:.1f} > 50")
    clause(fails, time.time() - t0 < 30.0, "over 30 s budget")
    finish("truncation remainder scales as norm^(l+1): max/median ratio "
           "<= 50 over 100 random controlled paths", fails)


def test_contraction_diagnostics(spec_nonlinear):
    fails = []
    lp = LPConfig(cutoff_R=0.5, fp_tol=1e-8)
    quartic = load_system(EXAMPLES / "chekroun_linear.json")
    for name, spec in [("quartic", quartic),
                       ("sextic", spec_nonlinear)]:
        nsys = spec.numeric()
        rp = lift_brownian(1, Grid(-12.0, 0.0, 12 * 64), gamma=spec.gamma)
        res = lyapunov_perron_hc(nsys, 0.05, rp, lp)
        clause(fails, res.converged, f"{name}: not converged")
        clause(fails, res.iterations <= 60,
               f"{name}: {res.iterations} iterations > 60")
        clause(fails, res.rates and max(res.rates) < 1.0,
               f"{name}: contraction rate >= 1")
    finish("fixed-point iteration contracts on both examples at |xi| <= 0.05",
           fails)
