"""Command-line front end: derive coefficient systems and verify order laws."""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
import sympy

from . import __version__
from .invariance import (NumericHierarchy, NumericSystem, derive_system,
                         load_system, propagate_zeros, residuals)
from .manifold import (LPConfig, ManifoldApproximation, evaluate_phi,
                       leading_order_happ, lyapunov_perron_sweep, order_fit)
from .roughpath import Grid, RoughPath, lift_brownian
from .stationary import solve_hierarchy

EXIT_THRESHOLD = 1
EXIT_VALIDATION = 2


@click.group()
def main():
    """Taylor approximations of local random center manifolds."""


@main.command()
@click.option("--spec", "spec_file", required=True, type=click.Path(exists=True))
@click.option("--out-dir", type=click.Path(), default=".")
def derive(spec_file, out_dir):
    """Derive the coefficient RDE system for a system description."""
    try:
        spec = load_system(spec_file)
        cs = propagate_zeros(derive_system(spec))
    except ValueError as exc:    # FieldValidationError among them
        click.echo(f"validation failure: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "coefficient_system.json").write_text(cs.to_json())
    flags = ", ".join(f"alpha_{i} = 0" for i in sorted(cs.zero_flags)) or "none"
    click.echo(f"expansion order q = {cs.q}, noise channels = {cs.noise_dim}")
    click.echo(f"vanishing coefficients: {flags}")
    for i in range(1, cs.q + 1):
        if i in cs.zero_flags:
            continue
        drift = f"({cs.A_alpha[i]})*alpha{i} + {cs.f[i]}"
        noise = " + ".join(f"({e}) dW_{ch + 1}" for ch, e in enumerate(cs.g[i])
                           if e != 0)
        line = f"dalpha_{i} = ({drift}) dt"
        if noise:
            line += " + " + noise
        click.echo(line)
    click.echo(f"M = {cs.M}; Mtilde = {list(cs.Mtilde)}")
    click.echo(f"residual min degree: {residuals(cs)['min_degree']}")
    click.echo(f"wrote {out / 'coefficient_system.json'}")


@dataclass(frozen=True)
class OrderLawPlan:
    """Everything one rough path's report row needs, derived once per sweep."""
    nsys: NumericSystem
    coeffs: NumericHierarchy
    min_degree: int | None
    grid: Grid
    lp: LPConfig
    xis: tuple[float, ...]
    solver: str


def order_law_plan(spec_file, *, grid_n, window, cutoff_r, xi_min, xi_max,
                   xi_points, solver, fp_tol) -> OrderLawPlan:
    """`verify`'s sweep plan from its options. Warns on stderr of each xi it drops
    above cutoff_r; bad input raises a ValueError, such as a FieldValidationError."""
    if xi_points < 4:
        raise ValueError("--xi-points must be at least 4 for an order fit")
    if not 0 < xi_min < xi_max < float("inf"):
        raise ValueError("the sweep needs 0 < --xi-min < --xi-max < inf")
    if xi_min > cutoff_r:
        raise ValueError(f"--xi-min {xi_min:g} exceeds --cutoff-r "
                         f"{cutoff_r:g}; no xi would remain")
    xis = []
    for xi in np.geomspace(xi_max, xi_min, xi_points):
        if xi > cutoff_r:
            click.echo(f"warning: dropping xi = {xi:g}, which exceeds the "
                       f"cutoff radius {cutoff_r:g}", err=True)
        else:
            xis.append(xi)
    if len(xis) < 4:
        raise ValueError(f"only {len(xis)} xi value(s) lie within --cutoff-r "
                         f"{cutoff_r:g}; an order fit needs at least 4")
    spec = load_system(spec_file)
    nsys = spec.numeric()
    cs = propagate_zeros(derive_system(spec))
    coeffs = cs.numeric(spec.params)
    # the stationary coefficients need the gap As < 0 and, per order, A < 0
    if nsys.As >= 0:
        raise ValueError(f"the stable block As = {nsys.As:g} is not exponentially "
                         "stable: the order law needs As < 0")
    for i, a in coeffs.A.items():
        if a >= 0:
            raise ValueError(f"order {i} has the linear part A = As - {i} Ac = {a:g}, "
                             f"not < 0: alpha_{i} has no stationary solution (a "
                             "resonance of the block spectra)")
    # a term of order 1's forcing free of the alphas drives alpha_1 off 0
    free = (0,) * coeffs.q
    if 1 in coeffs.A and any(p.coeffs.get(free) for p in (coeffs.f[1], *coeffs.g[1])):
        raise ValueError("order 1 has a non-zero forcing at the spec's parameters, so "
                         "alpha_1 does not vanish: the manifold is not tangent to the "
                         "center space")
    if window < 2:
        raise ValueError(f"--window {window} must span at least 2 unit blocks")
    grid = Grid(-float(window), 0.0, window * grid_n)
    lp = LPConfig(cutoff_R=cutoff_r, fp_tol=fp_tol)
    return OrderLawPlan(nsys=nsys, coeffs=coeffs,
                        min_degree=residuals(cs)["min_degree"],
                        grid=grid, lp=lp, xis=tuple(xis), solver=solver)


def order_law_row(plan: OrderLawPlan, rp: RoughPath) -> dict:
    """The report row of any rough path on a window [-N, 0] of N >= 2 unit
    blocks: phi, h^c and h^app at each xi, each solve's iterations, the
    failed solves and the order slope of |h^c - phi|.  The slope is nan
    unless 4 or more xi converged with a positive error, and +inf where
    every order is flagged and 4 or more converged errors are exactly 0."""
    nsys, xis = plan.nsys, plan.xis
    hier = solve_hierarchy(plan.coeffs, rp, init="zero")
    ma = ManifoldApproximation(q=plan.coeffs.q, alpha0=hier.alpha0, radius=max(xis))
    happ = leading_order_happ(nsys, xis, rp)
    row = {"xi_sweep": list(xis),
           "phi_values": [evaluate_phi(ma, xi) for xi in xis],
           "hc_values": [], "happ_values": [float(h) for h in happ],
           "iterations": [], "contraction_rates": [], "norm_breach": [],
           "tail_bounds": {str(k): v for k, v in hier.tail_bounds.items()},
           "residual_min_degree": plan.min_degree, "failures": []}
    for xi, r in zip(xis, lyapunov_perron_sweep(nsys, xis, rp, plan.lp,
                                                solver=plan.solver)):
        row["hc_values"].append(r.hc if r.converged else float("nan"))
        row["iterations"].append(r.iterations)
        # a Newton solve measures no contraction rate
        row["contraction_rates"].append(r.rates[-1] if r.converged and r.rates
                                        else float("nan"))
        row["norm_breach"].append(r.norm_breach)
        if not r.converged:
            row["failures"].append({"xi": xi, "error": str(r.error)})
    errs = np.abs(np.subtract(row["hc_values"], row["phi_values"]))
    ok = np.isfinite(errs)
    if not plan.coeffs.A and np.count_nonzero(ok) >= 4 and not np.any(errs[ok]):
        row["order_slope"] = float("inf")    # phi = 0 = h^c: the law holds exactly
        return row
    try:
        row["order_slope"] = order_fit(np.asarray(xis)[ok], errs[ok]).slope
    except ValueError:
        row["order_slope"] = float("nan")
    return row


def _verify_seed(plan: OrderLawPlan, seed: int) -> dict:
    rp = lift_brownian(seed, plan.grid, d=plan.nsys.d, gamma=plan.nsys.gamma)
    return {"seed": seed, **order_law_row(plan, rp)}


def _provenance(spec_file) -> dict:
    """What a report depends on besides its arguments: the spec file's
    bytes and the versions of the numerical code."""
    import hashlib

    import scipy    # only for its version: no solver of a Picard run needs it
    return {"spec_sha256": hashlib.sha256(Path(spec_file).read_bytes()).hexdigest(),
            "roughcm": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__}


@main.command()
@click.option("--spec", "spec_file", required=True, type=click.Path(exists=True))
@click.option("--seeds", type=int, default=1, help="Number of sampled paths.")
@click.option("--grid-n", type=int, default=128, help="Grid cells per unit time.")
@click.option("--window", type=int, default=12)
@click.option("--cutoff-r", type=float, default=LPConfig.cutoff_R)
@click.option("--xi-min", type=float, default=0.0125)
@click.option("--xi-max", type=float, default=0.1)
@click.option("--xi-points", type=int, default=5)
@click.option("--solver", type=click.Choice(["picard", "newton"]), default="picard")
@click.option("--fp-tol", type=float, default=LPConfig.fp_tol)
@click.option("--out-dir", type=click.Path(), default=".")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def verify(spec_file, seeds, out_dir, fmt, **sweep):
    """Check the order law |h^c - phi| = O(|xi|^{q+1}) over sampled paths."""
    threads = os.environ.get("RM_THREADS", "1")
    try:
        if not threads.strip().isdecimal() or int(threads) < 1:
            raise ValueError("RM_THREADS must be an integer >= 1, got "
                             f"{threads!r}")
        if seeds < 1:
            raise ValueError("--seeds must be at least 1")
        plan = order_law_plan(spec_file, **sweep)
    except ValueError as exc:    # FieldValidationError among them
        click.echo(f"validation failure: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    workers = int(threads)
    if workers > 1 and seeds > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_verify_seed, [plan] * seeds, range(seeds)))
    else:
        rows = [_verify_seed(plan, s) for s in range(seeds)]
    rows.sort(key=lambda r: r["seed"])
    q = plan.coeffs.q

    slopes = [r["order_slope"] for r in rows if not math.isnan(r["order_slope"])]
    # statistics, not np.median, whose first call imports numpy.ma
    median_slope = float(statistics.median(slopes)) if slopes else float("nan")
    report = {"spec": str(spec_file), "provenance": _provenance(spec_file),
              "q": q, "window": sweep["window"], "grid_n": sweep["grid_n"],
              "cutoff_r": plan.lp.cutoff_R, "fp_tol": plan.lp.fp_tol,
              "solver": plan.solver, "median_slope": median_slope,
              "threshold": q + 0.5, "per_seed": rows}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify_report.json").write_text(json.dumps(report, indent=2))
    if fmt == "csv":
        import csv
        with open(out / "verify_data.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "xi", "phi", "hc", "happ",
                        "abs_err_phi", "abs_err_happ"])
            for r in rows:
                for xi, p, h, ha in zip(r["xi_sweep"], r["phi_values"],
                                        r["hc_values"], r["happ_values"]):
                    w.writerow([r["seed"], xi, p, h, ha, abs(h - p), abs(h - ha)])
        click.echo(f"wrote {out / 'verify_data.csv'}")
    click.echo(f"wrote {out / 'verify_report.json'}")

    failed = [r["seed"] for r in rows if r["failures"]]
    for r in rows:
        for f in r["failures"]:
            click.echo(f"seed {r['seed']} xi {f['xi']:g}: {f['error']}", err=True)
        for xi, breach in zip(r["xi_sweep"], r["norm_breach"]):
            if breach:
                click.echo(f"warning: seed {r['seed']} xi {xi:g} met the cutoff ramp "
                           "(a block norm above R/2); its h^c is the cut-off "
                           "system's", err=True)
        if math.isnan(r["order_slope"]):
            zeros = sum(h == p for h, p in zip(r["hc_values"], r["phi_values"]))
            click.echo(f"warning: seed {r['seed']} has no order slope: "
                       f"{len(r['failures'])} of {len(r['xi_sweep'])} xi failed and "
                       f"{zeros} error(s) |h^c - phi| were 0, so fewer than 4 "
                       "positive errors remain to fit", err=True)
    click.echo(f"median slope {median_slope:.3f} "
               f"(threshold {q + 0.5}, {len(rows)} seed(s))")
    if failed or math.isnan(median_slope) or median_slope < q + 0.5:
        sys.exit(EXIT_THRESHOLD)


if __name__ == "__main__":
    main()
