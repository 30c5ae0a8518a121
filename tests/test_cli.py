import hashlib
import json
import math
import re
from pathlib import Path

import numpy
import pytest
import scipy
import sympy
from click.testing import CliRunner
from sympy.polys.rings import PolyElement

from bad_specs import CASES
import roughcm
from roughcm import LPConfig, cli
from roughcm.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
LINEAR = EXAMPLES / "chekroun_linear.json"
NONLINEAR = EXAMPLES / "chekroun_nonlinear.json"


@pytest.fixture()
def runner():
    return CliRunner()


def exits_2(runner, tmp_path, monkeypatch, row, command):
    """`roughcm command` on a row of tests/bad_specs.py: exit 2 with the
    row's message, no traceback, and no output written."""
    # a spec that got past validation would fail on the LP solve
    monkeypatch.setattr(cli, "lyapunov_perron_sweep", None)
    spec = row.write(tmp_path)
    for threads in ("1", "2") if row.layer == "plan" else ("1",):
        monkeypatch.setenv("RM_THREADS", threads)
        result = runner.invoke(main, [command, "--spec", str(spec),
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output and "Sympify" not in result.output
        _, found, message = result.output.partition("validation failure: ")
        assert found and re.search(row.pattern, message), result.output
        assert [p.name for p in tmp_path.iterdir()] == [spec.name]
    if row.layer == "plan":    # derive runs the system
        result = runner.invoke(main, ["derive", "--spec", str(spec),
                                      "--out-dir", str(tmp_path / "derive")])
        assert result.exit_code == 0, result.output


def held_by(rows: dict):
    """A test, in the command of its class, of the rows of one kind under
    stable test ids: a map from each test id to its row's id."""
    @pytest.mark.parametrize("row", [CASES[r] for r in rows.values()], ids=list(rows))
    def test(self, runner, tmp_path, monkeypatch, row):
        exits_2(runner, tmp_path, monkeypatch, row, self.command)
    test.rows = set(rows.values())
    return test


MALFORMED = ["json-list", "c-null", "As-unparsable", "c-keyword", "c-assignment",
             "param-1x", "param-empty"]


@pytest.mark.parametrize("command", ["derive", "verify"])
@pytest.mark.parametrize("row", [CASES[r] for r in MALFORMED], ids=MALFORMED)
def test_malformed_spec_exits_2(runner, tmp_path, monkeypatch, command, row):
    exits_2(runner, tmp_path, monkeypatch, row, command)


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_q_is_the_specs(runner, tmp_path, command):
    # the expansion order has one source, the spec's q
    result = runner.invoke(main, [command, "--spec", str(LINEAR), "--q", "3",
                                  "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--q" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, step", [("derive", "derive_system"),
                                           ("verify", "order_law_plan")])
def test_key_error_is_no_validation_failure(runner, tmp_path, monkeypatch,
                                            command, step):
    # a bad spec raises a ValueError; a KeyError is a bug, and escapes
    def broken(*args, **kwargs):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, step, broken)
    result = runner.invoke(main, [command, "--spec", str(LINEAR),
                                  "--out-dir", str(tmp_path)])
    assert result.exit_code == 1 and isinstance(result.exception, KeyError)
    assert "validation failure" not in result.output


class BadSpecs:
    """Rows of tests/bad_specs.py in the command of the inheriting class."""

    def test_invalid_spec_exits_2(self, runner, tmp_path, monkeypatch):
        for r in ("Fc-constant-float", "gamma-0.2"):
            exits_2(runner, tmp_path / r, monkeypatch, CASES[r], self.command)

    def test_channel_count_mismatch_exits_2(self, runner, tmp_path, monkeypatch):
        exits_2(runner, tmp_path, monkeypatch, CASES["noise-dim-2"], self.command)

    def test_no_noise_channel_exits_2(self, runner, tmp_path, monkeypatch):
        exits_2(runner, tmp_path, monkeypatch, CASES["noise-dim-0"], self.command)

    test_bad_symbol_exits_2 = held_by({
        f"{name}{suffix}": row + suffix for name, row in (
            ("undeclared-mu", "undeclared-mu"), ("x-in-coefficient", "x-in-coefficient"),
            ("param-x", "param-x"), ("param-alpha2", "param-alpha2"),
            ("param-E", "E-in-coefficient")) for suffix in ("", "-override")})
    test_out_of_range_override_exits_2 = held_by(
        {"gamma-0.9": "linear-gamma-0.9", "q-1": "linear-q-1"})
    test_unreal_coefficient_exits_2 = held_by(
        {"I": "c-I", "sqrt-negative-param": "sqrt-negative-param"})
    test_non_integer_field_exits_2 = held_by({r: r for r in (
        "fractional-exponent", "negative-exponent", "fractional-q", "fractional-noise-dim")})
    test_non_number_type_exits_2 = held_by(
        {r: r for r in ("override-string", "param-bool", "param-string")})


class TestDerive(BadSpecs):
    command = "derive"

    def test_linear_report(self, runner, tmp_path):
        result = runner.invoke(main, ["derive", "--spec", str(LINEAR),
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 0
        assert "expansion order q = 4" in result.output
        assert "alpha_1 = 0, alpha_3 = 0" in result.output
        assert "dalpha_2" in result.output and "dalpha_4" in result.output
        assert "residual min degree: 6" in result.output
        doc = json.loads((tmp_path / "coefficient_system.json").read_text())
        assert doc["zero_flags"] == [1, 3]

    def test_nonlinear_report(self, runner, tmp_path):
        result = runner.invoke(main, ["derive", "--spec", str(NONLINEAR),
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 0
        assert "expansion order q = 6" in result.output
        assert "residual min degree: 7" in result.output
        doc = json.loads((tmp_path / "coefficient_system.json").read_text())
        assert doc["g"]["6"] == ["alpha2**3"]


class TestVerify(BadSpecs):
    command = "verify"

    def run_small(self, runner, tmp_path, *extra, spec=LINEAR):
        return runner.invoke(main, [
            "verify", "--spec", str(spec), "--seeds", "1",
            "--grid-n", "32", "--window", "6", "--xi-min", "0.0125",
            "--xi-max", "0.1", "--xi-points", "4",
            "--out-dir", str(tmp_path), *extra])

    def test_report_and_exit(self, runner, tmp_path):
        result = self.run_small(runner, tmp_path)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["q"] == 4 and report["threshold"] == 4.5
        # verify's LP is LPConfig(), and the report states both its settings
        lp = LPConfig()
        assert (report["cutoff_r"], report["fp_tol"]) == (lp.cutoff_R, lp.fp_tol)
        assert (lp.cutoff_R, lp.fp_tol) == (0.5, 1e-10)
        assert len(report["per_seed"]) == 1
        assert report["median_slope"] >= 4.5
        row = report["per_seed"][0]
        assert len(row["xi_sweep"]) == 4
        assert not row["failures"]
        # a Picard solve reports its sweeps and its last contraction rate
        assert all(type(n) is int and n > 1 for n in row["iterations"])
        assert len(row["iterations"]) == 4
        assert all(0 < r < 1 for r in row["contraction_rates"])

    def test_newton_rows(self, runner, tmp_path):
        # a Newton-Krylov solve reports its steps, and measures no rate
        result = self.run_small(runner, tmp_path, "--solver", "newton")
        assert result.exit_code == 0, result.output
        row = json.loads((tmp_path / "verify_report.json").read_text())["per_seed"][0]
        assert all(type(n) is int and 1 <= n < 200 for n in row["iterations"])
        assert all(math.isnan(r) for r in row["contraction_rates"])
        assert len(row["iterations"]) == len(row["contraction_rates"]) == 4

    def test_vanishing_error_slope_is_inf(self, runner, tmp_path):
        # every order of the zero system is flagged: phi = 0 and every h^c is
        # 0.0, so the law holds exactly
        result = self.run_small(runner, tmp_path, spec=EXAMPLES / "zero.json")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["median_slope"] == report["per_seed"][0]["order_slope"] == math.inf
        assert set(report["per_seed"][0]["hc_values"]) == {0.0}
        assert "warning" not in result.output

    def test_nan_slope_warned(self, runner, tmp_path):
        # at xi near 1e-200 every error underflows to 0: no slope, said why
        result = self.run_small(runner, tmp_path, "--xi-max", "1e-200",
                                "--xi-min", "1e-201", spec=NONLINEAR)
        assert result.exit_code == 1, result.output
        assert ("warning: seed 0 has no order slope: 0 of 4 xi failed and 4 error(s) "
                "|h^c - phi| were 0") in result.output

    def test_csv_output(self, runner, tmp_path):
        result = self.run_small(runner, tmp_path, "--format", "csv")
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "verify_data.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,xi,phi,hc,happ,abs_err_phi,abs_err_happ"
        assert len(lines) == 1 + 4

    def test_deterministic_reruns(self, runner, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        self.run_small(runner, a)
        self.run_small(runner, b)
        assert (a / "verify_report.json").read_text() == \
            (b / "verify_report.json").read_text()

    def test_parallel_report_matches_serial(self, runner, tmp_path,
                                            monkeypatch):
        monkeypatch.delenv("RM_THREADS", raising=False)
        self.run_small(runner, tmp_path / "serial", "--seeds", "2")
        monkeypatch.setenv("RM_THREADS", "2")
        self.run_small(runner, tmp_path / "pool", "--seeds", "2")
        serial = (tmp_path / "serial" / "verify_report.json").read_text()
        assert len(json.loads(serial)["per_seed"]) == 2
        assert (tmp_path / "pool" / "verify_report.json").read_text() == serial

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_invalid_rm_threads_exits_2(self, runner, tmp_path, monkeypatch,
                                        value):
        monkeypatch.setenv("RM_THREADS", value)
        result = self.run_small(runner, tmp_path)
        assert result.exit_code == 2
        assert "RM_THREADS" in result.output

    def test_non_contracting_xi_reported(self, runner, tmp_path):
        result = runner.invoke(main, [
            "verify", "--spec", str(LINEAR), "--seeds", "1",
            "--grid-n", "32", "--cutoff-r", "2", "--xi-max", "0.2",
            "--xi-min", "0.05", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failures = report["per_seed"][0]["failures"]
        assert [f["xi"] for f in failures] == [0.2]

    def test_xi_above_cutoff_dropped(self, runner, tmp_path):
        # 6 xi from 0.1 down to 0.0125, of which 0.1 and 0.066 exceed 0.05
        result = runner.invoke(main, [
            "verify", "--spec", str(LINEAR), "--seeds", "1",
            "--grid-n", "16", "--window", "4", "--xi-max", "0.1",
            "--xi-points", "6", "--cutoff-r", "0.05", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.output.count("warning: dropping") == 2
        xis = json.loads((tmp_path / "verify_report.json").read_text()
                         )["per_seed"][0]["xi_sweep"]
        assert len(set(xis)) == len(xis) == 4
        assert max(xis) <= 0.05

    def test_too_few_xi_below_cutoff_exits_2(self, runner, tmp_path, monkeypatch):
        # of 0.9, 0.43, 0.21 and 0.1, three lie within 0.5: no order fit, so
        # no LP solve either
        monkeypatch.setattr(cli, "lyapunov_perron_sweep", None)
        result = runner.invoke(main, [
            "verify", "--spec", str(LINEAR), "--xi-points", "4",
            "--xi-max", "0.9", "--xi-min", "0.1", "--cutoff-r", "0.5",
            "--out-dir", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "validation failure: only 3 xi value(s)" in result.output
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("extra", [
        ["--xi-points", "3"], ["--xi-points", "0"], ["--xi-min", "0"],
        ["--xi-min", "-0.01"], ["--xi-min", "0.1"], ["--xi-min", "0.2"],
        ["--cutoff-r", "0.01"], ["--window", "1"], ["--grid-n", "0"],
        ["--seeds", "0"], ["--fp-tol", "0"], ["--fp-tol", "-1"],
        ["--cutoff-r", "0"], ["--xi-max", "inf"]],
        ids=["points-3", "points-0", "min-0", "min-negative", "min-eq-max",
             "min-above-max", "min-above-cutoff", "window-1", "grid-n-0",
             "seeds-0", "fp-tol-0", "fp-tol-negative", "cutoff-r-0", "xi-max-inf"])
    def test_invalid_sweep_exits_2(self, runner, tmp_path, extra):
        result = self.run_small(runner, tmp_path, *extra)
        assert result.exit_code == 2, result.output
        assert "validation failure" in result.output
        assert not (tmp_path / "verify_report.json").exists()

    def test_unconverged_xi_reported(self, runner, tmp_path, monkeypatch):
        # in this sweep the largest xi needs 15 Picard sweeps and the next 11,
        # so a cap of 12 starves only the largest in the batched solve
        monkeypatch.setattr(roughcm.manifold, "MAX_ITERS", 12)
        result = self.run_small(runner, tmp_path, "--xi-points", "5")
        assert result.exit_code == 1, result.output
        row = json.loads((tmp_path / "verify_report.json").read_text()
                         )["per_seed"][0]
        assert [f["xi"] for f in row["failures"]] == [0.1]
        assert row["failures"][0]["error"].endswith(
            "after 12 iteration(s), the iteration limit")
        assert math.isnan(row["hc_values"][0])
        assert all(math.isfinite(h) for h in row["hc_values"][1:])
        assert math.isfinite(row["order_slope"])

    def test_nan_distance_reported(self, runner, tmp_path, monkeypatch):
        # a nan planted in the largest xi's first sweep stops that xi alone,
        # reported as a distance that is not finite, not as out of sweeps
        real = roughcm.manifold._Sweep.apply

        def planted(sweep, state, rows=slice(None)):
            new, breach = real(sweep, state, rows)
            new[numpy.asarray(rows) == 0, -1, 0] = numpy.nan
            return new, breach

        monkeypatch.setattr(roughcm.manifold._Sweep, "apply", planted)
        result = self.run_small(runner, tmp_path)
        assert result.exit_code == 1, result.output
        row = json.loads((tmp_path / "verify_report.json").read_text()
                         )["per_seed"][0]
        assert [f["xi"] for f in row["failures"]] == [0.1]
        error = row["failures"][0]["error"]
        assert "nan is not finite at iteration 1" in error
        assert "iteration limit" not in error
        assert math.isnan(row["hc_values"][0])
        assert all(math.isfinite(h) for h in row["hc_values"][1:])

    @pytest.mark.parametrize("solver", ["picard", "newton"])
    def test_lp_reads_the_rough_path(self, runner, tmp_path, monkeypatch, solver):
        # h^app and the LP solve of each seed get that seed's rough path
        # itself, which they split into unit blocks on their own
        paths = {"happ": [], "lp": []}
        happ, sweep = cli.leading_order_happ, cli.lyapunov_perron_sweep
        monkeypatch.setattr(cli, "leading_order_happ", lambda nsys, xis, rp: (
            paths["happ"].append(rp) or happ(nsys, xis, rp)))
        monkeypatch.setattr(cli, "lyapunov_perron_sweep", lambda nsys, xis, rp, lp, solver: (
            paths["lp"].append(rp) or sweep(nsys, xis, rp, lp, solver=solver)))
        result = self.run_small(runner, tmp_path, "--seeds", "2",
                                "--xi-points", "5", "--solver", solver)
        assert result.exit_code == 0, result.output
        assert len(paths["happ"]) == len(paths["lp"]) == 2
        for a, b in zip(paths["happ"], paths["lp"]):
            assert type(a) is roughcm.RoughPath and a is b

    def test_happ_reads_y_free_monomials(self, runner, tmp_path):
        # h^app evaluates the fields on y = 0, where the noise term sigma*y
        # vanishes: the leading degree stays the drift's 2 at sigma != 0
        doc = json.loads(LINEAR.read_text())
        doc["params"]["sigma"] = 0.5
        (tmp_path / "noisy.json").write_text(json.dumps(doc))
        happ = []
        for spec in [LINEAR, tmp_path / "noisy.json"]:
            self.run_small(runner, tmp_path / spec.stem, spec=spec)
            report = tmp_path / spec.stem / "verify_report.json"
            happ.append(json.loads(report.read_text())["per_seed"][0]["happ_values"])
        assert happ[0] == happ[1] and 0.0 not in happ[0]

    def test_row_reads_window_from_path(self):
        # the LP reads N from the path, so the plan for window 12 gives a
        # path over [-8, 0] the row of the plan for window 8
        sweep = dict(grid_n=32, cutoff_r=0.5, xi_min=0.0125,
                     xi_max=0.1, xi_points=4, solver="picard", fp_tol=1e-10)
        plans = [cli.order_law_plan(LINEAR, window=w, **sweep) for w in (12, 8)]
        rp = roughcm.lift_brownian(0, plans[1].grid, gamma=plans[1].nsys.gamma)
        rows = [cli.order_law_row(plan, rp) for plan in plans]
        assert rows[0] == rows[1] and not rows[0]["failures"]

    def test_one_numeric_form_per_run(self, runner, tmp_path, monkeypatch):
        # the coefficient system becomes floats once, not once per seed
        real = roughcm.CoefficientSystem.numeric
        calls = []
        monkeypatch.setattr(roughcm.CoefficientSystem, "numeric",
                            lambda cs, params: calls.append(params) or real(cs, params))
        result = self.run_small(runner, tmp_path, "--seeds", "3")
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_no_expression_views(self, runner, tmp_path, monkeypatch):
        # verify and solve_hierarchy read the ring forms only: no ring
        # element becomes a sympy expression
        def forbidden(*args, **kwargs):
            raise AssertionError("a ring element became a sympy expression")

        monkeypatch.setattr(PolyElement, "as_expr", forbidden)
        result = self.run_small(runner, tmp_path)
        assert result.exit_code == 0, result.output
        spec = roughcm.load_system(LINEAR)
        cs = roughcm.propagate_zeros(roughcm.derive_system(spec))
        rp = roughcm.lift_brownian(0, roughcm.Grid(-2.0, 0.0, 2 * 16))
        roughcm.solve_hierarchy(cs, rp, params=spec.params)

    def test_provenance(self, runner, tmp_path):
        # the spec's sha256 pins q, which the report states once, at the top
        self.run_small(runner, tmp_path)
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["provenance"] == {
            "spec_sha256": hashlib.sha256(LINEAR.read_bytes()).hexdigest(),
            "roughcm": roughcm.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__}
        assert report["q"] == 4

    def test_non_tangent_system_exits_2(self, runner, tmp_path, monkeypatch):
        exits_2(runner, tmp_path, monkeypatch, CASES["tangent-Gs"], "verify")

    def test_tangent_at_the_params_runs(self, runner, tmp_path):
        # Gs = sigma x at sigma = 0: order 1 is not flagged, but its forcing
        # vanishes at the spec's parameters, so alpha_1 stays 0
        doc = {**json.loads(LINEAR.read_text()),
               "Gs": [[{"i": 1, "j": 0, "c": "sigma"}]]}
        (tmp_path / "tangent.json").write_text(json.dumps(doc))
        result = self.run_small(runner, tmp_path, spec=tmp_path / "tangent.json")
        assert result.exit_code == 0, result.output

    def test_cutoff_ramp_flagged(self, runner, tmp_path):
        # on the sextic, xi = 0.4 lifts a block norm above R/2 = 0.25 and
        # meets the ramp; it is flagged and warned of, and still fitted
        result = runner.invoke(main, [
            "verify", "--spec", str(NONLINEAR), "--seeds", "1", "--grid-n", "64",
            "--xi-max", "0.4", "--xi-points", "6", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        row = json.loads((tmp_path / "verify_report.json").read_text())["per_seed"][0]
        assert row["norm_breach"] == [True] + [False] * 5
        assert result.output.count("met the cutoff ramp") == 1
        assert "warning: seed 0 xi 0.4 met the cutoff ramp" in result.output
        errs = numpy.abs(numpy.subtract(row["hc_values"], row["phi_values"]))
        assert row["order_slope"] == roughcm.order_fit(row["xi_sweep"], errs).slope


HELD = {"Fc-constant-float", "gamma-0.2", "noise-dim-2", "noise-dim-0", "tangent-Gs",
        *MALFORMED, *(r for t in vars(BadSpecs).values() for r in getattr(t, "rows", ()))}


@pytest.mark.parametrize("row, command", [
    pytest.param(r, command, id=f"{r.id}-{command}")
    for r in CASES.values() if r.id not in HELD for command in r.commands])
def test_rejected_spec_exits_2(runner, tmp_path, monkeypatch, row, command):
    # every row that no test of its kind above checks
    exits_2(runner, tmp_path, monkeypatch, row, command)
