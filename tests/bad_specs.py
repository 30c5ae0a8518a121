"""The specs that roughcm must reject, one row per case.

A row edits an example spec and names the message of the rejection, an
anchored regex, and the layer that rejects it: `load_system` for the spec's
own fields, or `cli.order_law_plan` for a property of the derived system.
tests/test_invariance.py calls the layer on every row, tests/test_cli.py runs
every command of each row, and `python tests/bad_specs.py DIR` writes each
row's spec into DIR and prints its id, path and commands, each of which
must exit 2; CI runs those with the installed `roughcm`.
"""
from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Callable

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@dataclasses.dataclass(frozen=True)
class Row:
    id: str
    edit: Callable[[dict], object]    # the example's document -> the bad spec
    pattern: str                      # the message
    example: str = "nonlinear"        # examples/chekroun_<example>.json
    layer: str = "load"               # or "plan"

    @property
    def commands(self) -> tuple[str, ...]:
        # derive runs a system that only the plan rejects
        return ("verify",) if self.layer == "plan" else ("derive", "verify")

    def write(self, directory) -> Path:
        """The spec as a file in directory: a JSON list is no dict, so
        load_system reads every row from a file."""
        doc = self.edit(json.loads((EXAMPLES / f"chekroun_{self.example}.json").read_text()))
        Path(directory).mkdir(parents=True, exist_ok=True)
        path = Path(directory) / (re.sub(r"[^\w.-]", "_", self.id) + ".json")
        path.write_text(json.dumps(doc))
        return path


def edit(term=None, drop=None, **fields):
    """The edit that sets `fields` and, given `term`, adds to Fs the term
    x^3 of coefficient 1 updated by `term`, without its key `drop`."""
    def apply(doc):
        doc = {**doc, **fields}
        if term is not None:
            new = {k: v for k, v in {"i": 3, "j": 0, "c": 1, **term}.items() if k != drop}
            doc["Fs"] = doc["Fs"] + [new]
        return doc
    return apply


def each_override(row: Row) -> list[Row]:
    """The row with "override" false, and with true as <id>-override."""
    return [dataclasses.replace(row, id=row.id + "-override" * on,
                                edit=lambda doc, on=on: {**row.edit(doc), "override": on})
            for on in (False, True)]


FS = r"^Fs term \{.*\}: "
PARSE = " does not parse as an expression$"
NUMBER = " must be a finite number or an expression string$"
CONSTANT_FC = [{"i": 0, "j": 0, "c": 1}]
GAMMA = r" outside \(1/3, 1/2\]: the level-2 rough path setting"
TAKEN = ": the names x and alpha<k> are taken by"
UNREAL = r": not a finite real number once the parameters are substituted$"
ORIGIN = r"^{}\(0,0\) != 0: the {} field must vanish to order {} at the origin \(term {}\)$"

ROWS = [
    # the shape of the document and of its fields
    Row("json-list", lambda doc: [doc], r"^the spec must be a JSON object, got a JSON list$"),
    Row("params-list", edit(params=[]), r"^params = \[\] must be a JSON object$"),
    Row("Fs-number", edit(Fs=5), r"^Fs = 5 must be a list of terms$"),
    Row("Fs-term-number", edit(Fs=[5]), r"^Fs term 5 must be an object with keys i, j and c$"),
    Row("Gs-channel-number", edit(Gs=[5]), r"^Gs\[0\] = 5 must be a list of terms$"),
    Row("Gs-number", edit(Gs=5), r"^Gs = 5 must be a list of term lists, one per noise channel$"),
    Row("c-null", edit({"c": None}), FS + "coefficient c = None" + NUMBER),
    Row("c-list", edit({"c": [1]}), FS + r"coefficient c = \[1\]" + NUMBER),
    Row("c-bool", edit({"c": True}), FS + "coefficient c = True" + NUMBER),
    Row("c-nan", edit({"c": float("nan")}), FS + "coefficient c = nan" + NUMBER),
    Row("As-null", edit(As=None), "^As = None" + NUMBER),
    Row("Ac-bool", edit(Ac=True), "^Ac = True" + NUMBER),
    Row("gamma-null", edit(gamma=None), r"^gamma = None must be a number$"),
    Row("gamma-string", edit(gamma="0.45"), r"^gamma = '0\.45' must be a number$"),
    *[Row(f"no-{k}", lambda doc, k=k: {f: v for f, v in doc.items() if f != k},
          f"^missing field {k}$") for k in ("gamma", "q", "Ac", "As")],
    *[Row(f"no-{k}", edit({}, drop=k), FS + f"missing field {k}$") for k in "ijc"],
    Row("As-unparsable", edit(As="kappa["), r"^As = 'kappa\['" + PARSE),
    Row("linear-As-unparsable", edit(As="kappa["), r"^As = 'kappa\['" + PARSE, "linear"),
    Row("c-keyword", edit({"c": "lambda"}), FS + "coefficient c = 'lambda'" + PARSE),
    Row("c-assignment", edit({"c": "a=1"}), FS + "coefficient c = 'a=1'" + PARSE),
    Row("param-1x", edit(params={"1x": 1.0}), "^parameter name = '1x'" + PARSE),
    Row("param-empty", edit(params={"": 1.0}), "^parameter name = ''" + PARSE),
    Row("noise-dim-2", edit(noise_dim=2, override=True),
        r"^Gc has 1 channel\(s\) but noise_dim = 2: give one term list per noise channel$"),
    Row("noise-dim-0", edit(noise_dim=0, Gc=[], Gs=[]),
        r"^noise_dim = 0: give at least one noise channel$", "linear"),

    # integer fields: int() used to truncate these, and i = -1 ended in a KeyError
    *each_override(Row("fractional-exponent", edit({"i": 2.5}), r"^Fs term \{'i': 2\.5, "
                       r"'j': 0, 'c': 1\}: exponent i = 2\.5 must be an integer >= 0$")),
    *each_override(Row("negative-exponent", edit({"i": -1}),
                       FS + "exponent i = -1 must be an integer >= 0$")),
    *each_override(Row("bool-exponent",
                       lambda doc: {**doc, "Gc": [doc["Gc"][0] + [{"i": 3, "j": True, "c": 1}]]},
                       r"^Gc\[0\] term \{.*\}: exponent j = True must be an integer >= 0$")),
    *[r for name, fraction in (("q", 6.7), ("noise_dim", 1.9))
      for kind, value in (("fractional", fraction), ("bool", True))
      for r in each_override(Row(f"{kind}-{name.replace('_', '-')}", edit(**{name: value}),
                                 f"^{name} = {value} must be an integer$"))],

    # values that bool() and float() used to coerce: the string "false" turned
    # validation off, and a bool or a string parameter ran as a number
    *[Row(f"override-{name}", edit(override=value, Fc=CONSTANT_FC),
          f"^override = {re.escape(repr(value))} must be a JSON bool$")
      for name, value in (("string-false", "false"), ("string-true", "true"),
                          ("0", 0), ("1", 1), ("null", None))],
    Row("override-string", edit(override="false"), "^override = 'false' must be a JSON bool$"),
    *[Row(f"param-{name}", edit({"c": "mu"}, params={"mu": value}),
          f"^parameter mu = {re.escape(repr(value))} must be a number$")
      for name, value in (("bool", True), ("false", False), ("string", "0.5"),
                          ("null", None), ("list", [1.0]))],
    Row("linear-param-bool", lambda doc: {**doc, "params": {**doc["params"], "sigma": True}},
        "^parameter sigma = True must be a number$", "linear"),

    # gamma and q, whose ranges override does not waive
    *each_override(Row("gamma-0.9", edit(gamma=0.9), r"^gamma = 0\.9" + GAMMA)),
    *each_override(Row("gamma-1/3", edit(gamma=1 / 3), r"^gamma = 0\.333+" + GAMMA)),
    Row("gamma-0.25", edit(gamma=0.25), r"^gamma = 0\.25" + GAMMA),
    Row("gamma-0.2", edit(gamma=0.2), r"^gamma = 0\.2" + GAMMA),
    Row("linear-gamma-0.9", edit(gamma=0.9, override=True), r"^gamma = 0\.9" + GAMMA, "linear"),
    *each_override(Row("q-1", edit(q=1), "^expansion order q must be at least 2$")),
    Row("linear-q-1", edit(q=1, override=True), "^expansion order q must be at least 2$",
        "linear"),

    # symbols: undeclared ones; parameters named like the variable x, a
    # coefficient atom or a sympy constant or function, whose value would be
    # lost; and sympy functions as coefficients
    *each_override(Row("undeclared-mu", edit({"i": 2, "c": "-mu"}), r"^undeclared "
                       r"symbol\(s\) mu in the coefficients: declare each parameter")),
    *each_override(Row("x-in-coefficient", edit({"i": 2, "c": "x"}),
                       r"^undeclared symbol\(s\) x in the coefficients")),
    *[r for name in ("x", "alpha2", "E", "I", "beta") for r in each_override(
        Row(f"param-{name}", edit(params={name: 1.0}), rf"^parameter\(s\) {name}{TAKEN}"))],
    *each_override(Row("E-in-coefficient", edit({"i": 2, "c": "E"}, params={"E": 1.0}),
                       rf"^parameter\(s\) E{TAKEN}")),
    *[Row(f"c-{c}", edit({"i": 2, "c": c}),
          FS + f"coefficient c = '{re.escape(c)}' is no expression$") for c in ("beta", "2*beta")],

    # coefficients that are not real at the spec's parameters
    *each_override(Row("c-I", edit({"c": "I"}), r"^coefficient\(s\) I" + UNREAL)),
    *each_override(Row("log-negative", edit({"c": "log(-1)"}),
                       r"^coefficient\(s\) I\*pi" + UNREAL)),
    *each_override(Row("sqrt-negative-param", edit({"c": "sqrt(mu)"}, params={"mu": -1.0}),
                       r"^coefficient\(s\) sqrt\(mu\)" + UNREAL)),
    *each_override(Row("pole", edit({"c": "1/(1 + sigma)"}, params={"sigma": -1.0}),
                       r"^coefficient\(s\) 1/\(sigma \+ 1\)" + UNREAL)),

    # the fields' vanishing orders at the origin
    Row("Fc-constant", edit(Fc=CONSTANT_FC), ORIGIN.format("F", "drift", 1, r"x\^0 y\^0")),
    Row("Fc-constant-float", edit(Fc=[{"i": 0, "j": 0, "c": 1.0}]),
        ORIGIN.format("F", "drift", 1, r"x\^0 y\^0")),
    Row("Gs-linear", edit(Gs=[[{"i": 1, "j": 0, "c": 1}]]),
        ORIGIN.format("DG", "diffusion", 2, r"x\^1 y\^0")),

    # the derived system: Gs = 0.5 x forces order 1, so phi has no alpha_1
    # term; As = 0 leaves no spectral gap; at Ac = -0.5, A = As - 2 Ac = 0
    Row("tangent-Gs", edit(Gs=[[{"i": 1, "j": 0, "c": 0.5}]]),
        r"^order 1 has a non-zero forcing at the spec's parameters, so alpha_1 does not "
        r"vanish: the manifold is not tangent to the center space$", "linear", "plan"),
    Row("unstable-As", edit(As=0), r"^the stable block As = 0 is not exponentially stable: "
        r"the order law needs As < 0$", layer="plan"),
    Row("resonant-Ac", edit(Ac=-0.5), r"^order 2 has the linear part A = As - 2 Ac = 0, not "
        r"< 0: alpha_2 has no stationary solution \(a resonance of the block spectra\)$",
        layer="plan"),
]

CASES = {row.id: row for row in ROWS}
assert len(CASES) == len(ROWS), "two rows share an id"

if __name__ == "__main__":
    for row in ROWS:
        print(row.id, row.write(sys.argv[1]), *row.commands)
