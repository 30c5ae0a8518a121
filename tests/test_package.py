"""Package-level guards: the benchmark's trace targets and gated values,
a cheap import, and a verify run that imports only what it uses."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_trace_targets_exist():
    # bench/spans.py wraps these functions by name; a deleted or renamed one
    # would break the benchmark harness without failing any other tier-1 test
    spans = _bench_module("spans")
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        assert module.split(".")[0] == "roughcm"
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_import_does_not_load_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import roughcm, sys; sys.exit('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "import roughcm loaded scipy"


def test_verify_imports_only_what_it_uses(tmp_path):
    # a serial run starts no process pool, and its median slope (of two
    # seeds here) does not go through np.median, whose first call imports
    # numpy.ma
    script = ("import sys\n"
              "from roughcm.cli import main\n"
              "try:\n"
              "    main(sys.argv[1:], standalone_mode=False)\n"
              "finally:\n"
              "    print(sorted({'numpy.ma', 'concurrent.futures.process'}"
              " & set(sys.modules)))\n")
    spec = SRC.parent / "examples" / "chekroun_linear.json"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, "verify", "--spec", str(spec), "--seeds", "2",
         "--grid-n", "32", "--window", "6", "--xi-points", "4",
         "--out-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path, "RM_THREADS": "1"},
        capture_output=True, text=True)
    assert (tmp_path / "verify_report.json").exists(), result.stderr
    assert result.stdout.splitlines()[-1] == "[]", result.stdout


@pytest.mark.parametrize("name", ["order_law_picard", "order_law_newton",
                                  "coefficient_paths"])
def test_bench_gated_values_hold(name, tmp_path):
    # the benchmark gates every hc and alpha0 at 1e-12 relative to its
    # recorded default-seed outputs; a change that moves one fails here too
    workloads = _bench_module("workloads")
    seed = workloads.DEFAULT_SEED
    wl = workloads.make(name, seed, "tiny")
    outputs = wl.outputs(wl.run(tmp_path / name), tmp_path / name)
    assert wl.failed_units(outputs, workloads.load_reference(name, seed, "tiny")) == 0
