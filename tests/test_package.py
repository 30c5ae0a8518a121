"""Package-level guards: the benchmark's trace targets and a cheap import."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_bench_trace_targets_exist():
    # bench/spans.py wraps these functions by name; a deleted or renamed one
    # would break the benchmark harness without failing any other tier-1 test
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
