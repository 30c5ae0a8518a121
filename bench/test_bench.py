"""Tests of the benchmark itself: tracing changes no output, wrappers come off,
calibration samples are kept out of span times, every workload runs end to
end at a tiny size, and a bare copy refuses to run.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import roughcm.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def _bindings() -> dict:
    found = {(name, key): value
             for name, mod in sys.modules.items()
             if mod is not None and (name == "roughcm" or name.startswith("roughcm."))
             for key, value in vars(mod).items() if callable(value)}
    found[("roughcm.cli", "verify.callback")] = roughcm.cli.verify.callback
    return found


def _outputs(name: str, out_dir: Path, tracer=None) -> dict:
    wl = workloads.make(name, workloads.DEFAULT_SEED, "tiny")
    if tracer is None:
        raw = wl.run(out_dir)
    else:
        with tracer:
            raw = wl.run(out_dir)
    return wl.outputs(raw, out_dir)


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    plain = _outputs(name, tmp_path / "plain")
    tracer = spans.Tracer()
    traced = _outputs(name, tmp_path / "traced", tracer)
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    assert tracer.spans
    wl = workloads.make(name, workloads.DEFAULT_SEED, "tiny")
    ref = workloads.load_reference(name, workloads.DEFAULT_SEED, "tiny")
    assert wl.failed_units(plain, ref) == 0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert roughcm.manifold.norm_d2g is roughcm.stationary.norm_d2g
        assert roughcm.manifold.norm_d2g is not before[("roughcm.controlled", "norm_d2g")]
        assert roughcm.cli.verify.callback is not before[("roughcm.cli", "verify.callback")]
    assert _bindings() == before
    _outputs("order_law_newton", tmp_path)
    assert not tracer.spans                 # nothing recorded once uninstalled


def test_self_times_and_other_add_up_to_run_s():
    # verify [0, 10] > derive [1, 4] > norm [2, 3]; norm [5, 6] under verify
    recorded = [["cli.verify", 0.0, 10.0, -1, None],
                ["invariance.derive_system", 1.0, 4.0, 0, None],
                ["controlled.norm_d2g", 2.0, 3.0, 1, 5],
                ["controlled.norm_d2g", 5.0, 6.0, 0, 3]]
    m = spans.layer_metrics(recorded, run_s=11.0)
    assert m["cli.verify.self_s"] == 6.0
    assert m["invariance.derive_system.self_s"] == 2.0
    assert m["controlled.norm_d2g.self_s"] == 2.0
    assert m["controlled.norm_d2g.calls"] == 2
    assert m["controlled.norm_d2g.pairs"] == 8
    assert m["trace.other_s"] == 1.0


def test_calibration_samples_are_left_out_of_span_times():
    # verify [0, 10] > derive [1, 4]; samples in derive, in verify after
    # derive, and outside every span; at speed 2 every time doubles
    recorded = [["cli.verify", 0.0, 10.0, -1, None],
                ["invariance.derive_system", 1.0, 4.0, 0, None]]
    pauses = [(2.0, 2.5), (4.5, 4.6), (10.2, 10.4)]
    m = spans.layer_metrics(recorded, run_s=(11.0 - 0.8) * 2, pauses=pauses, speed=2.0)
    assert m["invariance.derive_system.self_s"] == pytest.approx(5.0)
    assert m["cli.verify.self_s"] == pytest.approx(13.8)
    assert m["trace.other_s"] == pytest.approx(1.6)


def test_sampler_measures_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    with sampler:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.5:
            hostspeed.calibration_loop()
        t1 = time.monotonic()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    paused, speed = sampler.window(t0, t1)
    assert len(sampler.within(t0, t1)) >= 2
    assert 0.0 < paused < t1 - t0 and speed > 0.0


@pytest.fixture(scope="module")
def tiny_all():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                           "--seconds", "0", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_every_workload_runs_end_to_end(tiny_all, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tiny_all["correct"] and tiny_all["failed"] == 0
    got = tiny_all["metrics"]
    untraced = {k.split(".", 2)[2] for k in got if k.startswith(f"{name}.trace0.")}
    traced = {k.split(".", 2)[2] for k in got if k.startswith(f"{name}.trace1.")}
    assert untraced == {m["name"] for m in spec["end_to_end"]}
    assert traced == {m["name"] for m in spec["per_layer"]}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert got[f"{name}.trace{int(m in spec['per_layer'])}.{m['name']}"]["unit"] == m["unit"]

    layer = {k: v["value"] for k, v in got.items() if k.startswith(f"{name}.trace1.")}
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert self_total + layer[f"{name}.trace1.trace.other_s"] == pytest.approx(
        layer[f"{name}.trace1.trace.traced_run_s"], abs=1e-9)
    if name.startswith("order_law"):
        assert layer[f"{name}.trace1.roughpath.lift_fbm.calls"] == 0
        assert layer[f"{name}.trace1.manifold.lyapunov_perron_hc.calls"] > 0
    else:
        assert layer[f"{name}.trace1.manifold.lyapunov_perron_hc.calls"] == 0
        assert layer[f"{name}.trace1.roughpath.lift_fbm.calls"] > 0


def test_bare_copy_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "order_law_newton",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
