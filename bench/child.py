"""One timed run of one workload, in a fresh process started by run.py.

Prints one JSON line: when set-up ended and its calibration figures, the
timed section's time at the reference host speed (see hostspeed.py) and its
wall time, units, failed units, peak RSS, an output digest and, when traced,
the per-layer metrics.  `--record` instead writes the default-seed outputs
into reference.json.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np      # noqa: E402

import hostspeed        # noqa: E402
import run              # noqa: E402


def environment() -> dict:
    import roughcm
    import scipy
    import sympy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "roughcm": roughcm.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "RM_THREADS": os.environ.get("RM_THREADS")}


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> None:
    # the sampler runs from the start, so set-up (the roughcm, sympy, scipy
    # and click imports and input generation) is calibrated as well
    sampler = hostspeed.Sampler()
    with sampler:
        import spans
        import workloads

        ap = argparse.ArgumentParser()
        ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
        ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
        ap.add_argument("--size", choices=["full", "tiny"], default="full")
        ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
        ap.add_argument("--record", action="store_true")
        args = ap.parse_args(argv)
        if args.record and args.seed != workloads.DEFAULT_SEED:
            ap.error("the reference holds the default seed's outputs only")
        if args.record and any(os.environ.get(k) != v for k, v in run.PINNED.items()):
            # threaded BLAS moves the fBm alpha_i by ~1e-12 relative
            ap.error("record in the launcher's environment: " +
                     " ".join(f"{k}={v}" for k, v in run.PINNED.items()))

        wl = workloads.make(args.workload, args.seed, args.size)
        ready = time.monotonic()
        out_dir = BENCH / "out" / f"{args.workload}-{os.getpid()}"
        tracer = spans.Tracer()
        with tracer if args.trace else contextlib.nullcontext():
            t0 = time.monotonic()
            raw = wl.run(out_dir)
            t1 = time.monotonic()
    setup_paused, setup_speed = sampler.window(0.0, ready)
    run_paused, run_speed = sampler.window(t0, t1)
    run_s = (t1 - t0 - run_paused) * run_speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = wl.outputs(raw, out_dir)

    if args.record:
        doc = (json.loads(workloads.REFERENCE.read_text())
               if workloads.REFERENCE.exists() else {})
        doc.setdefault(args.workload, {})[args.size] = wl.reference(outputs)
        workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    reference = workloads.load_reference(args.workload, args.seed, args.size)
    result = {"ready": ready, "setup_paused": setup_paused, "setup_speed": setup_speed,
              "run_s": run_s, "wall_s": t1 - t0, "speed": run_speed, "units": wl.units,
              "failed": wl.failed_units(outputs, reference),
              "peak_rss_mb": peak_rss_mb, "digest": digest(outputs),
              "env": environment()}
    if args.trace:
        result["layers"] = spans.layer_metrics(tracer.spans, run_s,
                                               sampler.within(t0, t1), run_speed)
        (BENCH / "out").mkdir(exist_ok=True)
        trace_file = BENCH / "out" / f"spans-{args.workload}.json"
        trace_file.write_text(json.dumps(tracer.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
