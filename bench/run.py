"""Benchmark launcher for roughcm.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Every timed run is a fresh `child.py` process with OpenBLAS pinned to one
thread and RM_THREADS unset, because sympy's cache makes a warm repeat
measure a different program.  The launcher starts runs one after another
while the next is expected to end within `--seconds`, and reports medians
over them.  Times are at the reference host speed (see hostspeed.py).  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced runs and prints the per-layer metrics of the median
traced run plus the tracing overhead.  `--workload all` runs every workload
both ways.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("order_law_picard", "order_law_newton", "coefficient_paths")
DEADLINE_S = 170.0          # one workload's invocation must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
UNITS = {"run_s": "s", "units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def commit() -> str:
    """The checkout's commit read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, size: str, trace: int, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RM_THREADS"}
    env.update(PINNED)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run did not end before the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} run exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_wall = result.pop("ready") - started
    result["setup_s"] = (setup_wall - result.pop("setup_paused")) * result.pop("setup_speed")
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str) -> dict:
    """Fresh-process runs while the next should end within `seconds` (at least
    one); medians and the gate's counts."""
    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        untraced.append(spawn(workload, seed, size, 0, deadline))
        if trace:
            traced.append(spawn(workload, seed, size, 1, deadline))
        now = time.monotonic()
        per_round = (now - begin) / len(untraced)
        if now + per_round > min(begin + seconds, deadline):
            break
    runs = untraced + traced
    attempted = sum(r["units"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:                  # traced and repeated runs must agree
        failed = attempted
    summary = {"workload": workload, "seed": seed, "trace": trace,
               "runs": [round(r["run_s"], 4) for r in untraced],
               "wall": [round(r["wall_s"], 4) for r in untraced],
               "speed": [round(r["speed"], 3) for r in untraced],
               "attempted": attempted, "failed": failed,
               "env": {**untraced[0]["env"], "commit": commit()}}
    run_s = statistics.median(r["run_s"] for r in untraced)
    if not trace:
        summary["metrics"] = {
            "run_s": run_s,
            "units_per_s": statistics.median(r["units"] / r["run_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        return summary
    middle = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
    metrics = dict(middle["layers"])
    metrics["trace.traced_run_s"] = middle["run_s"]
    metrics["trace.untraced_run_s"] = run_s
    metrics["trace.overhead_s"] = middle["run_s"] - run_s
    summary["metrics"] = metrics
    return summary


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def print_summary(s: dict) -> None:
    frac = s["failed"] / s["attempted"]
    print(f"== {s['workload']} seed {s['seed']} trace {s['trace']}: "
          f"{s['attempted']} units, {s['failed']} failed (fail_frac {frac:g}); "
          f"untraced run_s of each fresh run: {s['runs']}")
    print(f"  their wall times {s['wall']} s at host speeds {s['speed']}")
    print("env " + json.dumps(s["env"], sort_keys=True))
    for name, value in s["metrics"].items():
        print(f"  {name:42s} {value:16.6f} {unit_of(name)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "roughcm" / "__init__.py").is_file():
        print(f"no roughcm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    summaries = []
    try:
        for workload, trace in plan:
            summaries.append(run_workload(workload, args.seed, args.seconds, trace,
                                          args.size))
            print_summary(summaries[-1])
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}.trace{s['trace']}." if len(summaries) > 1 else ""
        for name, value in s["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
