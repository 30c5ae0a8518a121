"""In-memory span tracing of roughcm's public functions, from outside the package.

A `Tracer` replaces each target function at every module binding that holds
it (for example `roughcm.manifold.norm_d2g`, `roughcm.stationary.norm_d2g`
and `roughcm.norm_d2g` all point at `roughcm.controlled.norm_d2g`), so calls
are seen whichever binding the pipeline resolves them through.  Each call
records a span `[name, start, end, parent, info]`; `uninstall` puts every
original binding back.  Nothing under `src/` is changed.
"""
from __future__ import annotations

import bisect
import functools
import importlib
import sys
import time
from collections import defaultdict


def _norm_pairs(args, kwargs, result):
    n = (args[0] if args else kwargs["cp"]).ref.n
    return n * (n + 1) // 2


def _lp_info(args, kwargs, result):
    lp = args[3] if len(args) > 3 else kwargs["lp"]
    return (lp.window, result.iterations, bool(result.converged))


def _fbm_nodes(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    level = args[3] if len(args) > 3 else kwargs.get("dyadic_level", 3)
    return grid.n * 2 ** level


# (module, attribute, info hook).  The hook sees (args, kwargs, result) of a
# call and returns the small record that derived counters are built from.
TARGETS = [
    ("roughcm.cli", "verify", None),
    ("roughcm.invariance", "load_system", None),
    ("roughcm.invariance", "derive_system", None),
    ("roughcm.invariance", "propagate_zeros", None),
    ("roughcm.invariance", "residuals", None),
    ("roughcm.roughpath", "lift_brownian", None),
    ("roughcm.roughpath", "lift_fbm", _fbm_nodes),
    ("roughcm.roughpath", "coarsen", None),
    ("roughcm.roughpath", "validate", None),
    ("roughcm.roughpath", "unit_block", None),
    ("roughcm.stationary", "solve_hierarchy", None),
    ("roughcm.rde", "solve_affine", None),
    ("roughcm.manifold", "lyapunov_perron_hc", _lp_info),
    ("roughcm.manifold", "leading_order_happ", None),
    ("roughcm.controlled", "norm_d2g", _norm_pairs),
    ("roughcm.gubinelli", "convolve_drift", None),
    ("roughcm.gubinelli", "convolve_diffusion", None),
    ("roughcm.gubinelli", "cell_terms", None),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Wraps the target functions while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        owners = [importlib.import_module(mod_name) for mod_name, _, _ in TARGETS]
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "roughcm" or k.startswith("roughcm."))]
        for owner, (mod_name, attr, hook) in zip(owners, TARGETS):
            original = getattr(owner, attr)
            name = span_name(mod_name, attr)
            if hasattr(original, "callback"):        # a click command
                self._restore.append((original, "callback", original.callback))
                original.callback = self._wrap(name, original.callback, hook)
                continue
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(spans: list[list], run_s: float, pauses=(), speed: float = 1.0
                  ) -> dict[str, float]:
    """Per-function calls, self and total time plus the derived counters.

    `pauses` are the (start, end) of the host-speed samples taken during the
    run and `speed` their mean speed (hostspeed.py): a span's time is its
    duration minus the samples inside it, times `speed`, so span times are at
    the reference speed like `run_s`.  Self time is a span's time minus that
    of its direct children.  `trace.other_s` is the part of `run_s` outside
    every span, so the self times and `trace.other_s` add up to `run_s`.
    """
    paused = [0.0] * len(spans)
    starts = [span[1] for span in spans]
    for a, b in pauses:
        idx = bisect.bisect_right(starts, a) - 1     # the last span begun before
        while idx >= 0 and spans[idx][2] < b:        # climb to the one still open
            idx = spans[idx][3]
        while idx >= 0:
            paused[idx] += b - a
            idx = spans[idx][3]
    took = [(end - start - p) * speed
            for (_, start, end, _, _), p in zip(spans, paused)]
    child_s = [0.0] * len(spans)
    for (_, _, _, parent, _), t in zip(spans, took):
        if parent >= 0:
            child_s[parent] += t
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for (name, _, _, _, _), t, inner in zip(spans, took, child_s):
        calls[name] += 1
        self_s[name] += t - inner
        total_s[name] += t

    out: dict[str, float] = {}
    for mod_name, attr, _ in TARGETS:
        name = span_name(mod_name, attr)
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["manifold.lyapunov_perron_hc.total_s"] = total_s["manifold.lyapunov_perron_hc"]

    pairs = cov_bytes = iterations = converged = 0
    lp_window: dict[int, int] = {}
    lp_drift_calls: dict[int, int] = defaultdict(int)
    for idx, (name, _, _, parent, info) in enumerate(spans):
        if info is None and name != "gubinelli.convolve_drift":
            continue                     # untracked, or the call raised
        if name == "controlled.norm_d2g":
            pairs += info
        elif name == "roughpath.lift_fbm":
            cov_bytes += 8 * info * info
        elif name == "manifold.lyapunov_perron_hc":
            lp_window[idx] = info[0]
            iterations += info[1]
            converged += info[2]
        elif name == "gubinelli.convolve_drift":
            while parent >= 0 and parent not in lp_window:
                parent = spans[parent][3]
            if parent >= 0:
                lp_drift_calls[parent] += 1
    lp_calls = calls["manifold.lyapunov_perron_hc"]
    out["controlled.norm_d2g.pairs"] = pairs
    out["roughpath.lift_fbm.cov_bytes"] = cov_bytes
    out["manifold.lp_iterations"] = iterations
    out["manifold.sweeps"] = sum(n / (2 * lp_window[i]) for i, n in lp_drift_calls.items())
    out["manifold.lp_converged_frac"] = converged / lp_calls if lp_calls else 0.0
    out["trace.spans"] = len(spans)
    out["trace.other_s"] = run_s - sum(self_s.values())
    return out
