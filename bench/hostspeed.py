"""Host-speed calibration, sampled while the program runs.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x within seconds (other tenants' load), which moves every wall time with
it.  A `Sampler` runs a fixed calibration loop from a SIGALRM interval timer,
so it interleaves with the program in the main thread, between bytecodes,
every `INTERVAL_S` of wall time.  Each sample gives the host's speed at that
moment, `REF_S / sample`, and the mean over a time window gives the window's
average speed.  A window's time at the reference speed is

    (wall time - calibration time inside it) * mean speed inside it,

which is the wall time the same work takes on a host where the calibration
loop takes `REF_S`.  The loop mixes interpreter work with small numpy calls
and with 96 x 96 matrix products, as the program mixes them, so both slow
down together: over repeated fresh runs of one workload on a 2-vCPU shared
VM, the calibrated time varied 3 to 4 times less than the wall time, and
the matrix products halved what was left with the interpreter part alone.
"""
from __future__ import annotations

import signal
import time

import numpy as np

REF_S = 0.004           # the calibration loop's time at the reference speed
INTERVAL_S = 0.1        # wall time between samples
_VEC = np.arange(64.0)
_MAT = np.random.default_rng(0).standard_normal((96, 96))


def calibration_loop() -> float:
    total = 0.0
    for i in range(1000):
        k = i % 7
        total += float(np.dot(_VEC[k:k + 32], _VEC[:32])) * 1e-9 + (i * i) % 7
    m = _MAT
    for _ in range(16):
        m = np.tanh(m @ _MAT * 0.01)
    return total + float(m[0, 0])


class Sampler:
    """Samples the calibration loop while installed; use as a context manager.

    `samples` holds the (start, end) `time.monotonic` of every sample.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        calibration_loop()
        self.samples.append((start, time.monotonic()))

    def start(self) -> None:
        calibration_loop()                      # warm-up, not a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def within(self, begin: float, end: float) -> list[tuple[float, float]]:
        return [(a, b) for a, b in self.samples if begin <= a and b <= end]

    def window(self, begin: float, end: float) -> tuple[float, float]:
        """(calibration time, mean speed) of the samples inside [begin, end]."""
        inside = self.within(begin, end)
        if not inside:
            raise RuntimeError("no host-speed sample inside the window")
        paused = sum(b - a for a, b in inside)
        speed = sum(REF_S / (b - a) for a, b in inside) / len(inside)
        return paused, speed
