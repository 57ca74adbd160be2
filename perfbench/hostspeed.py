"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark runs on shared hosts whose speed drifts by 10-40% over
minutes and flickers within seconds: neighbours contend for the core,
and the clock changes with the load of the whole machine.  One run
cannot outlast that drift, so the worker times this loop right after
every pass, on the same CPU, and scales the pass's times by
``NOMINAL_S`` / (mean loop time): the times a host on which one loop
takes ``NOMINAL_S`` seconds would show.

The loop is a short stretch of interpreter work (integer arithmetic and
dict stores) with a working set that fits in the first-level caches, so
it follows the speed of the core and not of the library's data.  A loop
that also walked a 4 MB table swung two to three times as much as the
library when the host slowed, and scaling by it made the figures worse.
The loop imports nothing from the library: a faster or slower library
moves the scaled times as much as the measured ones.  A library that
left threads running between calls would slow the loop and so flatter
the scaled times; the unscaled figures each run prints show that.
"""
from __future__ import annotations

import gc
import statistics
import time

NOMINAL_S = 0.01
STEPS = 60000


def loop() -> int:
    s = 0
    d = {}
    for i in range(STEPS):
        s += i * 3 % 7
        d[i & 1023] = s
    return s


def seconds(reps: int) -> float:
    """Mean time of ``reps`` loops, with the collector off so that garbage
    a pass left behind is not collected inside the loop."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.fmean(times)
