"""Host speed, so that the time metrics follow the program, not the host.

On a shared virtual machine the host's own speed drifts: one fixed
Table I pass, repeated in one process, took 0.6-1.0x its median within a
minute, with CPU time equal to wall time, so no clock can tell a slower
program from a slower host.  A fixed pure-Python kernel, which never
changes with the program, is timed between the parts of every timed
interval.  The interval's reported time is its measured time scaled by
``REFERENCE_S`` over the kernel's mean time in and around it: the time
it would have taken at the host speed at which the kernel takes
``REFERENCE_S``.  A slower program still reads slower by the same share;
a slower host reads about the same.  Many short kernel samples spread
over the interval follow its mean speed better than a few long ones.
Measured times are reported beside the scaled ones.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

#: the kernel's median time on the host the benchmark was sized on, so a
#: scaled time reads close to the measured one there
REFERENCE_S = 0.05


def kernel() -> int:
    """Dict building, sorting and integer arithmetic, ~50 ms; the same
    work every call, in well under 1 MB so it never sets the peak RSS."""
    rng = random.Random(5)
    total = 0
    for _round in range(4):
        table = {}
        for i in range(5_000):
            table[(rng.randrange(1000), i & 255)] = str(i)
        for (high, _low), text in sorted(table.items()):
            total += high + len(text)
    for i in range(60_000):
        total += i * i % 7
    return total


def sample() -> float:
    """Seconds one kernel call takes now (no garbage collection inside,
    so the program's live heap does not slow it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale of an interval from the kernel samples taken in and around it."""
    return REFERENCE_S / statistics.fmean(samples)


def timed_parts(parts) -> "tuple[dict, dict, list]":
    """Run ``(name, fn)`` steps back to back, sampling the kernel before
    the first step and after each.  Steps that share a name form one part.
    Returns per part the list of its steps' results and its measured
    seconds, and the kernel samples (``factor`` of them scales them)."""
    results: "dict[str, list]" = {}
    measured: "dict[str, float]" = {}
    samples = [sample()]
    for name, fn in parts:
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        results.setdefault(name, []).append(result)
        measured[name] = measured.get(name, 0.0) + elapsed
        samples.append(sample())
    return results, measured, samples
