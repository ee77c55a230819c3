"""How fast the CPU runs right now, from a fixed reference loop.

The shared 2-core box this benchmark was defined on changes speed by up to
1.5x from one minute to the next, and its two cores change independently.
run.py therefore keeps itself and every child on one core (``pin``), and
each child runs ``probe()`` just before and just after its command. run.py
multiplies the child's times by ``REF_S / mean(the two probes)``, which gives
its times at the speed where the loop takes REF_S. NOTES.md has the numbers.

The loop is a product of two small dict polynomials with tuple exponents
and int coefficients, the kind of work ``ParamPoly`` does, written here so
that no change to the program can change it.
"""

from __future__ import annotations

import os
import statistics
import time

# The probe time that reported times are scaled to. An idle core of the
# 2-core box (CPython 3.11.7) runs a probe in about 9 ms, a busy one in 11-20.
# It only fixes the scale of the reported times; never change it, or runs
# before and after the change are no longer comparable.
REF_S = 0.010
REPS = 5  # timed loops per probe; the median drops an interrupted one
ROUNDS = 40  # products per loop, about 11 ms on that box

_A = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(8) for j in range(4)}


def _loop() -> dict:
    for _ in range(ROUNDS):
        out = {}
        for (i, j), a in _A.items():
            for (k, m), b in _A.items():
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + a * b
    return out


def probe() -> float:
    """Seconds the reference loop takes now: the median of REPS timings."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pin():
    """Keep this process, and the children it starts, on one core; return it,
    or None where the system does not allow it."""
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu
