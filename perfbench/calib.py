"""A fixed pure-Python reference task that measures the host's current speed.

On a shared host the speed of a CPU moves between a fast and a slow state
in phases of seconds to minutes, and it moves CPU time with it.  The
benchmark times this task on the CPU it is about to use, right before each
process it starts, and scales that process's timings by the nominal time
of the task over its measured time.  A slow phase slows the reference task
and the program alike, so the scaled figure keeps the program's cost and
drops most of the host's.  The task imports nothing from qgroups: a change
to the program cannot move it.

The task does what the program's scalar layer does most: dense integer
polynomial products and remainders, dictionary updates keyed by tuples,
and many small function calls.
"""

from __future__ import annotations

import time

# seconds the task takes at the reference speed: scaled timings are seconds
# on a host that runs the task in this time.  It is the task's time on a
# CPU of the 2-core Xeon VM the baseline was measured on, in its fast state,
# so scaled and measured timings agree there.
NOMINAL_S = 0.0055


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _rem(a, b):
    """Pseudo-remainder of a by b (integer coefficients, lead first)."""
    a = list(a)
    lead = b[0]
    while len(a) >= len(b):
        c = a[0]
        a = [lead * x for x in a]
        for k, y in enumerate(b):
            a[k] -= c * y
        a.pop(0)
    return a


def task():
    """One run of the reference task; returns a checksum."""
    acc = {}
    p = [1, -2, 3, 1, -1, 2, 1]
    q = [2, 1, -1, 3, 1]
    for step in range(400):
        r = _mul(p, q)
        s = _rem(r, [3, 1, -1])
        for k, x in enumerate(s):
            key = (step % 61, k, x % 7)
            acc[key] = acc.get(key, 0) + x
        p = [x % 97 - 48 for x in r[: len(p)]]
    return sum(acc.values()) % 1000003


def reference_s(samples=2):
    """Fastest of ``samples`` timed runs of the task, in seconds."""
    best = float("inf")
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        task()
        best = min(best, (time.perf_counter_ns() - t0) / 1e9)
    return best
