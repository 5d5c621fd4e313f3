"""Host speed, sampled with a fixed pure-Python loop, to scale timings.

The machines this benchmark runs on share physical cores with other
tenants: the same code runs about 1.7 times slower while a neighbour is
busy, in phases lasting from a fraction of a second to minutes, and
process CPU time rises with wall time, so the slowdown cannot be
subtracted.  A median of plain wall times then depends on which phase a
run falls in.

``REFERENCE_S`` is what ``reference_loop`` takes on an uncontended core
of the machine in README.md.  Scaling a wall time t by the speed
``REFERENCE_S / loop time`` sampled during t gives the time the same
work would take at that reference speed.  The sampler interrupts the
measured code every ``INTERVAL_S`` seconds (SIGALRM; code that runs for
a fraction of a second is sampled more often), runs the loop once, and
reports how long its samples took so that the caller can leave them out
of the measured time.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.004
INTERVAL_S = 0.2


def reference_loop():
    """Free reduction of a fixed pseudo-random word of 12000 letters."""
    out = []
    x = 1
    for _ in range(12000):
        x = (x * 1103515245 + 12345) % 2147483648
        letter = x % 7 - 3 or 4
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return len(out)


def sample():
    """One speed sample: REFERENCE_S over the loop's wall time now."""
    start = time.perf_counter()
    reference_loop()
    return REFERENCE_S / (time.perf_counter() - start)


def scaled(fn, interval=INTERVAL_S):
    """Run ``fn()``; return (its result, its wall time without the
    samples, that time scaled to the reference speed).

    Speed is sampled right before, every ``interval`` seconds during,
    and right after the call; the scale factor is the samples' mean, since work
    done in a stretch of time is proportional to the speed there.
    """
    speeds = [sample()]
    paused = 0.0

    def on_alarm(_signum, _frame):
        nonlocal paused
        start = time.perf_counter()
        speeds.append(sample())
        paused += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - paused
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    speeds.append(sample())
    return result, wall, wall * sum(speeds) / len(speeds)
