"""Reference seconds: wall time corrected for how fast the machine runs now.

On a machine that shares its cores, the same Python code runs up to about
1.8x slower for minutes at a time.  Each timed operation is therefore
bracketed by a fixed pure-Python reference loop, and its wall time is
scaled by REFERENCE_S over the loop's time measured around it:

    reference seconds = wall seconds * REFERENCE_S / mean(loop before, loop after)

A slowdown of the machine lengthens the operation and the loop alike and
cancels; a change to blockproj does not touch the loop and shows in full.
"""

import statistics
from time import perf_counter

# median time of one reference_loop() on the reference machine (2.1 GHz
# virtual CPU, Python 3.11.7); it only scales reference seconds
REFERENCE_S = 1.2e-3
SAMPLES = 5


def reference_loop():
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def loop_s():
    """Median seconds of SAMPLES runs of the reference loop."""
    times = []
    for _ in range(SAMPLES):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def timed(fn):
    """(wall seconds, reference seconds, result) of one call of fn."""
    before = loop_s()
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    after = loop_s()
    return elapsed, elapsed * 2.0 * REFERENCE_S / (before + after), result
