"""A fixed reference loop that times the host's speed.

On a shared host the same job can run up to 1.85x slower for seconds to
minutes at a time. The benchmark times this loop just before and just
after every job, in the same process, and reports each job's time in
units of the loop (rescaled to NOMINAL_S): a slow host state slows both,
and the ratio stays. The loop is benchmark code, so a change to the
program moves the job and not the loop.

The loop is a short pure-Python float loop, and a sample is the fastest
of REPEATS runs. On the development host this tracked the slow states of
the `sbm` and sparse `cluster` jobs better than walks over shuffled
lists of tuples of 38 MB and 190 MB: job times divided by it varied
least over windows of jobs (see README.md).
"""

from __future__ import annotations

import time

LOOP = 300_000
REPEATS = 5
# The loop's time on the 2-vCPU development host in its fast state; it
# only scales the reported times back to seconds.
NOMINAL_S = 0.02


def reference_s() -> float:
    """Seconds of the fastest of REPEATS runs of the reference loop."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        total = 0.0
        for i in range(LOOP):
            total += i * 0.5
        best = min(best, time.perf_counter() - start)
    if total != 0.25 * LOOP * (LOOP - 1):
        raise RuntimeError("reference loop summed the wrong total")
    return best


def at_reference_speed(seconds: float, ref_s: list[float]) -> float:
    """Seconds rescaled to the reference loop's nominal speed, by the mean
    of the reference samples taken around them."""
    return seconds / (sum(ref_s) / len(ref_s)) * NOMINAL_S
