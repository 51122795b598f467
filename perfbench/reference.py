"""A fixed pure-Python reference loop that measures the machine's current speed.

The 2-vCPU box this benchmark was defined on switches between a fast and a
slow state, about 25-40% apart, every few tens of seconds; CPU time follows
wall time, so the cause is the host, not scheduling.  Medians over a 40 s run
do not absorb that: consecutive runs of identical work differed by 30%.
The benchmark therefore times this loop next to every piece of measured work
and reports times scaled to reference speed:

    reported seconds = measured seconds * REF_S / reference loop seconds

With it, ten runs per workload spread 0.03-0.06 (quartile distance over
median) where raw medians had spread up to 0.30.  A purely arithmetic loop
left channel-dynamics at 0.12, hence the mix of allocation and float reprs
below.  The loop uses only the interpreter and ``math``, never the program,
so a change to the program cannot move it.  Raw times stay in the run
record.
"""
import math
import time

from stats import median

REF_S = 0.024            # the loop's time on the defining box (Xeon, 2 vCPU, Python 3.11)
REF_ITERATIONS = 8_000
REF_REPEATS = 3


def _loop(n: int) -> float:
    # the program's mix in miniature: small float lists, math calls, tuples
    # appended to a record that is dropped now and then, and float reprs
    rec = []
    x = [0.3, -1.2, 0.7]
    acc = 0.0
    for i in range(n):
        g = [2.0 * c + 0.5 * math.sin(6.283185307179586 * c) for c in x]
        x = [c - 1e-3 * gc for c, gc in zip(x, g)]
        v = math.fsum(c * c for c in x)
        acc += math.sqrt(v) * math.exp(-v)
        rec.append((i, tuple(x), v, acc))
        if i % 8 == 0:
            ",".join([repr(c) for c in x])
        if len(rec) >= 4096:
            rec = []
    return acc


def calibrate() -> float:
    """Seconds one loop takes now: the median of REF_REPEATS timings."""
    times = []
    for _ in range(REF_REPEATS):
        t = time.perf_counter()
        _loop(REF_ITERATIONS)
        times.append(time.perf_counter() - t)
    return median(times)


def speed_factor(*calibrations: float) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return REF_S / (sum(calibrations) / len(calibrations))
