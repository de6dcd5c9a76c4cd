"""Sample the host's speed from a process of its own.

    python3 bench/calib.py SAMPLES.tsv

Every SAMPLE_S seconds, times one run of a fixed calibration loop and
appends ``<monotonic time> <loop seconds>`` to SAMPLES.tsv.  It runs beside
the operations, never inside them, so nothing the program does to its own
interpreter (heap, garbage collector, caches) changes what it measures;
``run.py`` pins it to the CPU the operations run on.
It stops when terminated or when the process that started it is gone.

On a host running at the reference speed the loop takes REF_S seconds;
``speed`` turns samples into the factor that converts wall seconds into
reference seconds.
"""

import os
import sys
import time
from fractions import Fraction

REF_S = 0.001
SAMPLE_S = 0.01


def calibrate():
    """Time one run of a fixed mix of Fraction, dict and tuple work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 31, i % 7)
        seen[key] = seen.get(key, 0) + i
    return time.perf_counter() - t0


def speed(samples):
    """Mean speed relative to the reference over loop times `samples`."""
    return sum(REF_S / s for s in samples) / len(samples)


def main():
    parent = os.getppid()
    with open(sys.argv[1], "a", encoding="ascii") as fh:
        while os.getppid() == parent:
            t = time.monotonic()
            loop = calibrate()
            fh.write(f"{t + loop / 2:.6f}\t{loop:.9f}\n")
            fh.flush()
            time.sleep(SAMPLE_S)


if __name__ == "__main__":
    main()
