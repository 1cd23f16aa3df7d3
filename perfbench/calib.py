"""The machine's speed, measured with a fixed pure-Python loop.

On a shared machine the speed of one CPU wanders by up to a quarter over
seconds, and a whole run can fall in a slow stretch.  The benchmark times
this loop next to every job and reports each job's time scaled to the
speed at which the loop takes ``REFERENCE_S``:  time * REFERENCE_S / loop.
The loop reads a fixed 32 KiB table at pseudo-random offsets.  On a
shared 2-CPU container its time moved with latspec's job times in
proportion (slope 0.94-1.03 on log scales), where integer arithmetic
alone moved too little (slope 1.3-1.45: slow stretches were
under-corrected) and a 256 KiB table too much (0.82-0.93).  It imports
nothing and creates no object that the cyclic garbage collector tracks,
so it can neither start a collection nor free anything a job left
behind: what it measures does not depend on the program under test.
"""

import time

#: seconds the loop takes at the reference speed (about its median on a shared
#: 2-CPU container)
REFERENCE_S = 0.001

#: built once, at import; bytes are not tracked by the garbage collector
_TABLE = bytes(range(256)) * 128


def calibrate() -> float:
    """Seconds the fixed loop takes just now."""
    t0 = time.perf_counter()
    acc, i = 0, 1
    for _ in range(4000):
        i = (i * 1103515245 + 12345) & 0x7FFF  # full-period walk over the table
        acc = (acc + _TABLE[i]) & 0xFFFF
    return time.perf_counter() - t0
