"""Host-speed probe: a fixed pure-Python loop, timed.

The benchmark host is a shared VM whose speed drifts by up to 2x in spells
of seconds to minutes. The probe runs next to every measurement, and each
measured time is scaled by NOMINAL_S / (the probe's time beside it), so it
reads as seconds at the reference host's quiet speed. The probe is
benchmark code; a change to meshecon cannot move it.
"""

import math
import time

LOOPS = 60000
# Median probe time on the reference host (2-CPU Xeon VM, Python 3.11) in a
# quiet spell.
NOMINAL_S = 0.0095


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(LOOPS):
        x = math.sqrt(i + 1.0)
        table[i & 255] = x
        acc += x if i & 1 else -x
    return time.perf_counter() - t0


def scale(seconds: float, probe_s: float) -> float:
    """seconds at the reference host's speed, given the probe's time then."""
    return seconds * NOMINAL_S / probe_s
