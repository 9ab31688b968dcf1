"""How fast the host runs right now, from a fixed reference computation.

On a shared host the same pass of the loop can take 5 s one minute and
7 s a few minutes later, because other tenants load the machine's
caches and memory.  A run therefore times this module's reference
computation next to every pass, and scales the pass's host seconds by
``REFERENCE_S / measured``: a pass that ran while the host was slow is
reported as the time it would have taken at reference speed.

The reference computation is code of the benchmark's own and never
changes with the program, so a change that slows the program slows the
scaled time by the same share.  It ages a megabyte-sized page-age
column the way a kstaled scan does, the kind of work that dominates the
loop (page scans, model replay, trace compilation).  On a 2-vCPU shared
VM its time followed drifts of the loop's time more closely than
interpreter-bound reference work did; it misses some slowdowns that hit
only interpreter-bound work, so scaled times still spread across runs,
though less than unscaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_S", "host_seconds"]

#: Seconds :func:`host_seconds` takes on the host the benchmark was tuned
#: on (2 vCPUs of an Intel Xeon VM, CPython 3.11, numpy at one thread),
#: so that scaled times read in seconds of that host.
REFERENCE_S = 0.5

_PAGES = 1 << 20
_ROUNDS = 40
_RNG_SEED = 0x5CA1E


def host_seconds() -> float:
    """Seconds the reference computation takes on the host right now."""
    rng = np.random.default_rng(_RNG_SEED)
    ages = rng.integers(0, 255, size=_PAGES, dtype=np.int64)
    accessed = rng.random(_PAGES) < 0.1
    start = perf_counter()
    cold = 0
    for _ in range(_ROUNDS):
        ages = np.where(accessed, 0, np.minimum(ages + 1, 255))
        cold += int(np.count_nonzero(ages > 120))
        accessed = np.roll(accessed, 4099)
    return perf_counter() - start
