"""Host-speed calibration: a fixed kernel timed beside every op.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within minutes, with CPU time following wall time, so raw op times from
two sets of runs of the same code disagree by more than any useful bound.
The kernel below is the benchmark's own code, never the program's: fixed
pure-Python work of the kinds covercalc's interpreter time goes to
(integer arithmetic, dict and tuple churn, set-based closure over a
multiplication table, allocating and sorting small objects). It is timed
just before every op, in the process that runs the op, and op times are
scaled by ``NOMINAL_S`` over the kernel's mean time in the same pass. A
slower program moves the scaled figures exactly as it moves the raw ones; a
slower host moves the op and the kernel together and largely cancels out.
"""

from __future__ import annotations

import gc
import itertools
import random
from time import perf_counter

# The kernel's mean time on a quiet 2-core x86-64 virtual machine; scaled
# times read as seconds on a host that runs the kernel in NOMINAL_S.
NOMINAL_S = 0.012


def _s5_table() -> list[list[int]]:
    """The multiplication table of S5 on its 120 permutations."""
    perms = list(itertools.permutations(range(5)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]


# Built at import, so that processes forked afterwards time only the kernel.
_S5 = _s5_table()


def kernel() -> int:
    """A fixed amount of mixed work; returns a checksum so none is skipped.

    The garbage collector is off while it runs, so the kernel frees all it
    allocates without collecting or promoting anything: the op that follows
    finds the collector's counts as it would without the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> int:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    counts: dict = {}
    rng = random.Random(1)
    for i in range(1_400):
        key = (rng.randrange(300), i % 37)
        counts[key] = counts.get(key, 0) + 1
    acc += sum(v for _, v in sorted(counts.items())[:5])
    for a in range(1, 151):
        gens = (a % 120, (a * 7) % 120)
        seen, frontier = {0}, [0]
        while frontier:
            products = _S5[frontier.pop()]
            for g in gens:
                y = products[g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        acc += len(seen)
    items = [(i % 97, str(i), [i]) for i in range(4_500)]
    items.sort(key=lambda t: t[1])
    acc += items[0][0]
    return acc


def measure() -> float:
    """Seconds one kernel call takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def factor(samples: list[float]) -> float:
    """Scale from raw to nominal-host seconds for ops timed beside ``samples``."""
    return NOMINAL_S * len(samples) / sum(samples)
