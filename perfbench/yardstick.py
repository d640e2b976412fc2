"""Fixed pieces of work that read the machine's current speed.

The benchmark runs on a few cores of a shared host whose speed moves
between discrete states: the same qcy call takes about 75, 117 or 139 ms
depending on the minute, and a state lasts from a few seconds to half a
minute.  Raw wall-clock medians of two runs of identical code therefore
differ by up to 2x, far past any useful regression bound.

A state does not slow every kind of work alike, so the yardstick has one
part per kind of work qcy does, and each operation names the kind that
takes its time (`Op.work` in workloads.py):

interpreter
    dict and tuple churn, then dense integer polynomial products in plain
    Python lists: the bytecode-bound work of the CLI, the certifier, the
    search and the exact algebra.
numpy
    elementwise int64 products and remainders over a large array, then a
    sort: the work of the `_kernels` routines, which is bound by integer
    division and memory.  Over 30-second windows `modp_rank` on a 320x1600
    matrix spread by 9% unscaled, 25% scaled by the interpreter part, and
    3% scaled by this part.

Neither part shares code with qcy, so no change to qcy can move them.

The benchmark reads the yardstick every INTERVAL_S between operations, and
before and after every operation that takes longer.  An operation that runs
longer than INTERVAL_S (the five-variable search takes seconds) is also
read during its run, from a SIGPROF handler, and the time the readings take
is taken out of its wall time.  The benchmark scales each operation's wall
time by the nominal time of its kind's part over the mean of that part's
readings just before, during and just after the operation.  A scaled
time is the time the operation would take on a machine on which the part
takes its NOMINAL_S; it still moves in proportion to any change to qcy's
own speed.  The raw wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np

# Each part's time on the nominal machine.  On a 2-vCPU Xeon host the
# interpreter part reads 3.5-7 ms and the numpy part 3-4 ms, so scaled
# times are close to wall times there.
NOMINAL_S = {"interpreter": 0.006, "numpy": 0.0035}
INTERVAL_S = 0.5  # a new reading once this long has gone by since the last
REPEATS = 3  # a reading is the fastest of this many, so an interrupt is dropped


def _interpreter() -> int:
    acc, buckets = 0, {}
    for i in range(6000):
        t = (i, i * i % 97, i ^ 0x5A5A)
        buckets[t[1]] = buckets.get(t[1], 0) + t[2]
        acc += sum(t) // 3
    a = [i * 7919 % 1000003 for i in range(60)]
    b = [i * 104729 % 1000003 for i in range(60)]
    for _ in range(3):
        c = [0] * 119
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % 2305843009213693951
        a = c[:60]
    return acc + len(sorted(buckets.items())) + c[0]


_PRIME = 2147483629
_ARRAY = np.arange(200_000, dtype=np.int64) * 2654435761 % _PRIME


def _numpy() -> int:
    b = (_ARRAY * 48271 + 11) % _PRIME
    c = (b - 3 * _ARRAY) % _PRIME
    return int(np.sort(c[:25_000])[12_500])


PARTS = {"interpreter": _interpreter, "numpy": _numpy}


def reading() -> dict[str, float]:
    """Seconds each part takes now: the fastest of REPEATS runs."""
    now = {}
    for work, part in PARTS.items():
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            part()
            best = min(best, perf_counter() - t0)
        now[work] = best
    return now


class Yardstick:
    """Readings taken between operations, and the scales for the times between."""

    def __init__(self):
        reading()  # the first run pays for allocator and cache warm-up
        self.last = reading()
        self.taken_at = perf_counter()
        self.readings = [self.last]
        self.during: list[dict[str, float]] = []  # readings since the last scale()
        self.paused = 0.0  # seconds the readings inside the last sampling() took

    def due(self) -> bool:
        return perf_counter() - self.taken_at >= INTERVAL_S

    def _read_during(self, signum, frame) -> None:
        t0 = perf_counter()
        self.during.append(reading())
        self.paused += perf_counter() - t0

    @contextmanager
    def sampling(self, _kind=None):
        """Read the yardstick every INTERVAL_S of CPU time while the body
        runs; `paused` is then the time the readings took."""
        self.paused = 0.0
        previous = signal.signal(signal.SIGPROF, self._read_during)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self) -> dict[str, float]:
        """Take a reading; return, per kind of work, the factor for times
        measured since the last one."""
        now = reading()
        taken = [self.last, *self.during, now]
        factors = {work: NOMINAL_S[work] / (sum(r[work] for r in taken) / len(taken))
                   for work in PARTS}
        self.readings += [*self.during, now]
        self.last, self.taken_at, self.during = now, perf_counter(), []
        return factors

    def median_ms(self) -> dict[str, float]:
        return {work: median(r[work] for r in self.readings) * 1e3 for work in PARTS}
