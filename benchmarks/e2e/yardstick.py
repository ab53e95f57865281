"""A yardstick for the machine's speed at this moment.

The box this benchmark runs on shares its cores with other tenants:
over minutes, everything on it -- a pure-Python loop, a NumPy stencil,
every workload here -- slows and recovers by 10-60 %, far more than any
bound a regression gate could use, and by different amounts for
interpreter-bound, cache-resident and streaming work.  So each block
interleaves its samples with bursts of readings of three fixed pieces of
work that no code under test touches, one of each kind, and each
sample's time is divided by the weighted ``reading / nominal`` of the
bursts on either side of it.

Time metrics are therefore seconds *at yardstick speed*: what the
sample takes when the readings take their nominal times, which is what
they take here on a quiet box.  The raw seconds are kept beside them.
Measured here (README, "Why time is normalised"), the spread of
``solve_s_p50`` over ten runs went from 11-37 % raw to 2-13 %.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The three parts of a reading on this box when nothing else runs
#: (seconds): bytecode, cache-resident NumPy calls, streaming NumPy calls.
NOMINAL_S = (0.0040, 0.0039, 0.0035)
#: Readings per burst; a burst's value is their median, part by part.
BURST = 5
#: What each grid class's time is made of, as weights on the three parts.
#: A class-S solve is dispatch and cache-resident calls; a class-W solve is
#: 90 % level-5/6 stencils (streaming) over a tail of cache-resident
#: coarse-level calls, and a bytecode-only slowdown barely moves it.
WEIGHTS = {"S": (0.5, 0.5, 0.0), "W": (0.0, 0.5, 0.5)}


class Yardstick:
    def __init__(self, klass: str) -> None:
        rng = np.random.default_rng(0)
        parts = (lambda: self._bytecode,
                 lambda: self._stencil(rng, 18, 300),
                 lambda: self._stencil(rng, 66, 6))
        #: (work, weight / nominal seconds) of the parts this class uses;
        #: the others allocate nothing, so they cost its ``peak_rss_mb`` nothing.
        self._parts = [(make(), w / nominal) for make, w, nominal
                       in zip(parts, WEIGHTS[klass], NOMINAL_S) if w]

    @staticmethod
    def _bytecode() -> None:
        table: dict[int, int] = {}
        acc = 0
        for i in range(40000):
            acc += i * 3 % 7
            table[i & 255] = acc

    @staticmethod
    def _stencil(rng, n: int, repeats: int):
        """``repeats`` x 3 NumPy calls on ``n``^3 arrays: 900 on 18^3 are
        call-overhead bound and L1/L2 resident; 18 on 66^3 stream, as a
        class-W kernel does."""
        a, b, c = (rng.standard_normal((n,) * 3) for _ in range(3))

        def work() -> None:
            for _ in range(repeats):
                np.add(a[1:-1, 1:-1, :], b[1:-1, :-2, :], out=c[1:-1, 1:-1, :])
                np.multiply(c, 0.5, out=c)
                np.subtract(a, c, out=c)
        return work

    def speed(self) -> float:
        """A burst of readings: per part, the median time over its nominal
        time, weighted for this grid class.  1.0 on a quiet box, 1.3 when
        work of this kind takes 30 % longer."""
        times: list[list[float]] = [[] for _ in self._parts]
        for _ in range(BURST):
            for (work, _), column in zip(self._parts, times):
                t0 = time.perf_counter()
                work()
                column.append(time.perf_counter() - t0)
        return sum(scale * statistics.median(column)
                   for (_, scale), column in zip(self._parts, times))
