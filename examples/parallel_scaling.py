#!/usr/bin/env python
"""Parallel scaling: the paper's Figs. 12/13, measured, plus a team-size
sweep.

Prints the measured speed-up tables at class T — ``ParallelMG`` and
``DistributedMG`` (in-process and socket transport) at P = 1 and 2,
against their own P = 1 and against the serial solve, with the fork
policy that explains the threaded row — then solves class T with
increasing team sizes and checks bit-equality with the serial result.
At class T the fork costs more than the work it splits: the mechanism
is what is shown; ``python -m repro.harness speedup -c W`` measures the
sizes where it pays.

    python examples/parallel_scaling.py
"""

import time

from repro.baselines import FortranMG
from repro.harness import experiments, report
from repro.runtime import ParallelMG


def main() -> int:
    print(report.format_speedup(experiments.speedup("T", repeats=1)))

    print("\nlive fork-join execution (class T, bit-compared to serial):")
    ref = FortranMG().solve("T")
    for p in (1, 2, 4):
        t0 = time.perf_counter()
        res = ParallelMG(p).solve("T")
        dt = time.perf_counter() - t0
        same = "bit-identical" if res.rnm2 == ref.rnm2 else "MISMATCH"
        print(f"  {p} thread(s): {dt * 1e3:7.1f} ms  rnm2={res.rnm2:.3e}  "
              f"[{same}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
