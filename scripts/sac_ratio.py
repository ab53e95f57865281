#!/usr/bin/env python
"""The paper's question, measured: how long ``mg.sac`` compiled to NumPy
(``FinalResidual``) takes against the hand-written ``core.mg`` solver,
per class.  One process per call; the two sides alternate and each row
is the best of N runs (S 7, W 3, A 2).  The generated side is
``compile_function(load_mg_program(), "FinalResidual", (v, nit))``, the
hand-written one ``core.mg.solve(klass, v=v, ws=ws)`` with a workspace
warmed by one ``nit=1`` solve; ``v`` is built once, outside both.  The
last columns are the generated ``rnm2`` and NPB's 1e-8 check of it.
There is no timing gate.

    PYTHONPATH=src python scripts/sac_ratio.py [S W] [--large]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import get_class, zran3
from repro.core.mg import solve
from repro.mg_sac import load_mg_program
from repro.perf import Workspace
from repro.sac.codegen import compile_function

REPEATS = {"S": 7, "W": 3, "A": 2}


def best_of(n: int, *calls):
    """Best wall time of each call over ``n`` alternating rounds, and
    the last result of each."""
    best, last = [float("inf")] * len(calls), [None] * len(calls)
    for _ in range(n):
        for k, call in enumerate(calls):
            t0 = time.perf_counter()
            last[k] = call()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best, last


def row(klass: str) -> str:
    sc = get_class(klass)
    v = zran3(sc.nx)
    fn = compile_function(load_mg_program(), "FinalResidual", (v, sc.nit))
    ws = Workspace()
    solve(sc, 1, v=v, ws=ws)
    (t_gen, t_core), (r, _) = best_of(
        REPEATS[klass], lambda: fn(v, sc.nit),
        lambda: solve(sc, v=v, ws=ws))
    interior = r[1:-1, 1:-1, 1:-1]
    rnm2 = float(np.sqrt(np.mean(interior * interior)))
    lines = fn.source.count("\n")
    defs = fn.source.count("\ndef ") - 2  # not _sac_idiv/_sac_imod
    return (f"| {klass} | {lines:,} ({defs}) | {t_gen:.4f} s | "
            f"{t_core:.4f} s | {t_gen / t_core:.2f}x | {rnm2!r} | "
            f"{'yes' if sc.verifies(rnm2) else 'no'} |")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("classes", nargs="*", default=["S", "W"],
                    help="any of S W (default: both)")
    ap.add_argument("--large", action="store_true",
                    help="also class A (about 1.1 GB, a minute)")
    args = ap.parse_args()
    if set(args.classes) - {"S", "W"}:
        ap.error(f"classes are S and W, got {' '.join(args.classes)}")
    # Settle glibc's mmap threshold before either side is timed.
    bytearray(16_000_000)
    print("| class | generated lines (defs) | generated | core.mg | ratio "
          "| rnm2 generated | NPB 1e-8 |")
    print("|---|---|---|---|---|---|---|")
    for klass in args.classes + ["A"] * args.large:
        print(row(klass), flush=True)


if __name__ == "__main__":
    main()
